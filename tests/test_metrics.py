"""Metric arithmetic against hand-worked values and independent oracles."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import generation, verify
from spi.config import ModelConfig, SpiConfig
from spi.data import SyntheticSpec, generate_corpus
from spi.errors import ContractError
from spi.metrics import (bleu_corpus, distinct_n, evaluate, perplexity,
                         rouge_n, selection_accuracy)
from spi.model import EOS, DialogueExample, ModelParams, param_shapes


def make_example(cands=((6, 7), (7, 6)), hist=(4, 5), resp=(6, 7, EOS), gold=0):
    return DialogueExample(history=list(hist),
                           candidates=[list(c) for c in cands],
                           gold_index=gold, response=list(resp))


def reference_bleu(candidates, references, max_n):
    """Independent smoothed corpus BLEU, explicit loops throughout."""
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matches = 0
        total = 0
        for cand, ref in zip(candidates, references):
            cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            total += len(cand_grams)
            remaining = list(ref_grams)
            for gram in cand_grams:
                if gram in remaining:
                    remaining.remove(gram)
                    matches += 1
        if total == 0:
            return 0.0
        p = matches / total if matches > 0 else (matches + 1) / (total + 1)
        log_sum += math.log(p)
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    if c_len == 0:
        return 0.0
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_sum / max_n)


def reference_rouge(candidates, references, n):
    scores = []
    for cand, ref in zip(candidates, references):
        cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
        ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        remaining = list(ref_grams)
        overlap = 0
        for gram in cand_grams:
            if gram in remaining:
                remaining.remove(gram)
                overlap += 1
        p = overlap / len(cand_grams) if cand_grams else 0.0
        r = overlap / len(ref_grams) if ref_grams else 0.0
        scores.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    return sum(scores) / len(scores)


token_seq = st.lists(st.integers(4, 12), min_size=1, max_size=8)
corpus_pairs = st.lists(st.tuples(token_seq, token_seq), min_size=1, max_size=6)


class TestSelectionAccuracy:
    def test_all_correct(self):
        exs = [make_example(gold=0), make_example(gold=1)]
        assert selection_accuracy([0, 1], exs) == 1.0

    def test_half_correct(self):
        exs = [make_example(gold=1), make_example(gold=1)]
        assert selection_accuracy([0, 1], exs) == 0.5

    def test_unlabelled_examples_are_skipped(self):
        exs = [make_example(gold=1), make_example(gold=None)]
        assert selection_accuracy([1, 0], exs) == 1.0

    def test_no_labels_at_all_rejected(self):
        with pytest.raises(ContractError):
            selection_accuracy([0], [make_example(gold=None)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            selection_accuracy([0, 1], [make_example()])

    def test_random_picks_hit_one_over_m(self):
        rng = np.random.default_rng(0)
        m = 8
        exs = [make_example(cands=tuple((6, 7) for _ in range(m)),
                            gold=int(g)) for g in rng.integers(0, m, size=10_000)]
        picks = [int(x) for x in rng.integers(0, m, size=10_000)]
        assert selection_accuracy(picks, exs) == pytest.approx(1 / m, abs=0.01)


class TestPerplexity:
    def test_uniform_model_scores_vocab_size(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=4, hidden_dim=5, att_dim=3,
                          dec_hidden_dim=5, latent_dim=2, max_history=8,
                          max_candidate=6, max_response=8)
        arrays = {name: np.zeros(shape) for name, shape in param_shapes(cfg)}
        p = ModelParams.from_arrays(cfg, arrays)
        exs = [make_example(resp=(6, 7, EOS)), make_example(resp=(5, EOS))]
        assert perplexity(p, exs, picks=[0, 1]) == pytest.approx(8.0, abs=1e-9)

    def test_order_invariance(self):
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=5, att_dim=3,
                          dec_hidden_dim=5, latent_dim=2, max_history=8,
                          max_candidate=6, max_response=8)
        p = ModelParams.init(cfg, seed=3)
        exs = [make_example(resp=(6, 7, EOS)), make_example(resp=(5, EOS)),
               make_example(resp=(4, 4, EOS))]
        from spi.generation import select_for_generation
        picks = [select_for_generation(p, ex, prior="uniform") for ex in exs]
        assert perplexity(p, exs, picks=picks) == \
            perplexity(p, list(reversed(exs)), picks=list(reversed(picks)))

    def test_ragged_batch_matches_the_reference(self):
        # one lockstep decode: responses of different lengths, one of EOS
        # alone and one with tokens after its EOS, which are not scored
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=5, att_dim=3,
                          dec_hidden_dim=5, latent_dim=2, max_history=8,
                          max_candidate=6, max_response=8)
        p = ModelParams.init(cfg, seed=6, scale=0.5)
        exs = [make_example(resp=(6, 7, 8, 9, 4, EOS)),
               make_example(hist=(), resp=(EOS,)),
               make_example(hist=(9, 8, 7, 6, 5, 4, 9, 8, 7), cands=((5,), (4,) * 7),
                            resp=(5, EOS, 6, 7)),
               make_example(hist=(4,), resp=(8, 8, EOS))]
        picks = [1, 0, 1, 0]
        total = 0.0
        for ex, s in zip(exs, picks):
            scored = ex.response[:ex.response.index(EOS) + 1]
            truncated = DialogueExample(ex.history, ex.candidates, ex.gold_index, scored)
            total += verify.naive_response_logprob(
                p, truncated, s, verify.naive_latent_mean(p, ex, s))
        # the mean runs over the scored tokens: 6 + 1 + 2 + 3
        want = math.exp(-total / 12)
        assert perplexity(p, exs, picks=picks) == pytest.approx(want, rel=1e-12, abs=0)

    def test_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # 250 desk test examples: one decode over all of them peaked at 18.8 MB
        corpus = generate_corpus(SyntheticSpec(n_train=1, n_valid=1, n_test=250, seed=0))
        params = ModelParams.init(ModelConfig(vocab_size=corpus.vocab.size), seed=0)
        picks = [ex.gold_index for ex in corpus.test]
        tracemalloc.start()
        try:
            chunked = perplexity(params, corpus.test, picks=picks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        monkeypatch.setattr(generation, "ENCODE_CHUNK", len(corpus.test))
        one_pass = perplexity(params, corpus.test, picks=picks)
        assert chunked == pytest.approx(one_pass, rel=1e-12, abs=0)

    def test_padding_past_eos_leaves_perplexity_unchanged(self):
        # both responses score the same two tokens, so they average over two
        p = ModelParams.init(verify._tiny_model_config(), seed=1)
        padded = make_example(resp=(5, EOS, 6, EOS))
        bare = make_example(resp=(5, EOS))
        assert perplexity(p, [padded], picks=[0]) == perplexity(p, [bare], picks=[0])

    def test_never_below_one(self):
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=5, att_dim=3,
                          dec_hidden_dim=5, latent_dim=2, max_history=8,
                          max_candidate=6, max_response=8)
        for seed in range(3):
            p = ModelParams.init(cfg, seed=seed)
            assert perplexity(p, [make_example()], picks=[0]) >= 1.0

    def test_oracle_needs_gold(self):
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=5, att_dim=3,
                          dec_hidden_dim=5, latent_dim=2, max_history=8,
                          max_candidate=6, max_response=8)
        p = ModelParams.init(cfg, seed=3)
        with pytest.raises(ContractError, match="gold"):
            evaluate(p, [make_example(), make_example(gold=None)], SpiConfig(model=cfg),
                     oracle_knowledge=True)

    def test_misaligned_picks_rejected(self):
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=5, att_dim=3,
                          dec_hidden_dim=5, latent_dim=2, max_history=8,
                          max_candidate=6, max_response=8)
        with pytest.raises(ContractError, match="picks"):
            perplexity(ModelParams.init(cfg), [make_example()], picks=[0, 1])

    def test_empty_corpus_rejected(self):
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=5, att_dim=3,
                          dec_hidden_dim=5, latent_dim=2, max_history=8,
                          max_candidate=6, max_response=8)
        with pytest.raises(ContractError):
            perplexity(ModelParams.init(cfg), [], picks=[])


class TestBleu:
    def test_identity_scores_one(self):
        corpus = [[4, 5, 6, 7], [8, 9]]
        assert bleu_corpus(corpus, corpus, max_n=4) == pytest.approx(1.0, abs=1e-12)

    def test_hand_worked_two_sentence_corpus(self):
        cands = [[5, 6, 7, 8], [10, 11]]
        refs = [[5, 6, 9, 8], [10, 11]]
        # orders 1..4: 5/6, 2/4, smoothed 1/3, smoothed 1/2; equal lengths
        expected = ((5 / 6) * (1 / 2) * (1 / 3) * (1 / 2)) ** 0.25
        assert bleu_corpus(cands, refs, max_n=4) == pytest.approx(expected, abs=1e-12)
        assert bleu_corpus(cands, refs, max_n=4) == \
            pytest.approx(reference_bleu(cands, refs, 4), abs=1e-9)

    def test_no_overlap_hits_exactly_the_smoothing_floor(self):
        cands = [[4, 5, 6, 7]]
        refs = [[8, 9, 10, 11]]
        floor = ((1 / 5) * (1 / 4) * (1 / 3) * (1 / 2)) ** 0.25
        assert bleu_corpus(cands, refs, max_n=4) == pytest.approx(floor, abs=1e-12)

    def test_brevity_penalty_for_short_candidates(self):
        assert bleu_corpus([[4, 5]], [[4, 5, 6, 7]], max_n=2) == \
            pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_long_candidates_pay_no_brevity_penalty(self):
        got = bleu_corpus([[4, 5, 6, 7]], [[4, 5]], max_n=2)
        assert got == pytest.approx(math.sqrt((2 / 4) * (1 / 3)), abs=1e-12)

    def test_degenerate_short_candidates_score_zero(self):
        # no candidate reaches length 3, so order-3 counts vanish
        assert bleu_corpus([[4, 5]], [[4, 5, 6]], max_n=3) == 0.0

    @given(corpus_pairs)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_independent_implementation(self, pairs):
        cands = [list(c) for c, _ in pairs]
        refs = [list(r) for _, r in pairs]
        for max_n in (1, 2, 4):
            assert bleu_corpus(cands, refs, max_n=max_n) == \
                pytest.approx(reference_bleu(cands, refs, max_n), abs=1e-9)

    @given(corpus_pairs, st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, pairs, shuffler):
        cands = [list(c) for c, _ in pairs]
        refs = [list(r) for _, r in pairs]
        order = list(range(len(pairs)))
        shuffler.shuffle(order)
        assert bleu_corpus(cands, refs, max_n=2) == pytest.approx(
            bleu_corpus([cands[i] for i in order], [refs[i] for i in order], max_n=2),
            abs=1e-12)

    @given(corpus_pairs)
    @settings(max_examples=25, deadline=None)
    def test_bounded_in_unit_interval(self, pairs):
        cands = [list(c) for c, _ in pairs]
        refs = [list(r) for _, r in pairs]
        assert 0.0 <= bleu_corpus(cands, refs, max_n=4) <= 1.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ContractError):
            bleu_corpus([], [], max_n=2)
        with pytest.raises(ContractError):
            bleu_corpus([[4]], [[4], [5]], max_n=2)
        with pytest.raises(ContractError):
            bleu_corpus([[4]], [[4]], max_n=0)
        with pytest.raises(ContractError):
            bleu_corpus([[4]], [[4]], max_n=5)


class TestRouge:
    def test_identity_scores_one(self):
        corpus = [[4, 5, 6], [7, 8]]
        assert rouge_n(corpus, corpus, n=1) == pytest.approx(1.0, abs=1e-12)
        assert rouge_n(corpus, corpus, n=2) == pytest.approx(1.0, abs=1e-12)

    def test_reference_plus_noise_gives_two_thirds(self):
        cands = [[4, 5, 6, 10, 11, 12]]  # reference plus equal-length noise
        refs = [[4, 5, 6]]
        assert rouge_n(cands, refs, n=1) == pytest.approx(2 / 3, abs=1e-12)

    def test_disjoint_pair_scores_zero(self):
        assert rouge_n([[4, 5]], [[6, 7]], n=1) == 0.0

    def test_candidate_too_short_for_order_scores_zero(self):
        assert rouge_n([[4]], [[4, 5, 6]], n=2) == 0.0

    @given(corpus_pairs)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_independent_implementation(self, pairs):
        cands = [list(c) for c, _ in pairs]
        refs = [list(r) for _, r in pairs]
        for n in (1, 2):
            assert rouge_n(cands, refs, n=n) == \
                pytest.approx(reference_rouge(cands, refs, n), abs=1e-12)

    @given(corpus_pairs)
    @settings(max_examples=25, deadline=None)
    def test_bounded_in_unit_interval(self, pairs):
        cands = [list(c) for c, _ in pairs]
        refs = [list(r) for _, r in pairs]
        assert 0.0 <= rouge_n(cands, refs, n=1) <= 1.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ContractError):
            rouge_n([], [], n=1)
        with pytest.raises(ContractError):
            rouge_n([[4]], [[4]], n=0)


class TestDistinct:
    def test_half_distinct_frozen_case(self):
        assert distinct_n([[7, 7], [7, 8]], n=1) == 0.5

    def test_identical_single_tokens_score_one_over_n(self):
        assert distinct_n([[9]] * 4, n=1) == 0.25

    def test_all_unique_scores_one(self):
        assert distinct_n([[4, 5], [6, 7]], n=1) == 1.0

    def test_no_ngrams_scores_zero(self):
        assert distinct_n([[4]], n=2) == 0.0
        assert distinct_n([], n=1) == 0.0

    def test_bigrams_pool_across_sequences(self):
        assert distinct_n([[4, 5, 4], [4, 5]], n=2) == pytest.approx(2 / 3)

    @given(st.lists(token_seq, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_bounded_and_permutation_invariant(self, seqs):
        value = distinct_n(seqs, n=1)
        assert 0.0 <= value <= 1.0
        assert value == distinct_n(list(reversed(seqs)), n=1)

    def test_bad_order_rejected(self):
        with pytest.raises(ContractError):
            distinct_n([[4]], n=0)


class TestEvaluate:
    def test_report_shape_and_bounds(self, small_corpus, small_config, small_trained):
        report = evaluate(small_trained.best_params, small_corpus.test, small_config)
        data = report.to_dict()
        assert data["n_examples"] == len(small_corpus.test)
        assert data["n_tokens"] == sum(len(ex.response) for ex in small_corpus.test)
        for key in ("selection_accuracy", "bleu3", "bleu4", "rouge1", "rouge2",
                    "distinct1", "distinct2"):
            assert 0.0 <= data[key] <= 1.0, key
        assert data["perplexity"] >= 1.0
        assert data["oracle_knowledge"] is False

    def test_oracle_flag_changes_only_perplexity(self, small_corpus, small_config,
                                                 small_trained):
        plain = evaluate(small_trained.best_params, small_corpus.test, small_config)
        oracle = evaluate(small_trained.best_params, small_corpus.test, small_config,
                          oracle_knowledge=True)
        assert oracle.oracle_knowledge is True
        assert oracle.selection_accuracy == plain.selection_accuracy
        assert oracle.bleu4 == plain.bleu4
        assert oracle.distinct1 == plain.distinct1

    def test_perplexity_scores_the_generation_picks_or_gold(self, small_corpus,
                                                             small_config, small_trained):
        from spi.generation import generate_batch
        params, examples = small_trained.best_params, small_corpus.test
        gens = generate_batch(params, examples, prior=small_config.prior)
        plain = evaluate(params, examples, small_config, generations=gens)
        oracle = evaluate(params, examples, small_config, generations=gens,
                          oracle_knowledge=True)
        assert plain.perplexity == perplexity(params, examples, picks=[g.s for g in gens])
        assert oracle.perplexity == perplexity(
            params, examples, picks=[ex.gold_index for ex in examples])

    def test_supplied_generations_are_respected(self, small_corpus, small_config,
                                                small_trained):
        from spi.generation import generate_batch
        gens = generate_batch(small_trained.best_params, small_corpus.test,
                              prior=small_config.prior,
                              max_len=small_config.model.max_response)
        a = evaluate(small_trained.best_params, small_corpus.test, small_config)
        b = evaluate(small_trained.best_params, small_corpus.test, small_config,
                     generations=gens)
        assert a == b

    def test_empty_corpus_rejected(self, small_config, small_trained):
        with pytest.raises(ContractError):
            evaluate(small_trained.best_params, [], small_config)
