"""Metric arithmetic against hand-worked values and independent oracles."""
from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import generation, verify
from spi.config import ModelConfig, SpiConfig
from spi.data import SyntheticSpec, generate_corpus
from spi.errors import ContractError
from spi import metrics
from spi.metrics import (_ngram_counts, _ngram_fields, bleu_corpus, distinct_n, evaluate,
                         perplexity, rouge_n, selection_accuracy)
from spi.model import EOS, DialogueExample, ModelParams, encode_batch, param_shapes


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


def counter_ngrams(seq, n):
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def counter_stats(candidates, references, n):
    """Each pair's (clipped matches, candidate n-grams, reference n-grams),
    from plain Counters."""
    stats = []
    for cand, ref in zip(candidates, references):
        cgrams, rgrams = counter_ngrams(cand, n), counter_ngrams(ref, n)
        stats.append((sum(min(count, rgrams[gram]) for gram, count in cgrams.items()),
                      sum(cgrams.values()), sum(rgrams.values())))
    return stats


def counter_bleu(candidates, references, max_n):
    """Smoothed corpus BLEU on the Counter counts, by the module's float formula."""
    log_sum = 0.0
    for n in range(1, max_n + 1):
        stats = counter_stats(candidates, references, n)
        matches = sum(m for m, _, _ in stats)
        total = sum(t for _, t, _ in stats)
        if total == 0:
            return 0.0
        p = matches / total if matches > 0 else (matches + 1) / (total + 1)
        log_sum += math.log(p)
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_sum / max_n)


def counter_rouge(candidates, references, n):
    scores = []
    for overlap, c_total, r_total in counter_stats(candidates, references, n):
        p = overlap / c_total if c_total else 0.0
        r = overlap / r_total if r_total else 0.0
        scores.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    # numpy's summation order, which parts from a plain sum past 8 pairs
    return float(np.mean(scores))


def counter_distinct(sequences, n):
    seen = Counter()
    for seq in sequences:
        seen.update(counter_ngrams(seq, n))
    total = sum(seen.values())
    return len(seen) / total if total else 0.0


token_seq = st.lists(st.integers(4, 12), min_size=1, max_size=8)
corpus_pairs = st.lists(st.tuples(token_seq, token_seq), min_size=1, max_size=6)
# a few ids, so n-grams repeat, among them negative ones and ids of 2^40 up to
# the 64-bit bounds; sequences run from empty to longer than every order
any_id = st.one_of(st.integers(-2, 3), st.sampled_from(
    [2 ** 40, 2 ** 40 + 1, -2 ** 40, 2 ** 62, 2 ** 63 - 1, -2 ** 63]))
any_seq = st.one_of(st.lists(any_id, max_size=12),
                    st.lists(st.sampled_from([7, 2 ** 41]), max_size=30))
any_pairs = st.lists(st.tuples(any_seq, any_seq), min_size=1, max_size=40)


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
        picks = generation.pick_knowledge(p, encode_batch(p, exs))
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
        total = sum(verify.naive_response_logprob(p, ex, s, verify.naive_latent_mean(p, ex, s))
                    for ex, s in zip(exs, picks))
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

    def test_a_desk_evaluate_of_32_examples_peaks_under_3_mb(self):
        # one encoder pass over every candidate, pooled with no lane-major
        # copy of its rows: a prototype that made that copy peaked at 3.73 MB
        corpus = generate_corpus(SyntheticSpec(n_train=1, n_valid=1, n_test=32, seed=0))
        config = SpiConfig(model=ModelConfig(vocab_size=corpus.vocab.size))
        params = ModelParams.init(config.model, seed=0)
        tracemalloc.start()
        try:
            evaluate(params, corpus.test, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("oracle", [False, True])
    def test_a_desk_evaluate_of_250_examples_peaks_under_4_mb(self, oracle):
        # each chunk is encoded, decoded and scored before the next: with one
        # greedy decode over every example's kept lane the peak was 9.87 MiB
        corpus = generate_corpus(SyntheticSpec(n_train=1, n_valid=1, n_test=250, seed=0))
        config = SpiConfig(model=ModelConfig(vocab_size=corpus.vocab.size))
        params = ModelParams.init(config.model, seed=0)
        tracemalloc.start()
        try:
            evaluate(params, corpus.test, config, oracle_knowledge=oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

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
        assert bleu_corpus(cands, refs, max_n=4) == reference_bleu(cands, refs, 4)

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
            assert bleu_corpus(cands, refs, max_n=max_n) == reference_bleu(cands, refs, max_n)

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
            assert rouge_n(cands, refs, n=n) == reference_rouge(cands, refs, n)

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


class TestNgramCounts:
    """The one array pass against plain Counters, exactly."""

    @given(any_pairs)
    @settings(max_examples=60, deadline=None)
    def test_every_count_equals_the_counters(self, pairs):
        cands = [c for c, _ in pairs]
        refs = [r for _, r in pairs]
        for n, order in enumerate(_ngram_counts(cands, refs, 5), start=1):
            assert list(zip(order.matches.tolist(), order.cand_totals.tolist(),
                            order.ref_totals.tolist())) == counter_stats(cands, refs, n)
            assert order.distinct == len(sum((counter_ngrams(c, n) for c in cands), Counter()))

    @given(any_pairs)
    @settings(max_examples=60, deadline=None)
    def test_every_score_equals_the_counter_reference(self, pairs):
        cands = [c for c, _ in pairs]
        refs = [r for _, r in pairs]
        assert _ngram_fields(cands, refs) == {
            "bleu3": counter_bleu(cands, refs, 3), "bleu4": counter_bleu(cands, refs, 4),
            "rouge1": counter_rouge(cands, refs, 1), "rouge2": counter_rouge(cands, refs, 2),
            "distinct1": counter_distinct(cands, 1), "distinct2": counter_distinct(cands, 2)}
        for n in (1, 2, 3, 4):
            assert bleu_corpus(cands, refs, max_n=n) == counter_bleu(cands, refs, n)
            assert rouge_n(cands, refs, n=n) == counter_rouge(cands, refs, n)
            assert distinct_n(cands, n=n) == counter_distinct(cands, n)

    def test_clipping_counts_a_repeated_gram_at_most_as_often_as_the_reference(self):
        order1, order2 = _ngram_counts([[7, 7, 7, 7], [7, 8]], [[7, 7], [8, 7]], 2)
        assert order1.matches.tolist() == [2, 2]
        assert order2.matches.tolist() == [1, 0]
        assert (order1.distinct, order2.distinct) == (2, 2)  # 7, 8; (7, 7), (7, 8)

    def test_ids_that_differ_only_in_high_bits_stay_apart(self):
        big = 2 ** 40
        assert _ngram_counts([[big, 1]], [[big + 1, 1]], 2)[0].matches.tolist() == [1]
        assert distinct_n([[big, big + 2 ** 32, -big]], n=1) == 1.0

    def test_ids_past_64_bits_are_rejected(self):
        with pytest.raises(ContractError, match="64 bits"):
            bleu_corpus([[2 ** 63]], [[1]])


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
        gens = generate_batch(params, examples,
                              max_len=small_config.model.max_response)
        plain = evaluate(params, examples, small_config)
        oracle = evaluate(params, examples, small_config, oracle_knowledge=True)
        assert plain.perplexity == perplexity(params, examples, picks=[g.s for g in gens])
        assert oracle.perplexity == perplexity(
            params, examples, picks=[ex.gold_index for ex in examples])

    def test_tokens_after_a_reference_s_first_eos_count_nowhere(self, small_corpus,
                                                                small_config, small_trained):
        from dataclasses import replace
        params, examples = small_trained.best_params, small_corpus.test
        padded = [replace(ex, response=ex.response + ex.response) for ex in examples]
        assert evaluate(params, padded, small_config) == evaluate(params, examples, small_config)

    def test_empty_corpus_rejected(self, small_config, small_trained):
        with pytest.raises(ContractError):
            evaluate(small_trained.best_params, [], small_config)

    def test_ngram_fields_equal_the_standalone_functions(self, small_corpus, small_config,
                                                         small_trained):
        from spi.generation import generate_batch
        from spi.metrics import _strip_eos
        params, examples = small_trained.best_params, small_corpus.test
        gens = generate_batch(params, examples,
                              max_len=small_config.model.max_response)
        report = evaluate(params, examples, small_config)
        cands = [_strip_eos(g.tokens) for g in gens]
        refs = [_strip_eos(list(ex.response)) for ex in examples]
        assert report.bleu3 == bleu_corpus(cands, refs, max_n=3)
        assert report.bleu4 == bleu_corpus(cands, refs, max_n=4)
        assert report.rouge1 == rouge_n(cands, refs, n=1)
        assert report.rouge2 == rouge_n(cands, refs, n=2)
        assert report.distinct1 == distinct_n(cands, n=1)
        assert report.distinct2 == distinct_n(cands, n=2)

    @given(st.lists(st.tuples(st.lists(st.integers(4, 12), max_size=8), token_seq),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_ngram_fields_equal_the_standalone_functions_on_any_corpus(self, pairs):
        # an empty candidate is a generation that was a lone EOS
        cands = [list(c) for c, _ in pairs]
        refs = [list(r) for _, r in pairs]
        assert _ngram_fields(cands, refs) == {
            "bleu3": bleu_corpus(cands, refs, max_n=3), "bleu4": bleu_corpus(cands, refs),
            "rouge1": rouge_n(cands, refs, n=1), "rouge2": rouge_n(cands, refs, n=2),
            "distinct1": distinct_n(cands, n=1), "distinct2": distinct_n(cands, n=2)}

    @pytest.mark.parametrize("oracle", [False, True])
    def test_a_chunk_reuses_its_pick_s_prior_means_and_counts_tokens_once(self, monkeypatch,
                                                                          oracle):
        corpus = generate_corpus(SyntheticSpec(n_train=1, n_valid=1, n_test=5, seed=0))
        config = SpiConfig(model=ModelConfig(vocab_size=corpus.vocab.size))
        params = ModelParams.init(config.model, seed=0)
        calls = []

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(generation, "latent_prior_means")
        counted(metrics, "latent_prior_means")
        counted(metrics, "scored_tokens")
        report = evaluate(params, corpus.test, config, oracle_knowledge=oracle)
        # one product for the picks' means, and one more for the gold lanes
        assert calls.count("latent_prior_means") == (2 if oracle else 1)
        assert calls.count("scored_tokens") == 1
        picks = [ex.gold_index for ex in corpus.test] if oracle else [
            g.s for g in generation.generate_batch(params, corpus.test)]
        assert report.perplexity == perplexity(params, corpus.test, picks=picks)

    def test_a_response_past_the_cap_names_its_example_before_any_decode(self, tiny_corpus,
                                                                          monkeypatch):
        from dataclasses import replace
        config = SpiConfig(model=ModelConfig(vocab_size=tiny_corpus.vocab.size))
        params = ModelParams.init(config.model, seed=0)
        examples = list(tiny_corpus.test)
        examples[2] = replace(examples[2], response=[5] * 40 + [EOS])

        def decoded(*args, **kwargs):
            raise AssertionError("a decode ran before the responses were checked")

        monkeypatch.setattr(metrics, "encode_and_pick", decoded)
        monkeypatch.setattr(metrics, "_score_picks", decoded)
        for run in (lambda: evaluate(params, examples, config),
                    lambda: perplexity(params, examples, picks=[0] * len(examples))):
            with pytest.raises(ContractError, match=r"^example 2: response of length 41 "
                                                    r"exceeds the cap 32$"):
                run()

    def test_unlabelled_examples_report_no_selection_accuracy(self, small_corpus,
                                                              small_config, small_trained):
        from dataclasses import replace
        params, examples = small_trained.best_params, small_corpus.test
        unlabelled = [replace(ex, gold_index=None) for ex in examples]
        plain = evaluate(params, examples, small_config)
        report = evaluate(params, unlabelled, small_config)
        assert report.selection_accuracy is None
        assert report.to_dict()["selection_accuracy"] is None
        assert report == replace(plain, selection_accuracy=None)
        with pytest.raises(ContractError, match="gold"):
            evaluate(params, unlabelled, small_config, oracle_knowledge=True)
