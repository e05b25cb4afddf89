"""Greedy generation: no reference leakage, length cap, tie handling."""
from __future__ import annotations

import json

import numpy as np
import pytest

from spi import generation, model
from spi.autodiff import Tensor
from spi.config import ModelConfig
from spi.errors import ContractError, NumericError
from spi.generation import generate, generate_batch, pick_knowledge, write_generations
from spi.model import (EOS, DialogueExample, ModelParams, encode_batch, encode_context,
                       latent_prior_means)


def tiny_cfg(vocab_size=10):
    return ModelConfig(vocab_size=vocab_size, embed_dim=4, hidden_dim=5,
                       att_dim=3, dec_hidden_dim=5, latent_dim=2,
                       max_history=8, max_candidate=6, max_response=8)


def make_example(cands=((6, 7), (7, 6)), hist=(4, 5), resp=(6, 7, EOS), gold=0):
    return DialogueExample(history=list(hist),
                           candidates=[list(c) for c in cands],
                           gold_index=gold, response=list(resp))


def pick_one(params, example, prior):
    """``pick_knowledge`` of one example, every candidate a lane of one pass."""
    return pick_knowledge(params, [encode_context(params, example)], prior=prior)[0]


class TestPickKnowledge:
    def test_argmax_of_initializer_scores(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        heads = []

        def logits(params, head, encodings):
            heads.append(head)
            return Tensor(np.array([2.2, -2.2, 40.0]))

        monkeypatch.setattr(model, "head_logits", logits)
        assert pick_one(p, ex, "uniform") == 2
        assert heads == ["initializer"]
        # the pick is the argmax of the scores, the sigmoid of the logits: two
        # logits past where it rounds to 1 tie, and the lower index wins
        monkeypatch.setattr(model, "head_logits",
                            lambda *a: Tensor(np.array([0.0, 40.0, 41.0])))
        assert pick_one(p, ex, "uniform") == 1

    def test_ties_resolve_to_lowest_index(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        p["init_w"].data[:] = 0.0
        p["init_b"].data[()] = 0.0
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        assert pick_one(p, ex, "uniform") == 0

    def test_single_candidate_is_chosen(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7),))
        for prior in ("uniform", "learnable"):
            assert pick_one(p, ex, prior) == 0

    def test_learnable_mode_uses_the_prior_head(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6)))
        heads = []

        def logits(params, head, encodings):
            heads.append(head)
            return Tensor(np.array([-2.0, 1.5]))

        monkeypatch.setattr(model, "head_logits", logits)
        assert pick_one(p, ex, "learnable") == 1
        assert heads == ["knowledge_prior"]

    def test_unknown_prior_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        with pytest.raises(ContractError):
            pick_one(p, make_example(), "flat")


class TestGenerate:
    def test_reference_response_never_leaks(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(resp=(6, 7, EOS))
        garbage = make_example(resp=(5, EOS))
        a = generate(p, ex, prior="uniform")
        b = generate(p, garbage, prior="uniform")
        assert a.s == b.s
        assert a.tokens == b.tokens
        assert a.logprobs == b.logprobs
        assert np.array_equal(a.z, b.z)

    def test_output_always_ends_with_eos(self):
        for seed in range(5):
            p = ModelParams.init(tiny_cfg(), seed=seed)
            out = generate(p, make_example(), prior="uniform", max_len=6)
            assert out.tokens[-1] == EOS
            assert len(out.tokens) <= 6

    def test_eos_is_forced_at_the_cap(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        p["out_b"].data[EOS] = -1e3  # the model never wants to stop
        out = generate(p, make_example(), prior="uniform", max_len=4)
        assert len(out.tokens) == 4
        assert out.tokens[-1] == EOS
        assert out.logprobs[-1] < -100.0  # the forced token was improbable

    def test_the_cap_defaults_to_the_model_s(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        p["out_b"].data[EOS] = -1e3
        assert len(generate(p, make_example(), prior="uniform").tokens) == 8
        batch = generate_batch(p, [make_example()] * 2, prior="uniform")
        assert [len(r.tokens) for r in batch] == [8, 8]

    def test_logprobs_are_nonpositive_and_aligned(self):
        p = ModelParams.init(tiny_cfg(), seed=3)
        out = generate(p, make_example(), prior="uniform")
        assert len(out.logprobs) == len(out.tokens)
        assert all(lp <= 0.0 for lp in out.logprobs)

    def test_latent_is_the_prior_mean_of_the_pick(self):
        p = ModelParams.init(tiny_cfg(), seed=3)
        ex = make_example()
        out = generate(p, ex, prior="uniform")
        from spi.model import latent_prior_mean
        np.testing.assert_array_equal(out.z, latent_prior_mean(p, ex, out.s).data)

    def test_uniform_logit_shift_changes_nothing(self):
        p = ModelParams.init(tiny_cfg(), seed=9)
        ex = make_example()
        plain = generate(p, ex, prior="uniform")
        q = p.copy()
        q["out_b"].data += 3.7  # common shift; softmax is shift-invariant
        shifted = generate(q, ex, prior="uniform")
        assert plain.tokens == shifted.tokens
        np.testing.assert_allclose(plain.logprobs, shifted.logprobs, atol=1e-12)

    def test_repeated_calls_are_bit_identical(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        a = generate(p, make_example(), prior="uniform")
        b = generate(p, make_example(), prior="uniform")
        assert a.s == b.s
        assert a.tokens == b.tokens
        assert a.logprobs == b.logprobs
        assert np.array_equal(a.z, b.z)

    def test_leaves_made_do_not_grow_with_the_tokens_decoded(self, monkeypatch):
        # primitive results are wrapped without the constructor, so a decode
        # makes the same caller leaves however many tokens it runs
        p = ModelParams.init(tiny_cfg(), seed=7)
        p["out_b"].data[EOS] = -1e3  # the decode runs to either cap
        made = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        counts = {}
        for max_len in (2, 8):
            made.clear()
            out = generate(p, make_example(), prior="uniform", max_len=max_len)
            assert len(out.tokens) == max_len
            counts[max_len] = len(made)
        assert counts[2] == counts[8]

    def test_max_len_below_one_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        with pytest.raises(ContractError):
            generate(p, make_example(), prior="uniform", max_len=0)

    def test_max_len_one_yields_a_lone_eos(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        out = generate(p, make_example(), prior="uniform", max_len=1)
        assert out.tokens == [EOS]


def _ragged_examples():
    """Examples whose lanes retire at different steps under ``_ragged_params``."""
    return [make_example(cands=((6, 7), (7, 6))),
            make_example(hist=(), cands=((8,), (5, 4, 9))),
            make_example(hist=(9, 8, 7, 6, 5, 4, 9, 8, 7, 6), cands=((6,), (7,) * 8)),
            make_example(hist=(4,), cands=((5,), (5,))),
            make_example(hist=(7, 7), cands=((9, 9, 9), (4,)))]


def _ragged_params():
    p = ModelParams.init(tiny_cfg(), seed=4, scale=0.8)
    p["out_b"].data[EOS] += 1.0
    return p


@pytest.fixture
def step_logits(monkeypatch):
    """Every greedy step's logits, (lanes, V), as ``output_logits`` gave them."""
    seen = []
    real = generation.output_logits

    def spying(params, state, ctx):
        out = real(params, state, ctx)
        seen.append(out.data.reshape(-1, out.shape[-1]).copy())
        return out

    monkeypatch.setattr(generation, "output_logits", spying)
    return seen


class TestGreedyDecode:
    """The greedy loop takes only argmaxes; the log-probabilities and the
    finiteness check are read off the stacked step logits afterwards."""

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_a_non_finite_output_names_the_first_step_that_has_one(self, lanes,
                                                                   monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=7)
        p["out_b"].data[EOS] = -1e3  # every lane runs to the cap
        steps = []
        real = generation.output_logits

        def poisoned(params, state, ctx):
            out = real(params, state, ctx)
            if len(steps) in (3, 5):  # the last lane's last logit
                out.data.reshape(-1)[-1] = np.nan if len(steps) == 3 else np.inf
            steps.append(out)
            return out

        monkeypatch.setattr(generation, "output_logits", poisoned)
        examples = [make_example(), make_example(hist=(6,)), make_example(hist=())][:lanes]
        with pytest.raises(NumericError, match=r"output at generation step 3 is non-finite"):
            generate_batch(p, examples, prior="uniform", max_len=8)

    @pytest.mark.parametrize("lanes", [1, 5])
    def test_logprobs_are_each_steps_log_softmax_to_the_bit(self, lanes, step_logits):
        p = _ragged_params()
        examples = _ragged_examples()[:lanes]
        results = generate_batch(p, examples, prior="uniform", max_len=6)
        assert len(step_logits) == max(len(r.tokens) for r in results)
        if lanes > 1:  # the lanes retire at different steps
            assert len({len(r.tokens) for r in results}) >= 3
        for lane, result in enumerate(results):
            want = []
            for logits, token in zip(step_logits, result.tokens):
                # the per-step formula of a loop that scores as it goes
                shifted = logits - logits.max(axis=1, keepdims=True)
                want.append(float(shifted[lane, token]
                                  - np.log(np.exp(shifted).sum(axis=1))[lane]))
            assert result.logprobs == want


class TestBatchAndOutput:
    def test_batch_matches_individual_calls(self):
        # weights under which the lanes retire at different steps, some at the
        # cap; ragged histories and candidates, one example given twice
        p = _ragged_params()
        examples = _ragged_examples() + [make_example(hist=(5, 6, 7), cands=((8, 8), (6,)))]
        examples.append(examples[1])
        uncapped = [len(generate(p, ex, prior="uniform", max_len=32).tokens)
                    for ex in examples]
        assert len(set(uncapped)) >= 3 and min(uncapped) == 1 and max(uncapped) > 6
        passes = encode_batch(p, examples)
        for prior in ("uniform", "learnable"):
            for max_len in (1, 3, 6):
                batch = generate_batch(p, examples, prior=prior, max_len=max_len)
                singles = [generate(p, ex, prior=prior, max_len=max_len) for ex in examples]
                # the batch's latents are exactly the prior means of its picks
                # from one product; a lone example's is exactly its own prior
                # mean, a one-row product with the bits of the vector product
                means = latent_prior_means(p, [encs[g.s] for encs, g in zip(passes, batch)])
                for ex, got, want, mean in zip(examples, batch, singles, means.data):
                    assert got.tokens == want.tokens
                    assert got.s == want.s
                    assert np.array_equal(got.z, mean)
                    assert np.array_equal(want.z, latent_prior_means(
                        p, [encode_context(p, ex)[want.s]]).data[0])
                    # the batch's prefix rows are one matrix product where a lone
                    # example's are vector products, which may round differently
                    np.testing.assert_allclose(got.z, want.z, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.logprobs, want.logprobs, rtol=0, atol=1e-12)
        # at the cap of 6 some lanes are forced to EOS and others retired before
        capped = [len(r.tokens) for r in generate_batch(p, examples, prior="uniform",
                                                         max_len=6)]
        assert any(n == 6 < u for n, u in zip(capped, uncapped))
        assert any(n < 6 for n in capped)

    def test_empty_batch_gives_no_results(self):
        assert generate_batch(ModelParams.init(tiny_cfg(), seed=2), [], prior="uniform") == []

    def test_written_file_round_trips(self, tmp_path):
        p = ModelParams.init(tiny_cfg(), seed=2)
        examples = [make_example(), make_example(cands=((5, 4), (4, 5)), gold=1)]
        results = generate_batch(p, examples, prior="uniform")
        path = tmp_path / "gen.jsonl"
        write_generations(path, results)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["id"] for r in lines] == [0, 1]
        for record, result in zip(lines, results):
            assert record["s"] == result.s
            assert record["tokens"] == result.tokens
            assert record["logprobs"] == pytest.approx(result.logprobs)
