"""Greedy generation: no reference leakage, length cap, tie handling."""
from __future__ import annotations

import json

import numpy as np
import pytest

from spi import generation
from spi.autodiff import Tensor
from spi.config import ModelConfig
from spi.errors import ContractError
from spi.generation import (generate, generate_batch, select_for_generation,
                            write_generations)
from spi.model import EOS, DialogueExample, ModelParams


def tiny_cfg(vocab_size=10):
    return ModelConfig(vocab_size=vocab_size, embed_dim=4, hidden_dim=5,
                       att_dim=3, dec_hidden_dim=5, latent_dim=2,
                       max_history=8, max_candidate=6, max_response=8)


def make_example(cands=((6, 7), (7, 6)), hist=(4, 5), resp=(6, 7, EOS), gold=0):
    return DialogueExample(history=list(hist),
                           candidates=[list(c) for c in cands],
                           gold_index=gold, response=list(resp))


class TestSelectForGeneration:
    def test_argmax_of_initializer_scores(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        monkeypatch.setattr(generation, "initializer_scores",
                            lambda *a, **k: np.array([0.9, 0.1, 0.1]))
        assert select_for_generation(p, ex, prior="uniform") == 0

    def test_ties_resolve_to_lowest_index(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        p["init_w"].data[:] = 0.0
        p["init_b"].data[()] = 0.0
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        assert select_for_generation(p, ex, prior="uniform") == 0

    def test_single_candidate_is_chosen(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7),))
        for prior in ("uniform", "learnable"):
            assert select_for_generation(p, ex, prior=prior) == 0

    def test_learnable_mode_uses_the_prior_head(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6)))
        monkeypatch.setattr(generation, "knowledge_prior_logits",
                            lambda *a, **k: Tensor(np.array([-2.0, 1.5])))
        assert select_for_generation(p, ex, prior="learnable") == 1

    def test_unknown_prior_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        with pytest.raises(ContractError):
            select_for_generation(p, make_example(), prior="flat")


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

    def test_max_len_below_one_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        with pytest.raises(ContractError):
            generate(p, make_example(), prior="uniform", max_len=0)

    def test_max_len_one_yields_a_lone_eos(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        out = generate(p, make_example(), prior="uniform", max_len=1)
        assert out.tokens == [EOS]


class TestBatchAndOutput:
    def test_batch_matches_individual_calls(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        examples = [make_example(), make_example(cands=((5, 4), (4, 5)), gold=1)]
        batch = generate_batch(p, examples, prior="uniform")
        singles = [generate(p, ex, prior="uniform") for ex in examples]
        assert [r.tokens for r in batch] == [r.tokens for r in singles]

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
