"""The verification suites themselves, plus negative controls proving the
suites can actually catch the defects they exist to catch."""
from __future__ import annotations

import re

import numpy as np
import pytest

from spi import autodiff as ad
from spi import inference, verify
from spi.config import derived_rng
from spi.inference import top_s_candidates
from spi.model import EOS, DialogueExample, ModelParams, decode_logprob, encode_context
from spi.verify import (CheckResult, check_determinism, check_gradients,
                        check_langevin, check_lockstep, check_selection,
                        naive_response_logprob, naive_select, naive_top_s)


class TestCheckResult:
    def test_line_format(self):
        assert CheckResult("x", True, "ok").line() == "[PASS] x: ok"
        assert CheckResult("x", False, "bad").line() == "[FAIL] x: bad"


class TestNaiveOracle:
    def test_agrees_with_the_taped_decoder(self):
        rng = derived_rng(99, 1)
        for seed in range(5):
            cfg = verify._tiny_model_config()
            params = ModelParams.init(cfg, seed=seed)
            example = verify._random_example(rng, cfg.vocab_size)
            z = rng.normal(size=cfg.latent_dim)
            # tokens after the first EOS are padding to both
            padded = DialogueExample(example.history, example.candidates,
                                     example.gold_index, example.response + [5, EOS])
            for s in range(len(example.candidates)):
                naive = naive_response_logprob(params, example, s, z)
                taped = float(decode_logprob(params, example, s, z).data)
                assert naive == pytest.approx(taped, abs=1e-10)
                assert naive_response_logprob(params, padded, s, z) == naive
                assert float(decode_logprob(params, padded, s, z).data) == taped

    def test_naive_select_prefers_lowest_index_on_ties(self):
        rng = derived_rng(7, 2)
        cfg = verify._tiny_model_config()
        params = ModelParams.init(cfg, seed=0)
        example = verify._random_example(rng, cfg.vocab_size, m=3)
        example.candidates = [list(example.candidates[0])] * 3
        assert naive_select(params, example, "uniform") == 0

    def test_naive_top_s_full_width_is_identity(self):
        rng = derived_rng(7, 3)
        cfg = verify._tiny_model_config()
        params = ModelParams.init(cfg, seed=1)
        example = verify._random_example(rng, cfg.vocab_size, m=4)
        assert naive_top_s(params, example, 4) == [0, 1, 2, 3]


    @pytest.mark.parametrize("bias", [-1e4, 1e4])
    def test_naive_top_s_of_a_saturated_initializer(self, bias):
        # every sigmoid saturates to the same value: ties, lowest indices first
        rng = derived_rng(7, 4)
        cfg = verify._tiny_model_config()
        params = ModelParams.init(cfg, seed=2)
        params["init_b"].data[...] = bias
        example = verify._random_example(rng, cfg.vocab_size, m=4)
        assert naive_top_s(params, example, 2) == top_s_candidates(params, example, 2) == [0, 1]


class TestSuitesPass:
    def test_gradients(self):
        result = check_gradients(n_seeds=1)
        assert result.passed, result.detail

    def test_langevin(self):
        result = check_langevin(n_seeds=3, steps=4_000, burn_in=1_000, min_passes=3)
        assert result.passed, result.detail

    def test_selection(self):
        result = check_selection(n_instances=20)
        assert result.passed, result.detail

    def test_lockstep(self):
        result = check_lockstep(n_passes=1)
        assert result.passed, result.detail

    def test_determinism(self):
        result = check_determinism()
        assert result.passed, result.detail


class TestNegativeControls:
    def test_sign_flip_in_prior_gradient_is_caught(self, monkeypatch):
        true_vjp = ad._squared_l2_vjp

        def flipped(*args, **kwargs):
            return [-g for g in true_vjp(*args, **kwargs)]

        monkeypatch.setattr(ad, "_squared_l2_vjp", flipped)
        result = check_gradients(n_seeds=1, priors=("uniform",))
        assert not result.passed
        assert "rel err" in result.detail

    def test_wrong_adjoint_under_constant_weights_is_caught(self, monkeypatch):
        # a data input times a weight matrix that needs no gradient: the
        # products of a Langevin chain's decode under ``params.constant()``
        true_vjp = ad._matmul_vjp

        def halved_when_weight_constant(g, a, b, needs):
            ga, gb = true_vjp(g, a, b, needs)
            if needs[0] and not needs[1] and b.ndim == 2:
                ga = 0.5 * ga
            return ga, gb

        monkeypatch.setattr(ad, "_matmul_vjp", halved_when_weight_constant)
        assert not check_gradients(n_seeds=1, priors=("uniform",)).passed
        # whichever of its cases fails first, the chain's own case, the rows
        # decode of one lane in z under the constant view, catches it alone
        cfg = verify._tiny_model_config()
        weights = ModelParams.init(cfg, seed=0).constant()
        example = verify._random_example(derived_rng(9, 1), cfg.vocab_size)
        z = derived_rng(9, 2).normal(size=(1, cfg.latent_dim))
        lane = encode_context(weights, example, [0])

        def loglik(x):
            return ad.reduce_sum(decode_logprob(weights, [example], [0], x, encoded=lane))

        assert not ad.gradcheck(loglik, z, h=1e-4).passed
        monkeypatch.setattr(ad, "_matmul_vjp", true_vjp)
        assert ad.gradcheck(loglik, z, h=1e-4).passed

    def test_wrong_sign_in_the_segment_attention_slot_gradient_is_caught(self, monkeypatch):
        # only the cross-example decode differentiates lockstep slots: in z
        true_vjp = ad._segment_attention_vjp

        def flipped_slots(*args, **kwargs):
            *rest, gs = true_vjp(*args, **kwargs)
            return (*rest, None if gs is None else -gs)

        monkeypatch.setattr(ad, "_segment_attention_vjp", flipped_slots)
        result = check_gradients(n_seeds=1, priors=("uniform",))
        assert not result.passed
        assert "cross-example decode grad wrt z" in result.detail

    def test_a_fused_tanh_that_rounds_apart_from_the_unfused_ops_is_caught(self, monkeypatch):
        # the same function, its product rounded through (x + 1) - 1: the
        # central differences cannot tell, the bits can
        true_matmul = ad.matmul

        def rounded(a, b, plus=None, tanh=False):
            y = true_matmul(a, b, plus=plus)
            if not tanh:
                return y
            one = ad.Tensor(np.ones(y.shape))
            return ad.tanh(ad.sub(ad.add(y, one), one))

        monkeypatch.setattr(verify, "matmul", rounded)
        worst, failure = verify._fused_tanh_failure(0, 1e-4)
        assert worst < 1e-4
        assert "differs from the tanh of the product" in failure

    @staticmethod
    def highest_index_on_ties(monkeypatch, min_examples):
        """Break ties to the highest index in every selection pass of at
        least ``min_examples`` examples that ``check_selection`` makes."""
        true_batch = verify.select_knowledge_batch

        def wrong(params, examples, *args, **kwargs):
            outs = true_batch(params, examples, *args, **kwargs)
            if len(examples) >= min_examples:
                for out in outs:
                    weights = np.asarray(out.log_weights)
                    out.chosen = out.evaluated[max(i for i in range(len(weights))
                                                   if weights[i] >= weights.max() - 1e-12)]
            return outs

        monkeypatch.setattr(verify, "select_knowledge_batch", wrong)

    def test_wrong_tie_break_is_caught(self, monkeypatch):
        self.highest_index_on_ties(monkeypatch, min_examples=1)
        result = check_selection(n_instances=20)
        assert not result.passed
        assert "mismatch" in result.detail
        # an instance is a pass of one, named without an example index
        assert re.search(r"mismatches: instance \d+ prior=uniform: ", result.detail)

    def test_wrong_tie_break_in_a_pass_is_caught(self, monkeypatch):
        # only passes of several examples break ties wrongly
        self.highest_index_on_ties(monkeypatch, min_examples=2)
        result = check_selection(n_instances=20)
        assert not result.passed
        assert "pass 0 example 1" in result.detail

    @pytest.mark.parametrize("noise", [True, False])
    def test_lockstep_chains_on_the_wrong_rows_are_caught(self, monkeypatch, noise):
        true_chains = inference.langevin_infer_z

        def shifted(params, example, s, *, encoded, **chain):
            # the rows' generators (noise) or their examples (no noise) rotated;
            # a lone chain, a batch of one, rotates to itself
            if len(s) > 1 and noise:
                chain["rng"] = chain["rng"][1:] + chain["rng"][:1]
            elif len(s) > 1:
                example, s, encoded = example[1:] + example[:1], s[1:] + s[:1], \
                    encoded[1:] + encoded[:1]
            return true_chains(params, example, s, encoded=encoded, **chain)

        monkeypatch.setattr(inference, "langevin_infer_z", shifted)
        result = check_lockstep(n_passes=1)
        assert not result.passed
        assert "z_T difference" in result.detail or "stream" in result.detail

    def test_biased_langevin_chain_is_caught(self, monkeypatch):
        true_chain = verify.langevin_chain

        def shifted(mu, grad_loglik, **kwargs):
            return true_chain(np.asarray(mu) + 0.5, grad_loglik, **kwargs)

        monkeypatch.setattr(verify, "langevin_chain", shifted)
        result = check_langevin(n_seeds=3, steps=3_000, burn_in=1_000, min_passes=3)
        assert not result.passed
