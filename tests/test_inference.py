"""Posterior selection and short-run Langevin behavior."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import inference
from spi.autodiff import Tensor
from spi.config import ModelConfig, SpiConfig, derived_rng
from spi.errors import ContractError, NumericError
from spi.inference import (LangevinTrace, decoder_grad_z,
                           langevin_chain, langevin_infer_z, log_sum_exp,
                           select_knowledge, sequential_posterior_infer,
                           top_s_candidates)
from spi.model import EOS, DialogueExample, ModelParams, latent_prior_mean


def tiny_cfg(vocab_size=10):
    return ModelConfig(vocab_size=vocab_size, embed_dim=4, hidden_dim=5,
                       att_dim=3, dec_hidden_dim=5, latent_dim=2,
                       max_history=8, max_candidate=6, max_response=8)


def make_example(cands, hist=(4, 5), resp=(6, 7, EOS), gold=0):
    return DialogueExample(history=list(hist),
                           candidates=[list(c) for c in cands],
                           gold_index=gold, response=list(resp))


class TestLogSumExp:
    def test_matches_direct_sum(self):
        vals = np.array([-1.0, 0.5, 2.0])
        assert log_sum_exp(vals) == pytest.approx(math.log(np.exp(vals).sum()), abs=1e-12)

    def test_shift_invariance(self):
        vals = np.array([-900.0, -901.0, -905.0])
        shifted = vals + 900.0
        assert log_sum_exp(vals) + 900.0 == pytest.approx(log_sum_exp(shifted), abs=1e-9)

    def test_huge_magnitudes_stay_finite(self):
        assert np.isfinite(log_sum_exp(np.array([-5000.0, -5001.0])))

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            log_sum_exp(np.array([np.nan, 0.0]))


class TestSelection:
    def test_identical_candidates_share_weight_equally(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (6, 7), (6, 7)))
        out = select_knowledge(p, ex, prior="uniform")
        np.testing.assert_allclose(np.exp(out.log_weights), [1 / 3] * 3, atol=1e-12)
        assert out.chosen == 0

    def test_log3_likelihood_gap_gives_three_quarters(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6)))
        gap = math.log(3.0)

        def fixed_loglik(params, example, indices, z, encoded=None):
            return Tensor([0.0 if s == 0 else -gap for s in indices])

        monkeypatch.setattr(inference, "decode_logprob", fixed_loglik)
        out = select_knowledge(p, ex, prior="uniform")
        np.testing.assert_allclose(np.exp(out.log_weights), [0.75, 0.25], atol=1e-12)
        assert out.chosen == 0

    def test_constant_likelihood_shift_leaves_weights_alone(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        base = {0: -1.3, 1: -0.2, 2: -2.9}

        def loglik_at(shift):
            return lambda params, example, indices, z, encoded=None: \
                Tensor([base[s] + shift for s in indices])

        monkeypatch.setattr(inference, "decode_logprob", loglik_at(0.0))
        plain = select_knowledge(p, ex, prior="uniform")
        monkeypatch.setattr(inference, "decode_logprob", loglik_at(-700.0))
        shifted = select_knowledge(p, ex, prior="uniform")
        np.testing.assert_allclose(plain.log_weights, shifted.log_weights, atol=1e-9)
        assert plain.chosen == shifted.chosen

    @pytest.mark.parametrize("prior", ["uniform", "learnable"])
    def test_weights_normalize(self, prior):
        p = ModelParams.init(tiny_cfg(), seed=3)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4), (4, 4)))
        out = select_knowledge(p, ex, prior=prior)
        assert abs(np.exp(out.log_weights).sum() - 1.0) <= 1e-10

    def test_learnable_prior_tilts_selection(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=3)
        ex = make_example(cands=((6, 7), (7, 6)))

        def flat_loglik(params, example, indices, z, encoded=None):
            return Tensor(np.full(len(indices), -1.0))

        def tilted_logits(params, example, *, encodings=None):
            return Tensor(np.array([0.0, 2.0]))

        monkeypatch.setattr(inference, "decode_logprob", flat_loglik)
        monkeypatch.setattr(inference, "knowledge_prior_logits", tilted_logits)
        out = select_knowledge(p, ex, prior="learnable")
        assert out.chosen == 1
        np.testing.assert_allclose(
            np.exp(out.log_weights),
            np.exp([0.0, 2.0]) / np.exp([0.0, 2.0]).sum(), atol=1e-12)

    def test_top_s_restricts_the_evaluated_set(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        out = select_knowledge(p, ex, prior="uniform", top_s=2)
        assert len(out.evaluated) == 2
        assert out.chosen in out.evaluated

    def test_top_s_with_learnable_prior_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        ex = make_example(cands=((6, 7), (7, 6)))
        with pytest.raises(ContractError):
            select_knowledge(p, ex, prior="learnable", top_s=1)

    def test_temperature_flattens_weights(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6)))

        def fixed_loglik(params, example, indices, z, encoded=None):
            return Tensor([0.0 if s == 0 else -2.0 for s in indices])

        monkeypatch.setattr(inference, "decode_logprob", fixed_loglik)
        sharp = select_knowledge(p, ex, prior="uniform", temperature=1.0)
        flat = select_knowledge(p, ex, prior="uniform", temperature=10.0)
        assert np.exp(flat.log_weights)[0] < np.exp(sharp.log_weights)[0]
        np.testing.assert_allclose(np.exp(flat.log_weights),
                                   np.exp([0.0, -0.2]) / np.exp([0.0, -0.2]).sum(),
                                   atol=1e-12)

    def test_sampled_mode_is_seeded(self):
        p = ModelParams.init(tiny_cfg(), seed=4)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        a = select_knowledge(p, ex, prior="uniform", mode="sampled",
                             rng=np.random.default_rng(11))
        b = select_knowledge(p, ex, prior="uniform", mode="sampled",
                             rng=np.random.default_rng(11))
        assert a.chosen == b.chosen
        assert a.chosen in a.evaluated

    def test_bad_arguments_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=4)
        ex = make_example(cands=((6, 7), (7, 6)))
        with pytest.raises(ContractError):
            select_knowledge(p, ex, prior="flat")
        with pytest.raises(ContractError):
            select_knowledge(p, ex, prior="uniform", mode="beam")
        with pytest.raises(ContractError):
            select_knowledge(p, ex, prior="uniform", temperature=0.0)
        with pytest.raises(ContractError):
            select_knowledge(p, make_example(cands=((6, 7),), resp=()), prior="uniform")


class TestTopS:
    def test_equal_scores_keep_lowest_indices(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        p["init_w"].data[:] = 0.0
        p["init_b"].data[()] = 0.0
        ex = make_example(cands=((6, 7), (7, 6), (5, 4), (4, 5)))
        assert top_s_candidates(p, ex, 2) == [0, 1]

    def test_full_width_returns_all(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        assert top_s_candidates(p, ex, 3) == [0, 1, 2]

    def test_result_is_ascending(self):
        p = ModelParams.init(tiny_cfg(), seed=9)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4), (4, 5), (6, 6)))
        picked = top_s_candidates(p, ex, 3)
        assert picked == sorted(picked)

    def test_out_of_range_widths_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6)))
        for bad in (0, 3):
            with pytest.raises(ContractError):
                top_s_candidates(p, ex, bad)


class TestLangevinChain:
    def test_zero_steps_noise_off_returns_mean(self):
        mu = np.array([0.4, -1.2])
        trace = langevin_chain(mu, lambda z: np.zeros(2), steps=0,
                               step_size=0.1, noise=False)
        assert len(trace.states) == 1
        assert np.array_equal(trace.final, mu)

    def test_trace_has_steps_plus_one_states(self):
        mu = np.zeros(3)
        trace = langevin_chain(mu, lambda z: np.zeros(3), steps=7,
                               step_size=0.05, rng=np.random.default_rng(0))
        assert len(trace.states) == 8
        assert len(trace.drift_norms) == 7

    def test_single_drift_step_frozen_value(self):
        mu = np.array([1.0, 0.0, 0.0])
        trace = langevin_chain(mu, lambda z: np.zeros(3), steps=1,
                               step_size=0.1, noise=False, z0=np.zeros(3))
        assert np.array_equal(trace.final, np.array([0.1, 0.0, 0.0]))

    def test_zero_step_size_freezes_the_chain(self):
        mu = np.array([2.0, -1.0])
        z0 = np.array([5.0, 5.0])
        trace = langevin_chain(mu, lambda z: np.ones(2), steps=4,
                               step_size=0.0, noise=False, z0=z0)
        for state in trace.states:
            assert np.array_equal(state, z0)

    @given(step=st.floats(min_value=0.01, max_value=1.0), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_noise_free_contraction_toward_mean(self, step, seed):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=4)
        z0 = rng.normal(size=4) * 3.0
        trace = langevin_chain(mu, lambda z: np.zeros(4), steps=6,
                               step_size=step, noise=False, z0=z0)
        dists = [np.linalg.norm(s - mu) for s in trace.states]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-12

    def test_noise_requires_generator(self):
        with pytest.raises(ContractError):
            langevin_chain(np.zeros(2), lambda z: np.zeros(2), steps=1,
                           step_size=0.1, noise=True)

    def test_seeded_chains_agree_bitwise(self):
        mu = np.array([0.3, 0.7])
        runs = [langevin_chain(mu, lambda z: -z, steps=5, step_size=0.1,
                               rng=np.random.default_rng(42)) for _ in range(2)]
        for a, b in zip(runs[0].states, runs[1].states):
            assert np.array_equal(a, b)

    def test_gradient_clamp_bounds_the_drift(self):
        mu = np.zeros(1)
        trace = langevin_chain(mu, lambda z: np.array([1e9]), steps=1,
                               step_size=1.0, noise=False, z0=np.zeros(1),
                               grad_clamp=100.0)
        assert trace.final[0] == 100.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ContractError):
            langevin_chain(np.zeros(2), lambda z: np.zeros(2), steps=-1,
                           step_size=0.1, noise=False)
        with pytest.raises(ContractError):
            langevin_chain(np.zeros(2), lambda z: np.zeros(2), steps=1,
                           step_size=-0.1, noise=False)
        with pytest.raises(ContractError):
            langevin_chain(np.zeros(2), lambda z: np.zeros(2), steps=1,
                           step_size=0.1, noise=False, z0=np.zeros(3))
        with pytest.raises(ContractError):
            langevin_chain(np.zeros(2), lambda z: np.zeros(3), steps=1,
                           step_size=0.1, noise=False)

    def test_divergence_names_the_step(self):
        with pytest.raises(NumericError, match="step"):
            langevin_chain(np.zeros(2), lambda z: np.full(2, 100.0), steps=3,
                           step_size=1e306, noise=False, z0=np.ones(2))


class TestLangevinOnModel:
    def test_detached_latent_has_zero_decoder_gradient(self):
        cfg = tiny_cfg()
        p = ModelParams.init(cfg, seed=5)
        p["zslot_w"].data[:] = 0.0
        ex = make_example(cands=((6, 7), (7, 6)))
        grad = decoder_grad_z(p, ex, 0, np.ones(cfg.latent_dim))
        np.testing.assert_array_equal(grad, np.zeros(cfg.latent_dim))

    def test_decoder_gradient_matches_finite_differences(self):
        cfg = tiny_cfg()
        p = ModelParams.init(cfg, seed=5)
        ex = make_example(cands=((6, 7), (7, 6)))
        z = np.full(cfg.latent_dim, 0.4)
        grad = decoder_grad_z(p, ex, 0, z)
        from spi.model import decode_logprob
        h = 1e-5
        for j in range(cfg.latent_dim):
            hi, lo = z.copy(), z.copy()
            hi[j] += h
            lo[j] -= h
            fd = (float(decode_logprob(p, ex, 0, hi).data)
                  - float(decode_logprob(p, ex, 0, lo).data)) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-7)

    def test_one_step_from_crafted_prior_mean(self):
        cfg = tiny_cfg()
        p = ModelParams.init(cfg, seed=5)
        p["zslot_w"].data[:] = 0.0          # decoder ignores z
        p["zprior_w"].data[:] = 0.0
        p["zprior_b"].data[:] = 0.0
        p["zprior_b"].data[0] = 1.0         # prior mean is the first basis vector
        ex = make_example(cands=((6, 7),))
        trace = langevin_infer_z(p, ex, 0, steps=1, step_size=0.1, noise=False,
                                 z0=np.zeros(cfg.latent_dim))
        expected = np.zeros(cfg.latent_dim)
        expected[0] = 0.1
        assert np.array_equal(trace.final, expected)

    def test_noise_off_chain_starts_at_prior_mean(self):
        cfg = tiny_cfg()
        p = ModelParams.init(cfg, seed=6)
        ex = make_example(cands=((6, 7), (7, 6)))
        trace = langevin_infer_z(p, ex, 1, steps=0, step_size=0.1, noise=False)
        mu = latent_prior_mean(p, ex, 1).data
        assert np.array_equal(trace.final, mu)


class TestSequentialPosterior:
    def config(self, **kw):
        base = dict(top_s=2, langevin_steps=3, step_size=0.1, seed=0)
        base.update(kw)
        return SpiConfig(model=tiny_cfg(), **base)

    def test_single_candidate_is_always_chosen(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7),))
        for prior in ("uniform", "learnable"):
            pair = sequential_posterior_infer(p, ex, self.config(prior=prior))
            assert pair.s == 0

    def test_repeated_calls_agree_bitwise(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        cfg = self.config()
        a = sequential_posterior_infer(p, ex, cfg)
        b = sequential_posterior_infer(p, ex, cfg)
        assert a.s == b.s
        assert np.array_equal(a.z, b.z)

    def test_explicit_generator_controls_the_draw(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        cfg = self.config()
        a = sequential_posterior_infer(p, ex, cfg, rng=derived_rng(3, 1))
        b = sequential_posterior_infer(p, ex, cfg, rng=derived_rng(3, 1))
        c = sequential_posterior_infer(p, ex, cfg, rng=derived_rng(4, 1))
        assert np.array_equal(a.z, b.z)
        assert not np.array_equal(a.z, c.z)

    def test_noise_off_zero_steps_returns_prior_mean(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        cfg = self.config(langevin_steps=0, langevin_noise=False)
        pair = sequential_posterior_infer(p, ex, cfg)
        mu = latent_prior_mean(p, ex, pair.s).data
        assert np.array_equal(pair.z, mu)

    def test_top_s_wider_than_candidate_set_is_clamped(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        pair = sequential_posterior_infer(p, ex, self.config(top_s=5))
        assert pair.s in (0, 1)
