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
from spi.inference import (decoder_grad_z,
                           langevin_chain, langevin_infer_z, log_sum_exp,
                           select_knowledge_batch, sequential_posterior_infer,
                           top_s_candidates)
from spi.model import (EOS, DialogueExample, ModelParams, decode_logprob, decode_plan,
                       encode_batch, encode_context, latent_prior_mean, latent_prior_means)
from spi.verify import naive_prior_logits, naive_top_s


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


def select(p, ex, rng=None, **settings):
    """``select_knowledge_batch`` of ``ex`` alone, over a pass of every
    candidate of ``ex``, under a config of ``settings`` whose top-S is every
    candidate unless they set one."""
    config = SpiConfig(model=p.cfg, **{"top_s": len(ex.candidates), **settings})
    return select_knowledge_batch(p, [ex], config, [rng],
                                  encodings_batch=[encode_context(p, ex)])[0]


class TestSelection:
    def test_identical_candidates_share_weight_equally(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (6, 7), (6, 7)))
        out = select(p, ex, prior="uniform")
        np.testing.assert_allclose(np.exp(out.log_weights), [1 / 3] * 3, atol=1e-12)
        assert out.chosen == 0

    def test_log3_likelihood_gap_gives_three_quarters(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6)))
        gap = math.log(3.0)

        def fixed_loglik(params, example, indices, z, encoded=None):
            return Tensor([0.0 if s == 0 else -gap for s in indices])

        monkeypatch.setattr(inference, "decode_logprob", fixed_loglik)
        out = select(p, ex, prior="uniform")
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
        plain = select(p, ex, prior="uniform")
        monkeypatch.setattr(inference, "decode_logprob", loglik_at(-700.0))
        shifted = select(p, ex, prior="uniform")
        np.testing.assert_allclose(plain.log_weights, shifted.log_weights, atol=1e-9)
        assert plain.chosen == shifted.chosen

    @pytest.mark.parametrize("prior", ["uniform", "learnable"])
    def test_weights_normalize(self, prior):
        p = ModelParams.init(tiny_cfg(), seed=3)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4), (4, 4)))
        out = select(p, ex, prior=prior)
        assert abs(np.exp(out.log_weights).sum() - 1.0) <= 1e-10

    def test_learnable_prior_tilts_selection(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=3)
        ex = make_example(cands=((6, 7), (7, 6)))

        def flat_loglik(params, example, indices, z, encoded=None):
            return Tensor(np.full(len(indices), -1.0))

        def tilted_logits(params, encodings_batch):
            assert len(encodings_batch) == 1
            return [np.array([0.0, 2.0])]

        monkeypatch.setattr(inference, "decode_logprob", flat_loglik)
        monkeypatch.setattr(inference, "prior_scores", tilted_logits)
        out = select(p, ex, prior="learnable")
        assert out.chosen == 1
        np.testing.assert_allclose(
            np.exp(out.log_weights),
            np.exp([0.0, 2.0]) / np.exp([0.0, 2.0]).sum(), atol=1e-12)

    def test_top_s_restricts_the_evaluated_set(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        out = select(p, ex, prior="uniform", top_s=2)
        assert len(out.evaluated) == 2
        assert out.chosen in out.evaluated

    def test_learnable_prior_with_top_s_1_evaluates_the_head_s_top_1(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        ex = make_example(cands=((6, 7), (7, 6)))
        out = select(p, ex, prior="learnable", top_s=1)
        assert out.evaluated == tuple(naive_top_s(p, ex, 1)) == (out.chosen,)
        assert out.log_weights.tolist() == [0.0]

    def test_temperature_flattens_weights(self, monkeypatch):
        p = ModelParams.init(tiny_cfg(), seed=1)
        ex = make_example(cands=((6, 7), (7, 6)))

        def fixed_loglik(params, example, indices, z, encoded=None):
            return Tensor([0.0 if s == 0 else -2.0 for s in indices])

        monkeypatch.setattr(inference, "decode_logprob", fixed_loglik)
        sharp = select(p, ex, prior="uniform", temperature=1.0)
        flat = select(p, ex, prior="uniform", temperature=10.0)
        assert np.exp(flat.log_weights)[0] < np.exp(sharp.log_weights)[0]
        np.testing.assert_allclose(np.exp(flat.log_weights),
                                   np.exp([0.0, -0.2]) / np.exp([0.0, -0.2]).sum(),
                                   atol=1e-12)

    def test_sampled_mode_is_seeded(self):
        p = ModelParams.init(tiny_cfg(), seed=4)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        a = select(p, ex, np.random.default_rng(11), prior="uniform", selection="sampled")
        b = select(p, ex, np.random.default_rng(11), prior="uniform", selection="sampled")
        assert a.chosen == b.chosen
        assert a.chosen in a.evaluated
        with pytest.raises(ContractError, match="generator"):
            select(p, ex, prior="uniform", selection="sampled")

    def test_a_negative_clamp_is_rejected(self):
        # clip(g, 1, -1) would set every entry to -1, whatever the gradient
        with pytest.raises(ContractError, match="clamp"):
            langevin_chain(np.zeros((1, 2)), lambda z: np.array([[5.0, -5.0]]), steps=1,
                           step_size=0.1, noise=False, grad_clamp=-1.0)
        trace = langevin_chain(np.zeros((1, 2)), lambda z: np.array([[5.0, -5.0]]), steps=1,
                               step_size=0.1, noise=False, grad_clamp=0.0)
        assert np.array_equal(trace.final, np.zeros((1, 2)))

    def test_bad_arguments_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=4)
        ex = make_example(cands=((6, 7), (7, 6)))
        # a bad config is rejected by its own validation, naming the field
        with pytest.raises(ContractError, match="prior"):
            select(p, ex, prior="flat")
        with pytest.raises(ContractError, match="selection"):
            select(p, ex, prior="uniform", selection="beam")
        with pytest.raises(ContractError, match="temperature"):
            select(p, ex, prior="uniform", temperature=0.0)
        with pytest.raises(ContractError, match="top_s"):
            select(p, ex, prior="uniform", top_s=0)
        with pytest.raises(ContractError):
            select(p, make_example(cands=((6, 7),), resp=()), prior="uniform")


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


class TestWidthRule:
    """One rule turns ``config.top_s`` into an example's width, in the
    one-example form and in a pass of examples of 3 and 5 candidates alike,
    under either prior: the selection head's top min(top_s, M)."""

    EXAMPLES = (make_example(cands=((6, 7), (7, 6), (5, 4))),
                make_example(cands=((6, 7), (7, 6), (5, 4), (4, 5), (6, 6)), resp=(5, EOS)))

    @classmethod
    def outcomes(cls, p, config, form):
        if form == "one":
            return [select_knowledge_batch(p, [ex], config,
                                           encodings_batch=[encode_context(p, ex)])[0]
                    for ex in cls.EXAMPLES]
        examples = list(cls.EXAMPLES)
        return select_knowledge_batch(p, examples, config,
                                      encodings_batch=encode_batch(p, examples))

    @classmethod
    def evaluated(cls, p, config, form):
        return [out.evaluated for out in cls.outcomes(p, config, form)]

    @pytest.mark.parametrize("prior", ["uniform", "learnable"])
    @pytest.mark.parametrize("form", ["one", "batch"])
    def test_a_top_s_above_m_evaluates_every_candidate(self, form, prior):
        p = ModelParams.init(tiny_cfg(), seed=2)
        for top_s in (5, 6):
            config = SpiConfig(model=p.cfg, prior=prior, top_s=top_s)
            assert self.evaluated(p, config, form) == [(0, 1, 2), (0, 1, 2, 3, 4)]
        # a width between the two examples' M is each one's own min(top_s, M)
        config = SpiConfig(model=p.cfg, prior=prior, top_s=4)
        assert self.evaluated(p, config, form) == [
            (0, 1, 2), tuple(naive_top_s(p, self.EXAMPLES[1], 4))]

    @pytest.mark.parametrize("prior", ["uniform", "learnable"])
    @pytest.mark.parametrize("form", ["one", "batch"])
    def test_a_top_s_of_2_evaluates_the_initializer_s_top_2(self, form, prior):
        p = ModelParams.init(tiny_cfg(), seed=2)
        want = [tuple(naive_top_s(p, ex, 2)) for ex in self.EXAMPLES]
        assert want == [(0, 2), (2, 3)]  # not the first two indices
        assert self.evaluated(p, SpiConfig(model=p.cfg, prior=prior, top_s=2), form) == want

    @pytest.mark.parametrize("form", ["one", "batch"])
    def test_the_learnable_prior_weights_the_subset_by_its_logits(self, form):
        # the same subset as the uniform prior's, its weights tilted by the
        # head's logits there and normalized over the subset
        p = ModelParams.init(tiny_cfg(), seed=2)
        uniform, learnable = (self.outcomes(p, SpiConfig(model=p.cfg, prior=prior, top_s=2),
                                            form) for prior in ("uniform", "learnable"))
        for ex, flat, tilted in zip(self.EXAMPLES, uniform, learnable):
            assert tilted.evaluated == flat.evaluated
            scaled = flat.log_weights + naive_prior_logits(p, ex)[list(flat.evaluated)]
            np.testing.assert_allclose(tilted.log_weights, scaled - log_sum_exp(scaled),
                                       rtol=0, atol=1e-12)


class TestLangevinChain:
    # one chain is a batch of one: (1, latent) rows and one generator
    def test_zero_steps_noise_off_returns_mean(self):
        mu = np.array([[0.4, -1.2]])
        trace = langevin_chain(mu, lambda z: np.zeros((1, 2)), steps=0,
                               step_size=0.1, noise=False)
        assert len(trace.states) == 1
        assert np.array_equal(trace.final, mu)

    def test_trace_has_steps_plus_one_states(self):
        mu = np.zeros((1, 3))
        trace = langevin_chain(mu, lambda z: np.zeros((1, 3)), steps=7,
                               step_size=0.05, rng=[np.random.default_rng(0)])
        assert len(trace.states) == 8
        assert len(trace.drift_norms) == 7
        assert all(norms.shape == (1,) for norms in trace.drift_norms)

    def test_single_drift_step_frozen_value(self):
        mu = np.array([[1.0, 0.0, 0.0]])
        trace = langevin_chain(mu, lambda z: np.zeros((1, 3)), steps=1,
                               step_size=0.1, noise=False, z0=np.zeros((1, 3)))
        assert np.array_equal(trace.final, np.array([[0.1, 0.0, 0.0]]))

    def test_zero_step_size_freezes_the_chain(self):
        mu = np.array([[2.0, -1.0]])
        z0 = np.array([[5.0, 5.0]])
        trace = langevin_chain(mu, lambda z: np.ones((1, 2)), steps=4,
                               step_size=0.0, noise=False, z0=z0)
        for state in trace.states:
            assert np.array_equal(state, z0)

    @given(step=st.floats(min_value=0.01, max_value=1.0), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_noise_free_contraction_toward_mean(self, step, seed):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=(1, 4))
        z0 = rng.normal(size=(1, 4)) * 3.0
        trace = langevin_chain(mu, lambda z: np.zeros((1, 4)), steps=6,
                               step_size=step, noise=False, z0=z0)
        dists = [np.linalg.norm(s - mu) for s in trace.states]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-12

    def test_noise_requires_generator(self):
        with pytest.raises(ContractError):
            langevin_chain(np.zeros((1, 2)), lambda z: np.zeros((1, 2)), steps=1,
                           step_size=0.1, noise=True)

    def test_seeded_chains_agree_bitwise(self):
        mu = np.array([[0.3, 0.7]])
        runs = [langevin_chain(mu, lambda z: -z, steps=5, step_size=0.1,
                               rng=[np.random.default_rng(42)]) for _ in range(2)]
        for a, b in zip(runs[0].states, runs[1].states):
            assert np.array_equal(a, b)

    def test_gradient_clamp_bounds_the_drift(self):
        mu = np.zeros((1, 1))
        trace = langevin_chain(mu, lambda z: np.array([[1e9]]), steps=1,
                               step_size=1.0, noise=False, z0=np.zeros((1, 1)),
                               grad_clamp=100.0)
        assert trace.final[0, 0] == 100.0

    def test_a_negative_clamp_is_rejected(self):
        # clip(g, 1, -1) would set every entry to -1, whatever the gradient
        with pytest.raises(ContractError, match="clamp"):
            langevin_chain(np.zeros((1, 2)), lambda z: np.array([[5.0, -5.0]]), steps=1,
                           step_size=0.1, noise=False, grad_clamp=-1.0)
        trace = langevin_chain(np.zeros((1, 2)), lambda z: np.array([[5.0, -5.0]]), steps=1,
                               step_size=0.1, noise=False, grad_clamp=0.0)
        assert np.array_equal(trace.final, np.zeros((1, 2)))

    def test_bad_arguments_rejected(self):
        with pytest.raises(ContractError):
            langevin_chain(np.zeros((1, 2)), lambda z: np.zeros((1, 2)), steps=-1,
                           step_size=0.1, noise=False)
        with pytest.raises(ContractError):
            langevin_chain(np.zeros((1, 2)), lambda z: np.zeros((1, 2)), steps=1,
                           step_size=-0.1, noise=False)
        with pytest.raises(ContractError):
            langevin_chain(np.zeros((1, 2)), lambda z: np.zeros((1, 2)), steps=1,
                           step_size=0.1, noise=False, z0=np.zeros((1, 3)))
        with pytest.raises(ContractError):
            langevin_chain(np.zeros((1, 2)), lambda z: np.zeros((1, 3)), steps=1,
                           step_size=0.1, noise=False)

    def test_divergence_names_the_step(self):
        with pytest.raises(NumericError, match="step"):
            langevin_chain(np.zeros((1, 2)), lambda z: np.full((1, 2), 100.0), steps=3,
                           step_size=1e306, noise=False, z0=np.ones((1, 2)))


class TestLangevinOnModel:
    def test_detached_latent_has_zero_decoder_gradient(self):
        cfg = tiny_cfg()
        p = ModelParams.init(cfg, seed=5)
        p["zslot_w"].data[:] = 0.0
        ex = make_example(cands=((6, 7), (7, 6)))
        plan = decode_plan(p, [ex], [0], encode_context(p, ex, [0]))
        grad = decoder_grad_z(p, plan, np.ones((1, cfg.latent_dim)))
        np.testing.assert_array_equal(grad, np.zeros((1, cfg.latent_dim)))

    def test_decoder_gradient_matches_finite_differences(self):
        cfg = tiny_cfg()
        p = ModelParams.init(cfg, seed=5)
        ex = make_example(cands=((6, 7), (7, 6)))
        z = np.full(cfg.latent_dim, 0.4)
        grad = decoder_grad_z(p, decode_plan(p, [ex], [0], encode_context(p, ex, [0])),
                              z[None])[0]
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
        enc = encode_context(p, ex, [0])
        plan = decode_plan(p, [ex], [0], encoded=enc)
        trace = langevin_chain(latent_prior_means(p, enc).data,
                               lambda z: decoder_grad_z(p, plan, z), steps=1, step_size=0.1,
                               noise=False, z0=np.zeros((1, cfg.latent_dim)))
        expected = np.zeros((1, cfg.latent_dim))
        expected[0, 0] = 0.1
        assert np.array_equal(trace.final, expected)

    def test_noise_off_chain_starts_at_prior_mean(self):
        cfg = tiny_cfg()
        p = ModelParams.init(cfg, seed=6)
        ex = make_example(cands=((6, 7), (7, 6)))
        trace = langevin_infer_z(p, [ex], [1], steps=0, step_size=0.1, noise=False,
                                 encoded=encode_context(p, ex, [1]))
        mu = latent_prior_mean(p, ex, 1).data
        assert np.array_equal(trace.final, mu[None])


# the one-chain forms that a batch of one replaced: each fails as a contract
# breach, not as a TypeError or AttributeError from deep inside
REMOVED_FORMS = {
    "langevin_chain-vector-mean": lambda p, ex, enc: langevin_chain(
        np.zeros(p.cfg.latent_dim), lambda z: z, steps=1, step_size=0.1,
        rng=np.random.default_rng(0)),
    "langevin_chain-one-generator": lambda p, ex, enc: langevin_chain(
        np.zeros((1, p.cfg.latent_dim)), lambda z: z, steps=1, step_size=0.1,
        rng=np.random.default_rng(0)),
    "decoder_grad_z-vector-z": lambda p, ex, enc: decoder_grad_z(
        p, decode_plan(p, [ex], [0], encoded=enc), np.zeros(p.cfg.latent_dim)),
    "decode_plan-int-index": lambda p, ex, enc: decode_plan(p, ex, 0, encoded=enc[0]),
    "langevin_infer_z-int-index": lambda p, ex, enc: langevin_infer_z(
        p, ex, 0, steps=1, step_size=0.1, rng=np.random.default_rng(0), encoded=enc[0]),
    "langevin_infer_z-int-index-no-steps": lambda p, ex, enc: langevin_infer_z(
        p, ex, 0, steps=0, step_size=0.1, noise=False, encoded=enc[0]),
    "decode_logprob-int-index-taped-z": lambda p, ex, enc: decode_logprob(
        p, ex, 0, Tensor(np.zeros(p.cfg.latent_dim)), encoded=enc[0]),
}


@pytest.mark.parametrize("call", REMOVED_FORMS.values(), ids=REMOVED_FORMS.keys())
def test_a_removed_one_chain_form_is_a_contract_error(call):
    p = ModelParams.init(tiny_cfg(), seed=5)
    ex = make_example(cands=((6, 7), (7, 6)))
    with pytest.raises(ContractError):
        call(p, ex, encode_context(p, ex, [0]))


# a lone example with several indices, which once served every lane: a
# decode and a chain take one example per lane
LONE_EXAMPLE_FORMS = {
    "decode_plan": lambda p, ex, enc: decode_plan(p, ex, [0, 1], encoded=enc),
    "decode_logprob": lambda p, ex, enc: decode_logprob(
        p, ex, [0, 1], np.zeros((2, p.cfg.latent_dim)), encoded=enc),
    "langevin_infer_z": lambda p, ex, enc: langevin_infer_z(
        p, ex, [0, 1], steps=1, step_size=0.1, noise=False, encoded=enc),
    "langevin_infer_z-no-steps": lambda p, ex, enc: langevin_infer_z(
        p, ex, [0, 1], steps=0, step_size=0.1, noise=False, encoded=enc),
}


@pytest.mark.parametrize("call", LONE_EXAMPLE_FORMS.values(), ids=LONE_EXAMPLE_FORMS.keys())
def test_a_lone_example_with_several_indices_is_a_contract_error(call):
    p = ModelParams.init(tiny_cfg(), seed=5)
    ex = make_example(cands=((6, 7), (7, 6)))
    enc = encode_context(p, ex)
    with pytest.raises(ContractError, match="one example per lane"):
        call(p, ex, enc)
    call(p, [ex, ex], enc)  # the same lanes, one example each


class TestSequentialPosterior:
    def config(self, **kw):
        base = dict(top_s=2, langevin_steps=3, step_size=0.1, seed=0)
        base.update(kw)
        return SpiConfig(model=tiny_cfg(), **base)

    @staticmethod
    def infer(p, ex, cfg, seed=0):
        """The draw of ``derived_rng(seed, 1)`` for ``ex`` alone, over a pass
        of every candidate."""
        return sequential_posterior_infer(p, [ex], cfg, [derived_rng(seed, 1)],
                                          [encode_context(p, ex)])[0]

    def test_single_candidate_is_always_chosen(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7),))
        for prior in ("uniform", "learnable"):
            pair = self.infer(p, ex, self.config(prior=prior))
            assert pair.s == 0

    def test_repeated_calls_agree_bitwise(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        cfg = self.config()
        a = self.infer(p, ex, cfg)
        b = self.infer(p, ex, cfg)
        assert a.s == b.s
        assert np.array_equal(a.z, b.z)

    def test_explicit_generator_controls_the_draw(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        cfg = self.config()
        a = self.infer(p, ex, cfg, seed=3)
        b = self.infer(p, ex, cfg, seed=3)
        c = self.infer(p, ex, cfg, seed=4)
        assert np.array_equal(a.z, b.z)
        assert not np.array_equal(a.z, c.z)

    def test_noise_off_zero_steps_returns_prior_mean(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        cfg = self.config(langevin_steps=0, langevin_noise=False)
        pair = self.infer(p, ex, cfg)
        mu = latent_prior_mean(p, ex, pair.s).data
        assert np.array_equal(pair.z, mu)

    def test_top_s_wider_than_candidate_set_is_clamped(self):
        p = ModelParams.init(tiny_cfg(), seed=7)
        ex = make_example(cands=((6, 7), (7, 6)))
        pair = self.infer(p, ex, self.config(top_s=5))
        assert pair.s in (0, 1)
