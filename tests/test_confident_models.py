"""A confident model scores, trains and infers finitely: with one output
logit ahead of the response's tokens by a gap of 1000 or 1e5, where the
target's softmax probability underflows to zero, the teacher-forced
log-likelihood, its gradient in the latent and a training step stay finite
and match their references."""
from __future__ import annotations

import numpy as np
import pytest

from spi import verify
from spi.config import SpiConfig, derived_rng
from spi.inference import decoder_grad_z, sequential_posterior_infer
from spi.model import (EOS, DialogueExample, LatentPair, ModelParams, decode_logprob,
                       decode_plan, encode_context)
from spi.training import mle_step

CFG = verify._tiny_model_config()
TOL = 1e-12
# the response never uses the confident token
CONFIDENT = CFG.vocab_size - 1
EXAMPLE = DialogueExample(history=[4, 5, 6], candidates=[[7, 8], [9], [7, 8], [10, 4, 5]],
                          gold_index=1, response=[5, 9, 6, EOS])
GAPS = [1000.0, 1e5]


def confident_params(gap: float) -> ModelParams:
    params = ModelParams.init(CFG, seed=1)
    params["out_b"].data[CONFIDENT] = gap
    return params


def rel_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("gap", GAPS)
def test_one_lane_decode_matches_the_reference(gap):
    params = confident_params(gap)
    for s in range(len(EXAMPLE.candidates)):
        mu = verify.naive_latent_mean(params, EXAMPLE, s)
        got = float(decode_logprob(params, EXAMPLE, s, mu).data)
        want = verify.naive_response_logprob(params, EXAMPLE, s, mu)
        assert np.isfinite(got) and want < -gap
        assert rel_err(got, want) <= TOL


@pytest.mark.parametrize("gap", GAPS)
def test_lockstep_decode_matches_the_reference(gap):
    params = confident_params(gap)
    indices = [3, 0, 2, 1]
    mus = np.stack([verify.naive_latent_mean(params, EXAMPLE, s) for s in indices])
    got = decode_logprob(params, [EXAMPLE] * len(indices), indices, mus,
                         encoded=encode_context(params, EXAMPLE, indices)).data
    want = [verify.naive_response_logprob(params, EXAMPLE, s, mu)
            for s, mu in zip(indices, mus)]
    assert np.isfinite(got).all()
    assert rel_err(got, want) <= TOL


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("constant", [False, True])
def test_latent_gradient_is_finite_and_at_its_limit(gap, constant):
    # at a gap of 60 the confident token's probability already rounds to 1
    # and every other one is below 1e-25, so that gradient is the limit
    z = np.random.default_rng(2).normal(size=(1, CFG.latent_dim))
    limit = confident_params(60.0)
    want = decoder_grad_z(limit, decode_plan(limit, [EXAMPLE], [3],
                                             encode_context(limit, EXAMPLE, [3])), z)
    params = confident_params(gap)
    params = params.constant() if constant else params
    got = decoder_grad_z(params, decode_plan(params, [EXAMPLE], [3],
                                             encode_context(params, EXAMPLE, [3])), z)
    assert np.isfinite(got).all()
    assert rel_err(got, want) <= TOL


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_training_step_matches_the_reference(gap, prior):
    params = confident_params(gap)
    s = 3
    z = np.random.default_rng(3).normal(size=CFG.latent_dim)
    config = SpiConfig(model=CFG, prior=prior, lr_model=0.01)
    before = params["out_b"].data.copy()
    loss = mle_step(params, [EXAMPLE], config, latents=[LatentPair(s, z)])
    ref = confident_params(gap)
    mu = verify.naive_latent_mean(ref, EXAMPLE, s)
    objective = (-0.5 * float(np.sum((z - mu) ** 2))
                 + verify.naive_response_logprob(ref, EXAMPLE, s, z))
    if prior == "learnable":
        logits = verify.naive_prior_logits(ref, EXAMPLE)
        objective += float(logits[s] - verify._np_logsumexp(logits))
    assert np.isfinite(loss)
    assert rel_err(loss, -objective) <= TOL
    assert all(np.isfinite(t.data).all() for _, t in params.items())
    # every response token pushes the confident logit down
    assert params["out_b"].data[CONFIDENT] < before[CONFIDENT]


@pytest.mark.parametrize("gap", GAPS)
def test_inference_stays_finite(gap):
    config = SpiConfig(model=CFG, top_s=3, langevin_steps=3)
    params = confident_params(gap)
    [pair] = sequential_posterior_infer(params, [EXAMPLE], config, [derived_rng(4, 1)],
                                        [encode_context(params, EXAMPLE)])
    assert np.isfinite(pair.z).all()
