"""A teacher-forced decode is a plan of everything that does not read the
latent (``decode_plan``) run at the latent (``decode_run``): a plan's run
has the bits of ``decode_logprob`` in value and z-gradient, for one lane
and for ragged and tiled lanes, with the encodings either prior mode
makes, and a Langevin chain builds one plan for its T runs."""
from __future__ import annotations

import numpy as np
import pytest

from spi import autodiff as ad
from spi import inference, verify
from spi.config import ModelConfig, derived_rng
from spi.inference import decoder_grad_z, langevin_chain, langevin_infer_z
from spi.model import (ModelParams, decode_logprob, decode_plan, decode_run, encode_batch,
                       latent_prior_means)

CFG = ModelConfig(vocab_size=20, hidden_dim=16, att_dim=8, latent_dim=6)


def _lanes(kind: str, prior: str, params: ModelParams, seed: int):
    """The (example, pick) pairs of a decode and their encodings: each
    pick's alone, as the uniform prior's objective encodes it, or a lane of
    a pass over every candidate, as the learnable prior's does."""
    rng = derived_rng(40 + seed, 1)
    if kind == "tiled":  # equal histories and candidates: windows of one width
        examples = [verify._random_example(rng, CFG.vocab_size, m=3, hist_len=3, cand_len=3)
                    for _ in range(3)]
        owners, picks = examples, [0, 2, 1]
    else:
        examples = [verify._ragged_example(rng, CFG, hist_len=h) for h in (3, 9)]
        # two lanes of the first example, one of the second
        lengths = [len(c) for c in examples[0].candidates]
        owners = [examples[0], examples[1], examples[0]]
        picks = [int(np.argmax(lengths)), 1, int(np.argmin(lengths))]
        if kind == "one":
            owners, picks = owners[:1], picks[:1]
    mine = {id(ex): [] for ex in owners}
    for ex, s in zip(owners, picks):
        mine[id(ex)].append(s)
    distinct = list({id(ex): ex for ex in owners}.values())
    encoded = encode_batch(params, distinct, None if prior == "learnable"
                           else [mine[id(ex)] for ex in distinct])
    by_example = {id(ex): encs for ex, encs in zip(distinct, encoded)}
    encs = [by_example[id(ex)][s if prior == "learnable" else mine[id(ex)].index(s)]
            for ex, s in zip(owners, picks)]
    return owners, picks, encs


def _taped_grad(params, owners, picks, z, encs):
    with ad.Tape() as tape:
        zt = ad.Tensor(z, name="z", trainable=True)
        out = decode_logprob(params, owners, picks, zt, encoded=encs)
        return out.data, ad.backward(tape, ad.reduce_sum(out))["z"]


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "trainable"])
@pytest.mark.parametrize("prior", ["uniform", "learnable"])
@pytest.mark.parametrize("kind", ["one", "ragged", "tiled"])
def test_a_plan_run_has_the_bits_of_decode_logprob(kind, prior, constant):
    for seed in range(3):
        params = ModelParams.init(CFG, seed=seed, scale=0.3)
        weights = params.constant() if constant else params
        owners, picks, encs = _lanes(kind, prior, params, seed)
        z = derived_rng(50 + seed, 2).normal(size=(len(picks), CFG.latent_dim))
        plan = decode_plan(weights, owners, picks, encoded=encs)
        want, want_grad = _taped_grad(weights, owners, picks, z, encs)
        got, got_grad = decode_run(weights, plan, z).data, decoder_grad_z(weights, plan, z)
        if kind == "one":  # a lone lane keeps the one-lane layout
            assert plan.lanes.windows is None
        else:
            # equal lanes leave no entry of the padded layout dead
            assert plan.lanes.windows.live.all() == (kind == "tiled")
        assert np.array_equal(got, want)
        assert got_grad.shape == want_grad.shape and np.array_equal(got_grad, want_grad)
        # a plan runs at any latent: a second run agrees with its own decode
        z2 = z[::-1].copy()
        again = decode_run(weights, plan, z2).data
        assert np.array_equal(again, decode_logprob(weights, owners, picks, z2,
                                                    encoded=encs).data)
        if kind == "one":  # and with the scalar view of an int index
            assert again[0] == decode_logprob(weights, owners[0], picks[0], z2[0],
                                              encoded=encs[0]).data


@pytest.mark.parametrize("lanes", [1, 3])
def test_a_chain_plans_its_decode_once_for_its_steps(lanes, monkeypatch):
    params = ModelParams.init(CFG, seed=1, scale=0.3)
    owners, picks, encs = _lanes("ragged", "uniform", params, 0)
    owners, picks, encs = owners[:lanes], picks[:lanes], encs[:lanes]
    plans, runs = [], []
    plan, grad_z = inference.decode_plan, inference.decoder_grad_z

    def counting_plan(*args, **kwargs):
        plans.append(plan(*args, **kwargs))
        return plans[-1]

    def counting_grad(params, decode, z):
        runs.append(decode)
        return grad_z(params, decode, z)

    monkeypatch.setattr(inference, "decode_plan", counting_plan)
    monkeypatch.setattr(inference, "decoder_grad_z", counting_grad)

    def chain(steps):
        return langevin_infer_z(params, owners, picks, steps=steps, step_size=0.1,
                                rng=[derived_rng(7, j) for j in range(lanes)], encoded=encs)

    trace = chain(4)
    assert len(plans) == 1 and runs == plans * 4
    # the chain a taped decode's gradient drives, to the bit
    weights = params.constant()
    mu = latent_prior_means(params, encs).data
    want = langevin_chain(mu, lambda z: _taped_grad(weights, owners, picks, z, encs)[1],
                          steps=4, step_size=0.1,
                          rng=[derived_rng(7, j) for j in range(lanes)])
    assert all(np.array_equal(a, b) for a, b in zip(trace.states, want.states, strict=True))
    # a chain of no steps asks for no gradient and plans nothing
    plans.clear()
    runs.clear()
    chain(0)
    assert plans == [] and runs == []
