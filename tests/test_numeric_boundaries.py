"""Finiteness is checked where a value leaves the engine or feeds a
decision, not inside each autodiff primitive (the primitives' side is in
``test_autodiff``). Weights scaled to overflow make every public entry point
raise ``NumericError``, and a non-finite gradient stops a training step
before any weight moves.

numpy warns on the overflows these tests cause on purpose, and the suite
turns a ``RuntimeWarning`` into an error, so the tests ignore them."""
from __future__ import annotations

import numpy as np
import pytest

from spi import autodiff as ad
from spi import training, verify
from spi.config import SpiConfig, derived_rng
from spi.data import SyntheticSpec, generate_corpus
from spi.errors import NumericError
from spi.generation import generate
from spi.inference import (langevin_chain, langevin_infer_z, select_knowledge_batch,
                           sequential_posterior_infer)
from spi.model import (EOS, DialogueExample, LatentPair, ModelParams, decode_logprob,
                       encode_context)
from spi.training import (initializer_ce_step, mle_step, multi_hot_labels,
                          surrogate_objective, train, validation_loss)

pytestmark = [pytest.mark.filterwarnings("ignore:overflow"),
              pytest.mark.filterwarnings("ignore:invalid value")]

CFG = verify._tiny_model_config()
EXAMPLE = DialogueExample(history=[4, 5, 6], candidates=[[7, 8], [9], [7, 8], [10, 4, 5]],
                          gold_index=1, response=[5, 9, 6, EOS])
BIG = 1e308


def overflowing(params: ModelParams) -> ModelParams:
    """The latent path scaled to overflow: the prior mean is about 1e308, a
    finite value, and its slot row z . zslot_w overflows inside the decoder.
    The encoder and the selection heads stay as they were."""
    params["zprior_b"].data[:] = BIG
    params["zslot_w"].data[:] = BIG
    return params


def overflowing_params() -> ModelParams:
    return overflowing(ModelParams.init(CFG, seed=1))


def test_decode_logprob_raises():
    params = overflowing_params()
    with pytest.raises(NumericError):
        decode_logprob(params, EXAMPLE, 0, np.full(CFG.latent_dim, BIG))
    with pytest.raises(NumericError):
        decode_logprob(params, [EXAMPLE] * 2, [0, 3], np.full((2, CFG.latent_dim), BIG),
                       encoded=encode_context(params, EXAMPLE, [0, 3]))


def test_decode_logprob_checks_its_totals():
    # every logit is finite, but a target's log-probability x_t - x_top
    # overflows to -inf: only the check on the returned totals can see it
    params = ModelParams.init(CFG, seed=1)
    params["out_b"].data[CFG.vocab_size - 1] = BIG
    params["out_b"].data[EXAMPLE.response] = -BIG
    with pytest.raises(NumericError, match="log-probability"):
        decode_logprob(params, EXAMPLE, 0, np.zeros(CFG.latent_dim))


@pytest.mark.parametrize("prior, top_s", [("uniform", None), ("uniform", 2),
                                          ("learnable", None)])
def test_select_knowledge_raises(prior, top_s):
    # None: a top-S of every candidate
    params = overflowing_params()
    config = SpiConfig(model=CFG, prior=prior, top_s=top_s or len(EXAMPLE.candidates))
    with pytest.raises(NumericError):
        select_knowledge_batch(params, [EXAMPLE], config,
                               encodings_batch=[encode_context(params, EXAMPLE)])


@pytest.mark.parametrize("steps", [0, 5])
def test_sequential_posterior_infer_raises(steps):
    config = SpiConfig(model=CFG, top_s=3, langevin_steps=steps)
    params = overflowing_params()
    with pytest.raises(NumericError):
        sequential_posterior_infer(params, [EXAMPLE], config, [derived_rng(4, 1)],
                                   [encode_context(params, EXAMPLE)])


@pytest.mark.parametrize("steps", [0, 5])
def test_langevin_checks_its_start_state(steps):
    params = overflowing_params()
    # every encoder state saturates at 1, so the prior mean overflows to inf
    params["enc_b"].data[:] = BIG
    params["zprior_w"].data[:] = BIG
    with pytest.raises(NumericError, match="start"):
        langevin_infer_z(params, [EXAMPLE], [0], steps=steps, step_size=0.1,
                         rng=[derived_rng(4, 1)], encoded=encode_context(params, EXAMPLE, [0]))
    with pytest.raises(NumericError, match="start"):
        langevin_chain(np.array([[np.inf, 0.0]]), lambda z: np.zeros((1, 2)), steps=steps,
                       step_size=0.1, noise=False)


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_generate_raises_at_the_first_step(prior):
    with pytest.raises(NumericError, match="step 0"):
        generate(overflowing_params(), EXAMPLE, prior=prior)


@pytest.mark.parametrize("prior, weight", [("uniform", "init_w"),
                                           ("learnable", "kprior_w")])
def test_head_logits_raise_before_a_pick(prior, weight):
    # every encoder state saturates at 1, so each logit is 5e308: inf. The
    # sigmoid of inf is 1 and an argmax over it picks quietly, so only the
    # check on the logits stops it
    params = ModelParams.init(CFG, seed=1)
    params["enc_b"].data[:] = BIG
    params[weight].data[:] = BIG
    with pytest.raises(NumericError, match="head output"):
        generate(params, EXAMPLE, prior=prior)


def test_train_raises_naming_the_batch(monkeypatch):
    init = ModelParams.init
    monkeypatch.setattr(ModelParams, "init", staticmethod(
        lambda cfg, seed=0, scale=0.1: overflowing(init(cfg, seed=seed, scale=scale))))
    corpus = generate_corpus(SyntheticSpec(vocab_size=32, m_candidates=3, candidate_len=3,
                                           n_styles=2, n_train=4, n_valid=2, n_test=1,
                                           history_len=3, seed=1))
    cfg = verify._tiny_model_config(corpus.vocab.size)
    config = SpiConfig(model=cfg, top_s=2, langevin_steps=2, batch_size=2, epochs=1)
    with pytest.raises(NumericError, match=r"^epoch 0, batch 0: "):
        train(corpus.train, corpus.valid, config, quiet=True)


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_surrogate_raises_where_only_the_latent_prior_term_overflows(prior):
    # the decoder saturates a latent of 1e200 and its log-likelihood stays
    # finite, but ||z - mu||^2 overflows
    params = ModelParams.init(CFG, seed=1)
    z = np.full(CFG.latent_dim, 1e200)
    with pytest.raises(NumericError, match="surrogate objective is non-finite"):
        ad.check_finite(surrogate_objective(params, EXAMPLE, 3, z, prior).data,
                        "surrogate objective")
    with pytest.raises(NumericError, match="root"):
        mle_step(params, [EXAMPLE], SpiConfig(model=CFG, prior=prior),
                 latents=[LatentPair(3, z)])


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_validation_names_the_batch_and_example_of_a_non_finite_objective(prior, monkeypatch):
    # example 1 of batch 1 gets the latent of 1e200 above: its chain is fine,
    # its objective is not
    params = ModelParams.init(CFG, seed=1)
    config = SpiConfig(model=CFG, prior=prior, top_s=2, langevin_steps=1, batch_size=2)
    infer = training.sequential_posterior_infer
    batches = []

    def overflowing_second_batch(*args):
        pairs = infer(*args)
        batches.append(pairs)
        if len(batches) == 2:
            pairs[1] = LatentPair(pairs[1].s, np.full(CFG.latent_dim, 1e200))
        return pairs

    monkeypatch.setattr(training, "sequential_posterior_infer", overflowing_second_batch)
    with pytest.raises(NumericError, match=r"^validation batch 1: surrogate objective of "
                                           r"example 1 is non-finite"):
        validation_loss(params, [EXAMPLE] * 4, config, epoch=0)


def nan_vjp(*args):
    return (np.full_like(args[0], np.nan),)


def test_mle_step_rejects_a_non_finite_gradient_before_moving(monkeypatch):
    params = ModelParams.init(CFG, seed=1)
    before = {name: t.data.copy() for name, t in params.items()}
    monkeypatch.setattr(ad, "_tanh_vjp", lambda g, y: nan_vjp(g))
    config = SpiConfig(model=CFG, lr_model=0.1)
    pair = LatentPair(3, np.zeros(CFG.latent_dim))
    with pytest.raises(NumericError, match="gradient of embed "):
        mle_step(params, [EXAMPLE, EXAMPLE], config, latents=[pair, pair])
    for name, t in params.items():
        assert np.array_equal(t.data, before[name])


def test_head_ce_step_rejects_a_non_finite_gradient_before_moving(monkeypatch):
    params = ModelParams.init(CFG, seed=1)
    before = {name: t.data.copy() for name, t in params.items()}
    monkeypatch.setattr(ad, "_log_sigmoid_vjp", lambda g, xd: nan_vjp(g))
    labels = [multi_hot_labels(EXAMPLE, 3)]
    with pytest.raises(NumericError, match="gradient of init_w "):
        initializer_ce_step(params, [EXAMPLE], labels, 0.1, [encode_context(params, EXAMPLE)])
    for name, t in params.items():
        assert np.array_equal(t.data, before[name])
