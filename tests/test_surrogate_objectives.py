"""The surrogate objective of a pass of examples (``surrogate_objectives``)
against the per-example objective, on a desk-sized model under the uniform
prior and a history-32 corpus under the learnable prior: a batch of one
has the per-example bits, a pass agrees with them to rounding, and
validation scores each chunk with one call."""
from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from spi import autodiff as ad
from spi import training
from spi.config import ModelConfig, SpiConfig
from spi.data import SyntheticSpec, generate_corpus
from spi.errors import ContractError
from spi.model import ModelParams, encode_batch, encode_context
from spi.training import surrogate_objective, surrogate_objectives, validation_loss

N = 6
SETUPS = {"desk": (8, "uniform"), "history32-learnable": (32, "learnable")}


@pytest.fixture(scope="module", params=sorted(SETUPS))
def setup(request):
    history_len, prior = SETUPS[request.param]
    corpus = generate_corpus(SyntheticSpec(history_len=history_len, n_train=4, n_valid=N,
                                           n_test=2, seed=101))
    config = SpiConfig(model=ModelConfig(vocab_size=corpus.vocab.size), prior=prior,
                       epochs=1, seed=3)
    params = ModelParams.init(config.model, seed=config.seed, scale=0.3)
    rng = np.random.default_rng(7)
    picks = [int(rng.integers(len(ex.candidates))) for ex in corpus.valid]
    zs = rng.normal(size=(N, config.model.latent_dim))
    return corpus.valid, config, params, picks, zs


@pytest.mark.parametrize("given", [True, False], ids=["encodings-given", "encoded-here"])
def test_a_batch_of_one_is_the_per_example_objective_to_the_bit(setup, given):
    # the per-example objective encodes the pick alone under the uniform
    # prior, or every candidate under the learnable one; the batch of one is
    # handed the same pass, made off the tape, or on the tape as ``mle_step``
    # makes it, where every gradient must agree to the bit as well
    examples, config, params, picks, zs = setup
    for ex, s, z in zip(examples, picks, zs):
        with nullcontext() if given else ad.Tape() as tape:
            encs = encode_context(params, ex, None if config.prior == "learnable" else [s])
            one = surrogate_objectives(params, [ex], [s], z[None], config.prior, [encs])
            got = {} if given else ad.backward(tape, ad.reduce_sum(one))
        with nullcontext() if given else ad.Tape() as tape:
            want = surrogate_objective(params, ex, s, z, config.prior)
            grads = {} if given else ad.backward(tape, want)
        assert one.shape == (1,) and want.shape == ()
        assert one.data[0] == want.data
        assert set(got) == set(grads)
        for name, grad in grads.items():
            assert np.array_equal(got[name], grad), name


def test_a_pass_agrees_with_the_per_example_objectives(setup):
    examples, config, params, picks, zs = setup
    got = surrogate_objectives(params, examples, picks, zs, config.prior,
                               encode_batch(params, examples)).data
    want = np.array([surrogate_objective(params, ex, s, z, config.prior).data
                     for ex, s, z in zip(examples, picks, zs)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_a_pass_s_gradient_is_the_sum_of_the_per_example_gradients(setup):
    examples, config, params, picks, zs = setup
    with ad.Tape() as tape:
        encs = encode_batch(params, examples, None if config.prior == "learnable"
                            else [[s] for s in picks])
        obj = surrogate_objectives(params, examples, picks, zs, config.prior, encs)
        got = ad.backward(tape, ad.reduce_sum(obj))
    want: dict[str, np.ndarray] = {}
    for ex, s, z in zip(examples, picks, zs):
        with ad.Tape() as tape:
            grads = ad.backward(tape, surrogate_objective(params, ex, s, z, config.prior))
        for name, grad in grads.items():
            want[name] = want.get(name, 0.0) + grad
    assert set(got) == set(want)
    # entries that cancel can differ more than their own size allows, so the
    # bound is relative to each gradient's largest entry, or to 1 for one that
    # is 0 up to rounding (the knowledge prior's bias: a softmax ignores a shift)
    for name, grad in want.items():
        np.testing.assert_allclose(got[name], grad, rtol=0,
                                   atol=1e-10 * max(np.abs(grad).max(), 1.0), err_msg=name)


def test_a_pass_needs_one_pick_and_one_encoding_list_per_example(setup):
    examples, config, params, picks, zs = setup
    encs = encode_batch(params, examples)
    with pytest.raises(ContractError, match="picks"):
        surrogate_objectives(params, examples, picks[:-1], zs, config.prior, encs)
    with pytest.raises(ContractError, match="encoding lists"):
        surrogate_objectives(params, examples, picks, zs, config.prior, encs[:-1])
    with pytest.raises(ContractError, match="prior mode"):
        surrogate_objectives(params, examples, picks, zs, "flat", encs)
    picked = [[e[s]] for e, s in zip(encs, picks)]
    if config.prior == "learnable":  # its knowledge prior needs every candidate
        with pytest.raises(ContractError, match="every candidate"):
            surrogate_objectives(params, examples, picks, zs, config.prior, picked)
    else:  # the uniform prior reads the picks' lanes alone
        assert np.array_equal(
            surrogate_objectives(params, examples, picks, zs, config.prior, picked).data,
            surrogate_objectives(params, examples, picks, zs, config.prior, encs).data)


def test_validation_scores_each_chunk_with_one_call(setup, monkeypatch):
    examples, config, params, _, _ = setup
    calls = []
    real = training.surrogate_objectives

    def counting(params, examples, *args):
        calls.append(len(examples))
        return real(params, examples, *args)

    monkeypatch.setattr(training, "surrogate_objectives", counting)
    validation_loss(params, examples, config.__class__(**{**vars(config), "batch_size": 4}),
                    epoch=0)
    assert calls == [4, 2]
