"""Posterior inference for the examples of one encoder pass
(``sequential_posterior_infer``) against each example's batch of one, on a
desk-sized model under the uniform prior and a history-32 corpus under the
learnable prior: each lane's pick and latent, each generator's stream,
sampled picks, and a non-finite chain. Also the rows form of
``langevin_chain`` and ``decoder_grad_z``, and the check that a decode is
handed the encodings of its own candidates."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from spi import inference, verify
from spi.config import SEED_VALID, ModelConfig, SpiConfig, derived_rng
from spi.data import SyntheticSpec, generate_corpus
from spi.errors import ContractError, NumericError
from spi.inference import (decoder_grad_z, langevin_chain, langevin_infer_z,
                           select_knowledge_batch, sequential_posterior_infer)
from spi.model import (EOS, DialogueExample, ModelParams, decode_logprob, decode_plan,
                       encode_batch, encode_context)
from spi.training import validation_loss

N = 6


def _setup(history_len: int, prior: str):
    corpus = generate_corpus(SyntheticSpec(history_len=history_len, n_train=4, n_valid=N,
                                           n_test=2, seed=101))
    config = SpiConfig(model=ModelConfig(vocab_size=corpus.vocab.size), prior=prior,
                       epochs=1, seed=3)
    return corpus.valid, config, ModelParams.init(config.model, seed=config.seed)


SETUPS = {"desk": (8, "uniform"), "history32-learnable": (32, "learnable")}


@pytest.fixture(scope="module", params=sorted(SETUPS))
def setup(request):
    return _setup(*SETUPS[request.param])


def _gens(config, n):
    return [derived_rng(config.seed, SEED_VALID, 0, i) for i in range(n)]


def _both(params, examples, config):
    """The batch draw and each example's draw as a batch of one from the
    same pass, and each side's generators after it."""
    encodings = encode_batch(params, examples)
    batch_gens, solo_gens = _gens(config, len(examples)), _gens(config, len(examples))
    batch = sequential_posterior_infer(params, examples, config, batch_gens, encodings)
    solo = [sequential_posterior_infer(params, [ex], config, [gen], [encs])[0]
            for ex, gen, encs in zip(examples, solo_gens, encodings)]
    return batch, solo, batch_gens, solo_gens


@pytest.mark.parametrize("noise", [True, False])
def test_each_lane_s_latent_matches_its_one_example_chain(setup, noise):
    examples, config, params = setup
    batch, solo, _, _ = _both(params, examples, replace(config, langevin_noise=noise))
    assert [pair.s for pair in batch] == [pair.s for pair in solo]
    for got, want in zip(batch, solo):
        np.testing.assert_allclose(got.z, want.z, rtol=0, atol=1e-10)


@pytest.mark.parametrize("noise", [True, False])
def test_each_generator_draws_what_its_example_draws_alone(setup, noise):
    examples, config, params = setup
    _, _, batch_gens, solo_gens = _both(params, examples, replace(config, langevin_noise=noise))
    for a, b in zip(batch_gens, solo_gens):
        assert a.random() == b.random()


def test_sampled_picks_match_the_one_example_picks(setup):
    examples, config, params = setup
    sampled = replace(config, selection="sampled", temperature=25.0)
    batch, solo, _, _ = _both(params, examples, sampled)
    assert [pair.s for pair in batch] == [pair.s for pair in solo]
    # at this temperature the draws are not all the greedy pick
    greedy = [out.chosen for out in select_knowledge_batch(
        params, examples, config, encodings_batch=encode_batch(params, examples))]
    assert [pair.s for pair in batch] != greedy


def test_a_batch_selection_picks_what_each_example_picks(setup):
    examples, config, params = setup
    encodings = encode_batch(params, examples)
    config = replace(config, top_s=3)
    batch = select_knowledge_batch(params, examples, config, encodings_batch=encodings)
    for ex, encs, got in zip(examples, encodings, batch):
        [want] = select_knowledge_batch(params, [ex], config, encodings_batch=[encs])
        assert got.chosen == want.chosen and got.evaluated == want.evaluated
        np.testing.assert_allclose(got.log_weights, want.log_weights, rtol=1e-12, atol=1e-12)
    with pytest.raises(ContractError, match="5 encoding lists for 6 examples"):
        select_knowledge_batch(params, examples, config, encodings_batch=encodings[:5])
    with pytest.raises(ContractError, match="generators"):
        sequential_posterior_infer(params, examples, config, _gens(config, N - 1), encodings)


def test_a_non_finite_gradient_in_one_lane_names_its_example(setup, monkeypatch):
    examples, config, params = setup
    true_grad = inference.decoder_grad_z
    lane = {N: 2, N - 4: 1}  # the lane poisoned in a batch of this many chains

    def poisoned(*args, **kwargs):
        grad = np.array(true_grad(*args, **kwargs))
        if grad.ndim == 2 and grad.shape[0] in lane:
            grad[lane[grad.shape[0]], 1] = np.nan
        return grad

    monkeypatch.setattr(inference, "decoder_grad_z", poisoned)
    with pytest.raises(NumericError, match="step 0 of example 2 "):
        sequential_posterior_infer(params, examples, config, _gens(config, N),
                                   encode_batch(params, examples))
    # validation names the batch: its second batch holds examples 4 and 5
    with pytest.raises(NumericError, match="validation batch 1: .*step 0 of example 1 "):
        validation_loss(params, examples, replace(config, batch_size=4), epoch=0)


def test_validation_infers_each_pass_in_one_batch(setup, monkeypatch):
    examples, config, params = setup
    calls = []
    original = inference.sequential_posterior_infer

    def counting(params, examples, *args, **kwargs):
        calls.append(len(examples))
        return original(params, examples, *args, **kwargs)

    monkeypatch.setattr("spi.training.sequential_posterior_infer", counting)
    validation_loss(params, examples, replace(config, batch_size=4), epoch=0)
    assert calls == [4, N - 4]


# ---------------------------------------------------------------------------
# rows of a chain and of a z-gradient


def test_chain_rows_are_the_chains_of_each_row():
    rng = np.random.default_rng(5)
    mu, z0 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    w = rng.normal(size=4)

    def grad(z):  # the same elementwise map on each row, so rows round alike
        return np.tanh(z * w) * 50.0

    for noise in (True, False):
        for start in (None, z0):
            rows = langevin_chain(mu, grad, steps=4, step_size=0.3, noise=noise,
                                  rng=[derived_rng(7, j) for j in range(3)], z0=start,
                                  grad_clamp=20.0)
            for j in range(3):  # row j against its batch of one
                alone = langevin_chain(mu[j:j + 1], grad, steps=4, step_size=0.3, noise=noise,
                                       rng=[derived_rng(7, j)],
                                       z0=None if start is None else start[j:j + 1],
                                       grad_clamp=20.0)
                for a, b in zip(rows.states, alone.states):
                    assert np.array_equal(a[j], b[0])
                np.testing.assert_allclose([n[j] for n in rows.drift_norms],
                                           [n[0] for n in alone.drift_norms], rtol=1e-15)


def test_chain_rows_need_one_generator_each():
    with pytest.raises(ContractError, match="one per chain"):
        langevin_chain(np.zeros((3, 2)), lambda z: z, steps=1, step_size=0.1,
                       rng=[derived_rng(0, j) for j in range(2)])
    with pytest.raises(ContractError, match="one per chain"):
        langevin_chain(np.zeros((2, 2)), lambda z: z, steps=1, step_size=0.1,
                       rng=[derived_rng(0, 0), None])
    with pytest.raises(NumericError, match="start state of example 1 "):
        langevin_chain(np.array([[0.0, 0.0], [np.inf, 0.0]]), lambda z: z, steps=1,
                       step_size=0.1, noise=False)


def test_gradient_rows_are_each_lane_s_gradient():
    cfg = verify._tiny_model_config()
    params = ModelParams.init(cfg, seed=4).constant()
    rng = derived_rng(12, 0)
    examples = [verify._random_example(rng, cfg.vocab_size, m=3, resp_len=k)
                for k in (3, 5, 4)]
    encodings = encode_batch(params, examples)
    owners, picks = [examples[0], examples[1], examples[2], examples[0]], [0, 2, 1, 2]
    encs = [encodings[examples.index(ex)][s] for ex, s in zip(owners, picks)]
    z = rng.normal(size=(4, cfg.latent_dim))
    rows = decoder_grad_z(params, decode_plan(params, owners, picks, encoded=encs), z)
    for j in range(4):  # row j against its batch of one
        alone = decoder_grad_z(params, decode_plan(params, owners[j:j + 1], picks[j:j + 1],
                                                   encoded=encs[j:j + 1]), z[j:j + 1])
        np.testing.assert_allclose(rows[j], alone[0], rtol=1e-12, atol=1e-15)
    with pytest.raises(ContractError, match="share a decoder lane"):
        decode_plan(params, [examples[0]] * 2, [0, 0], encoded=[encs[0]] * 2)
    # a plan of four lanes runs four latent rows
    with pytest.raises(ContractError, match="latent has shape"):
        decoder_grad_z(params, decode_plan(params, owners, picks, encoded=encs), z[:3])
    with pytest.raises(ContractError, match="one encoding each"):
        langevin_infer_z(params, owners, picks, steps=1, step_size=0.1, noise=False,
                         encoded=encs[:3])
    # a chain of no steps plans no decode, and still takes one example per lane
    with pytest.raises(ContractError, match="one example per lane"):
        langevin_infer_z(params, owners[:3], picks, steps=0, step_size=0.1, noise=False,
                         encoded=encs)


# ---------------------------------------------------------------------------
# a decode checks that each encoding is its pair's candidate


def _tiny_pair():
    cfg = verify._tiny_model_config()
    params = ModelParams.init(cfg, seed=0)
    rng = derived_rng(31, 0)
    return params, [verify._random_example(rng, cfg.vocab_size) for _ in range(2)]


def test_a_decode_rejects_another_candidate_s_encoding():
    params, (ex, _) = _tiny_pair()
    encs = encode_context(params, ex)
    z = np.zeros((1, params.cfg.latent_dim))
    decode_logprob(params, [ex], [0], z, encoded=[encs[0]])
    with pytest.raises(ContractError, match="encoding 0 does not encode candidate 0 .*"
                                            r"candidates \[1\] of that example"):
        decode_logprob(params, [ex], [0], z, encoded=[encs[1]])
    with pytest.raises(ContractError, match="candidate 2"):
        decode_logprob(params, ex, 2, z[0], encoded=encs[1])


def test_a_decode_rejects_another_example_s_encoding():
    params, (first, second) = _tiny_pair()
    encodings = encode_batch(params, [first, second])
    z = np.zeros((2, params.cfg.latent_dim))
    decode_logprob(params, [first, second], [1, 1],
                   z, encoded=[encodings[0][1], encodings[1][1]])
    with pytest.raises(ContractError, match="encoding 1 .* of another example"):
        decode_logprob(params, [first, second], [1, 1],
                       z, encoded=[encodings[0][1], encodings[0][1]])
    with pytest.raises(ContractError, match="another example"):
        decode_logprob(params, [first, second], [1, 1],
                       z, encoded=[encodings[1][1], encodings[0][1]])


def test_equal_candidates_share_one_encoding_that_serves_both():
    params, _ = _tiny_pair()
    ex = DialogueExample(history=[4, 5], candidates=[[6, 7], [8], [6, 7]], gold_index=0,
                         response=[6, EOS])
    encs = encode_context(params, ex)
    assert encs[0] is encs[2] and encs[0].indices == (0, 2) and encs[0].example is ex
    z = np.zeros((2, params.cfg.latent_dim))
    got = decode_logprob(params, [ex] * 2, [2, 0], z, encoded=[encs[0], encs[2]]).data
    assert got[0] == got[1]
