"""The lockstep decoder against the one-candidate decode and the plain-numpy
reference in ``verify``: ragged candidate lengths (empty, capped and past
the cap), histories empty or past their cap, repeated candidates, index
subsets in any order and both prior modes; plus its gradient in the latent,
its contract errors, and greedy generation checked against teacher forcing."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import autodiff as ad
from spi import verify
from spi.config import ModelConfig
from spi.errors import ContractError
from spi.generation import generate
from spi.inference import decoder_grad_z, log_sum_exp, select_knowledge
from spi.model import (EOS, DialogueExample, ModelParams, decode_logprob, encode_context,
                       latent_prior_mean)

CFG = verify._tiny_model_config()
TOL = 1e-12


def tokens(lengths):
    """Token lists whose length is drawn from ``lengths``."""
    return lengths.flatmap(lambda k: st.lists(st.integers(4, CFG.vocab_size - 1),
                                              min_size=k, max_size=k))


@st.composite
def ragged_examples(draw):
    history = draw(tokens(st.sampled_from([0, 1, CFG.max_history, CFG.max_history + 3])))
    # an empty history needs a non-empty candidate: the encoder rejects [SEP] alone
    cand = tokens(st.integers(0 if history else 1, CFG.max_candidate + 2))
    distinct = draw(st.lists(cand, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))
    response = draw(tokens(st.integers(0, 4))) + [EOS]
    return DialogueExample(history=history, candidates=[list(distinct[i]) for i in picks],
                           gold_index=0, response=response)


def truncated(example: DialogueExample, s: int) -> tuple[int, ...]:
    return tuple(example.candidates[s][:CFG.max_candidate])


def shared_latents(example: DialogueExample, indices, seed: int) -> np.ndarray:
    """One random latent row per distinct truncated candidate, repeated with it."""
    rng = np.random.default_rng(seed)
    by_candidate: dict[tuple[int, ...], np.ndarray] = {}
    return np.stack([by_candidate.setdefault(truncated(example, s),
                                             rng.normal(size=CFG.latent_dim))
                     for s in indices])


@given(example=ragged_examples(), seed=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lockstep_decode_matches_one_candidate_decodes_and_the_reference(example, seed,
                                                                        data):
    params = ModelParams.init(CFG, seed=seed)
    m = len(example.candidates)
    indices = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m + 2))
    if data.draw(st.booleans(), label="prior-mean latents"):
        z = np.stack([latent_prior_mean(params, example, s).data for s in indices])
    else:
        z = shared_latents(example, indices, seed)
    out = decode_logprob(params, example, indices, z).data
    assert out.shape == (len(indices),)
    for pos, s in enumerate(indices):
        one = float(decode_logprob(params, example, s, z[pos]).data)
        assert out[pos] == pytest.approx(one, rel=TOL, abs=0)
        naive = verify.naive_response_logprob(params, example, s, z[pos])
        assert out[pos] == pytest.approx(naive, rel=TOL, abs=0)
        for other, t in enumerate(indices[:pos]):
            if truncated(example, s) == truncated(example, t):
                assert out[pos] == out[other]


@given(example=ragged_examples(), seed=st.integers(0, 3),
       prior=st.sampled_from(["uniform", "learnable"]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_selection_weights_match_the_reference_in_both_priors(example, seed, prior, data):
    params = ModelParams.init(CFG, seed=seed)
    m = len(example.candidates)
    top_s = data.draw(st.none() | st.integers(1, m)) if prior == "uniform" else None
    out = select_knowledge(params, example, prior=prior, top_s=top_s)
    want = list(range(m)) if top_s is None else verify.naive_top_s(params, example, top_s)
    assert list(out.evaluated) == want
    extra = verify.naive_prior_logits(params, example) if prior == "learnable" \
        else np.zeros(m)
    raw = np.array([extra[s] + verify.naive_response_logprob(
        params, example, s, verify.naive_latent_mean(params, example, s)) for s in want])
    np.testing.assert_allclose(out.log_weights, raw - log_sum_exp(raw), rtol=0,
                               atol=TOL * max(1.0, np.abs(raw).max()))
    for a, s in enumerate(want):
        for b, t in enumerate(want[:a]):
            if truncated(example, s) == truncated(example, t):
                assert out.log_weights[a] == out.log_weights[b]


def test_repeated_candidates_share_one_lane():
    # at the default widths the lockstep products round equal rows of some
    # lanes differently (here by up to 1.8e-15); a shared lane may not
    cfg = ModelConfig(vocab_size=12, max_history=8, max_candidate=6, max_response=8)
    params = ModelParams.init(cfg, seed=0)
    head, other = [8, 10, 10], [5, 11, 6]
    example = DialogueExample(history=[4, 5], candidates=[other, head, head, head, head, other,
                                                          [9, 7, 6]],
                              gold_index=0, response=[6, 7, EOS])
    encodings = encode_context(params, example)
    z = np.stack([latent_prior_mean(params, example, s, encoded=enc).data
                  for s, enc in enumerate(encodings)])
    out = decode_logprob(params, example, range(7), z, encoded=encodings).data
    assert out[1] == out[2] == out[3] == out[4]
    assert out[0] == out[5]
    assert len({out[0], out[1], out[6]}) == 3


def fixed_example() -> DialogueExample:
    return DialogueExample(history=[4, 5, 6], candidates=[[7, 8], [9], [7, 8], [10, 11, 4]],
                           gold_index=0, response=[6, 7, 5, EOS])


def test_a_lone_lane_runs_the_one_candidate_ops():
    params = ModelParams.init(CFG, seed=3)
    example = fixed_example()
    z = np.linspace(-1.0, 1.0, CFG.latent_dim)
    one = decode_logprob(params, example, 0, z).data
    both = decode_logprob(params, example, [2, 0], np.stack([z, z])).data
    assert both[0] == one and both[1] == one


def test_passed_encodings_give_the_same_scores():
    params = ModelParams.init(CFG, seed=1)
    example = fixed_example()
    indices = [3, 1, 0]
    z = shared_latents(example, indices, 5)
    encodings = encode_context(params, example, indices)
    assert np.array_equal(decode_logprob(params, example, indices, z, encoded=encodings).data,
                          decode_logprob(params, example, indices, z).data)


def test_lockstep_gradient_in_z_matches_each_candidate():
    # distinct latent rows make distinct lanes, each with its own gradient
    params = ModelParams.init(CFG, seed=2)
    example = fixed_example()
    indices = [3, 0, 2, 1]
    z = np.random.default_rng(4).normal(size=(len(indices), CFG.latent_dim))
    with ad.Tape() as tape:
        zt = ad.Tensor(z, name="z", trainable=True)
        grad = ad.backward(tape, ad.reduce_sum(decode_logprob(params, example, indices, zt)))
    for pos, s in enumerate(indices):
        np.testing.assert_allclose(grad["z"][pos], decoder_grad_z(params, example, s, z[pos]),
                                   rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("indices, z_rows, n_encodings, match", [
    ([], 0, None, "at least one"),
    ([0, 4], 2, None, "out of range"),
    ([0, True], 2, None, "out of range"),
    ([0, 1], 3, None, "latents have shape"),
    ([0, 1], 2, 1, "1 encodings for 2"),
])
def test_lockstep_contract_errors(indices, z_rows, n_encodings, match):
    params = ModelParams.init(CFG, seed=0)
    example = fixed_example()
    z = np.zeros((z_rows, CFG.latent_dim))
    encoded = None if n_encodings is None else encode_context(params, example, [0])
    with pytest.raises(ContractError, match=match):
        decode_logprob(params, example, indices, z, encoded=encoded)


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_logprobs_sum_to_the_teacher_forced_score(prior, seed):
    # greedy generation and teacher forcing step the same decoder
    params = ModelParams.init(CFG, seed=seed, scale=0.5)
    example = fixed_example()
    result = generate(params, example, prior=prior, max_len=CFG.max_response)
    scored = DialogueExample(history=example.history, candidates=example.candidates,
                             gold_index=None, response=result.tokens)
    total = float(decode_logprob(params, scored, result.s, result.z).data)
    assert sum(result.logprobs) == pytest.approx(total, rel=1e-10, abs=1e-10)
