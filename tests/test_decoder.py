"""The lockstep decoder against the one-candidate decode and the plain-numpy
reference in ``verify``: ragged candidate lengths (empty, capped and past
the cap), histories empty or past their cap, repeated candidates, index
subsets in any order, lanes of several examples and both prior modes; plus
its gradient in the latent, its contract errors, and greedy generation
checked against teacher forcing."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import autodiff as ad
from spi import verify
from spi.config import ModelConfig, SpiConfig
from spi.errors import ContractError
from spi.generation import generate
from spi.inference import decoder_grad_z, log_sum_exp, select_knowledge_batch
from spi.model import (EOS, DialogueExample, ModelParams, decode_logprob, decode_plan,
                       encode_batch, encode_context, latent_prior_mean, latent_prior_means)

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


def pass_lanes(params, owners, indices) -> list:
    """The lanes of (example, index) pairs from one encoder pass: each
    distinct example with the indices its pairs ask for, in order of first
    appearance."""
    groups: dict[int, list[int]] = {}
    for pos, ex in enumerate(owners):
        groups.setdefault(id(ex), []).append(pos)
    batch = encode_batch(params, [owners[ps[0]] for ps in groups.values()],
                         [[indices[p] for p in ps] for ps in groups.values()])
    lanes = [None] * len(indices)
    for ps, encs in zip(groups.values(), batch):
        for pos, enc in zip(ps, encs):
            lanes[pos] = enc
    return lanes


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
    out = decode_logprob(params, [example] * len(indices), indices, z,
                         encoded=encode_context(params, example, indices)).data
    assert out.shape == (len(indices),)
    for pos, s in enumerate(indices):
        one = float(decode_logprob(params, example, s, z[pos]).data)
        assert out[pos] == pytest.approx(one, rel=TOL, abs=0)
        naive = verify.naive_response_logprob(params, example, s, z[pos])
        assert out[pos] == pytest.approx(naive, rel=TOL, abs=0)
        for other, t in enumerate(indices[:pos]):
            if truncated(example, s) == truncated(example, t):
                assert out[pos] == out[other]


@given(examples=st.lists(ragged_examples(), min_size=2, max_size=3), seed=st.integers(0, 3),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_cross_example_lanes_match_their_own_decodes_and_the_reference(examples, seed,
                                                                      data):
    # each lane teacher-forces its own example's response; equal lanes of one
    # example share, equal lanes of two examples never do
    params = ModelParams.init(CFG, seed=seed)
    lanes = data.draw(st.lists(st.integers(0, len(examples) - 1).flatmap(
        lambda e: st.tuples(st.just(e), st.integers(0, len(examples[e].candidates) - 1))),
        min_size=1, max_size=6))
    owners = [examples[e] for e, _ in lanes]
    indices = [s for _, s in lanes]
    z = np.stack([shared_latents(examples[e], [s], seed)[0] for e, s in lanes])
    out = decode_logprob(params, owners, indices, z,
                         encoded=pass_lanes(params, owners, indices)).data
    assert out.shape == (len(lanes),)
    for pos, (e, s) in enumerate(lanes):
        one = float(decode_logprob(params, examples[e], s, z[pos]).data)
        assert out[pos] == pytest.approx(one, rel=TOL, abs=0)
        naive = verify.naive_response_logprob(params, examples[e], s, z[pos])
        assert out[pos] == pytest.approx(naive, rel=TOL, abs=0)
        for other, (f, t) in enumerate(lanes[:pos]):
            if e == f and truncated(examples[e], s) == truncated(examples[f], t):
                assert out[pos] == out[other]


def test_lanes_of_two_examples_never_share():
    # the same truncated candidate and latent row, another history and response
    params = ModelParams.init(CFG, seed=1)
    first = DialogueExample(history=[4, 5], candidates=[[7, 8], [9]], gold_index=0,
                            response=[6, 7, EOS])
    second = DialogueExample(history=[10, 11, 4], candidates=[[5], [7, 8]], gold_index=0,
                             response=[5, EOS, 9])
    z = np.tile(np.linspace(-1.0, 1.0, CFG.latent_dim), (3, 1))
    owners = [first, second, first]
    out = decode_logprob(params, owners, [0, 1, 0], z,
                         encoded=pass_lanes(params, owners, [0, 1, 0])).data
    assert out[0] != out[1] and out[0] == out[2]
    for pos, (ex, s) in enumerate(((first, 0), (second, 1))):
        assert out[pos] == pytest.approx(float(decode_logprob(params, ex, s, z[pos]).data),
                                         rel=TOL, abs=0)


@given(example=ragged_examples(), seed=st.integers(0, 3),
       prior=st.sampled_from(["uniform", "learnable"]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_selection_weights_match_the_reference_in_both_priors(example, seed, prior, data):
    params = ModelParams.init(CFG, seed=seed)
    m = len(example.candidates)
    top_s = data.draw(st.none() | st.integers(1, m)) if prior == "uniform" else None
    # None: a top-S of every candidate, which the learnable prior always scores
    config = SpiConfig(model=CFG, prior=prior, top_s=top_s or m)
    [out] = select_knowledge_batch(params, [example], config,
                                   encodings_batch=[encode_context(params, example)])
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
    z = np.stack([latent_prior_means(params, [enc]).data[0] for enc in encodings])
    out = decode_logprob(params, [example] * 7, range(7), z, encoded=encodings).data
    assert out[1] == out[2] == out[3] == out[4]
    assert out[0] == out[5]
    assert len({out[0], out[1], out[6]}) == 3


def fixed_example() -> DialogueExample:
    return DialogueExample(history=[4, 5, 6], candidates=[[7, 8], [9], [7, 8], [10, 11, 4]],
                           gold_index=0, response=[6, 7, 5, EOS])


def z_gradient(params, example, s, z):
    """The score and its z-gradient, with the tape they came from."""
    weights = params.constant()
    with ad.Tape() as tape:
        zt = ad.Tensor(z, name="z", trainable=True)
        out = decode_logprob(weights, [example] * len(s), s, zt,
                             encoded=encode_context(weights, example, s))
        grad = ad.backward(tape, ad.reduce_sum(out))["z"]
    return out.data, grad, tape


def recorded_primitives(tape) -> set[str]:
    return {vjp.__qualname__.split(".<locals>")[0] for *_, vjp in tape._nodes}


def test_a_lone_lane_runs_the_one_candidate_ops():
    params = ModelParams.init(CFG, seed=3)
    example = fixed_example()
    z = np.linspace(-1.0, 1.0, CFG.latent_dim)
    one = decode_logprob(params, example, 0, z).data
    both = decode_logprob(params, [example] * 2, [2, 0], np.stack([z, z]),
                          encoded=encode_context(params, example, [2, 0])).data
    assert both[0] == one and both[1] == one
    # an int index is a scalar view of the one-index sequence's lane 0
    lane_score, lane_grad, _ = z_gradient(params, example, [0], z[None])
    assert one.shape == () and lane_score.shape == (1,) and lane_grad.shape == (1, z.size)
    assert one == lane_score[0]


def test_a_lone_lane_tape_holds_no_segment_attention():
    params = ModelParams.init(CFG, seed=3)
    example = fixed_example()
    z = np.linspace(-1.0, 1.0, CFG.latent_dim)
    *_, lone = z_gradient(params, example, [1], z[None])
    *_, pair = z_gradient(params, example, [1, 3], np.stack([z, -z]))
    assert "segment_attention" not in recorded_primitives(lone)
    assert "segment_attention" in recorded_primitives(pair)


def test_passed_encodings_give_the_same_scores():
    params = ModelParams.init(CFG, seed=1)
    example = fixed_example()
    indices = [3, 1, 0]
    z = shared_latents(example, indices, 5)
    encodings = encode_context(params, example, indices)
    owners = [example] * len(indices)
    assert np.array_equal(decode_logprob(params, owners, indices, z, encoded=encodings).data,
                          decode_logprob(params, owners, indices, z,
                                         encoded=encode_context(params, example, indices)).data)
    # the int form encodes its lane in a pass of its own unless handed one
    for pos, s in enumerate(indices):
        assert decode_logprob(params, example, s, z[pos], encoded=encodings[pos]).data == \
            decode_logprob(params, example, s, z[pos]).data


def test_lockstep_gradient_in_z_matches_each_candidate():
    # distinct latent rows make distinct lanes, each with its own gradient
    params = ModelParams.init(CFG, seed=2)
    example = fixed_example()
    indices = [3, 0, 2, 1]
    z = np.random.default_rng(4).normal(size=(len(indices), CFG.latent_dim))
    with ad.Tape() as tape:
        zt = ad.Tensor(z, name="z", trainable=True)
        # encoded on the tape, so the full tape runs from the encoder on
        lanes = encode_context(params, example, indices)
        grad = ad.backward(tape, ad.reduce_sum(decode_logprob(
            params, [example] * len(indices), indices, zt, encoded=lanes)))
    for pos, s in enumerate(indices):
        np.testing.assert_allclose(grad["z"][pos], decoder_grad_z(
            params, decode_plan(params, [example], [s], encode_context(params, example, [s])),
            z[pos:pos + 1])[0],
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
        decode_logprob(params, [example] * len(indices), indices, z, encoded=encoded)


def test_cross_example_contract_errors():
    params = ModelParams.init(CFG, seed=0)
    example = fixed_example()
    z = np.zeros((3, CFG.latent_dim))
    with pytest.raises(ContractError, match="2 examples for 3"):
        decode_logprob(params, [example, example], [0, 1, 2], z)
    with pytest.raises(ContractError, match="one example"):
        decode_logprob(params, [example], 0, z[0])


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
