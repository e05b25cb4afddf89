"""The batch encoder against the one-example pass and the plain-numpy
reference in ``verify``: ragged batches mixing empty, short, capped and
over-long histories, candidates from empty to past their cap, repeats within
an example and equal candidates across examples, and index subsets; plus
generation over a batch against one example at a time."""
from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import autodiff as ad
from spi import generation, model, verify
from spi.errors import ContractError
from spi.generation import generate, generate_batch
from spi.model import EOS, DialogueExample, ModelParams, encode_batch, encode_context

CFG = verify._tiny_model_config()
TOL = 1e-12


def tokens(lengths):
    """Token lists whose length is drawn from ``lengths``."""
    return lengths.flatmap(lambda k: st.lists(st.integers(4, CFG.vocab_size - 1),
                                              min_size=k, max_size=k))


@st.composite
def ragged_batches(draw):
    # one pool of candidates for the batch, so equal candidates recur within
    # an example and across examples
    pool = draw(st.lists(tokens(st.integers(0, CFG.max_candidate + 2)), min_size=1,
                         max_size=5))
    examples = []
    for _ in range(draw(st.integers(1, 4))):
        history = draw(tokens(st.sampled_from([0, 1, CFG.max_history,
                                               CFG.max_history + 3])))
        # an empty history needs non-empty candidates: the encoder rejects [SEP] alone
        usable = [c for c in pool if history or c] or [[4]]
        picks = draw(st.lists(st.sampled_from(range(len(usable))), min_size=1, max_size=5))
        examples.append(DialogueExample(history=history,
                                        candidates=[list(usable[i]) for i in picks],
                                        gold_index=0, response=[5, EOS]))
    return examples


@given(examples=ragged_batches(), seed=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_each_lane_matches_its_one_example_pass(examples, seed, data):
    params = ModelParams.init(CFG, seed=seed)
    indices = [data.draw(st.none() | st.lists(st.integers(0, len(ex.candidates) - 1),
                                              min_size=1, max_size=len(ex.candidates) + 2))
               for ex in examples]
    batch = encode_batch(params, examples, indices)
    assert len(batch) == len(examples)
    seen: dict[int, int] = {}  # id of an encoding -> its example
    for e, (ex, wanted, encodings) in enumerate(zip(examples, indices, batch)):
        requested = list(range(len(ex.candidates))) if wanted is None else wanted
        assert len(encodings) == len(requested)
        for enc, s in zip(encodings, requested):
            alone = encode_context(params, ex, [s])[0]
            np.testing.assert_allclose(enc.states.data, alone.states.data, rtol=0, atol=TOL)
            np.testing.assert_allclose(enc.pooled.data, alone.pooled.data, rtol=0, atol=TOL)
            np.testing.assert_allclose(enc.pooled.data, verify._naive_pooled(params, ex, s),
                                       rtol=0, atol=TOL)
            # lanes of different examples never share an encoding
            assert seen.setdefault(id(enc), e) == e
        cap = CFG.max_candidate
        for a, s_a in enumerate(requested):
            for b, s_b in enumerate(requested):
                same = ex.candidates[s_a][:cap] == ex.candidates[s_b][:cap]
                assert (encodings[a] is encodings[b]) == same


@given(examples=ragged_batches(), seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_the_pass_pools_every_lane_as_the_plain_numpy_reference(examples, seed):
    params = ModelParams.init(CFG, seed=seed)
    batch = encode_batch(params, examples)
    pooled = batch[0][0]._pass.pooled.data  # one matrix for the pass
    assert pooled.shape[0] == len({id(enc) for encs in batch for enc in encs})
    for ex, encodings in zip(examples, batch):
        for s, enc in enumerate(encodings):
            assert enc._pass.pooled.data is pooled
            np.testing.assert_allclose(pooled[enc.lane], verify._naive_pooled(params, ex, s),
                                       rtol=0, atol=TOL)


def test_pooling_makes_no_per_lane_primitive_calls(monkeypatch):
    # with a tape open every primitive call hands its adjoint to ``_emit``,
    # whose name tells the primitive; off the tape no adjoint is built
    calls = []
    emit = ad._emit

    def counting(out, inputs, vjp):
        calls.append(vjp.__qualname__.split(".<locals>")[0])
        return emit(out, inputs, vjp)

    monkeypatch.setattr(ad, "_emit", counting)
    params = ModelParams.init(CFG, seed=1)
    counts = []
    for n_ex, m in ((2, 1), (2, 5), (6, 5)):  # 2, 10 and 30 lanes, equal lengths
        examples = [DialogueExample(history=[4, 5, 6], candidates=[[7 + i, 8] for i in range(m)],
                                    gold_index=0, response=[5, EOS]) for _ in range(n_ex)]
        calls.clear()
        with ad.Tape():
            encode_batch(params, examples)
        counts.append(len(calls))
        assert calls.count("reduce_mean") == 1  # every lane of the pass at once
    assert counts[0] == counts[1] == counts[2]


def test_equal_candidates_get_equal_logits_from_the_batched_head():
    params = ModelParams.init(CFG, seed=2, scale=0.8)
    cap = CFG.max_candidate
    examples = [DialogueExample(history=[4, 5], candidates=[[6, 7], [8], [6, 7], [8, 9]],
                                gold_index=0, response=[5, EOS]),
                DialogueExample(history=[9], candidates=[[4] * (cap + 1), [5], [4] * (cap + 2)],
                                gold_index=0, response=[5, EOS])]
    batch = encode_batch(params, examples)
    for head in ("initializer", "knowledge_prior"):
        logits = model.head_logits(params, head, [enc for encs in batch for enc in encs]).data
        first, second = logits[:4], logits[4:]
        assert first[0] == first[2] and second[0] == second[2]
        assert len(set(first.tolist())) == 3 and len(set(second.tolist())) == 2
    for prior in ("uniform", "learnable"):
        # ties resolve to the lowest index
        params_tied = ModelParams.init(CFG, seed=2)
        params_tied["init_w"].data[:] = params_tied["kprior_w"].data[:] = 0.0
        assert generation.pick_knowledge(params_tied, encode_batch(params_tied, examples),
                                         prior=prior) == [0, 0]


def test_equal_examples_get_their_own_lanes():
    params = ModelParams.init(CFG, seed=1)
    ex = DialogueExample(history=[4, 5], candidates=[[6, 7], [6, 7]], gold_index=0,
                         response=[5, EOS])
    first, second = encode_batch(params, [ex, ex])
    assert first[0] is first[1] and second[0] is second[1]
    assert first[0] is not second[0]
    np.testing.assert_allclose(first[0].pooled.data, second[0].pooled.data, rtol=0, atol=TOL)


def test_batch_arguments_are_checked():
    params = ModelParams.init(CFG, seed=1)
    ex = DialogueExample(history=[], candidates=[[6, 7], []], gold_index=0,
                         response=[5, EOS])
    assert encode_batch(params, []) == []
    assert encode_batch(params, [ex], [[]]) == [[]]
    with pytest.raises(ContractError, match="index lists"):
        encode_batch(params, [ex], [[0], [0]])
    with pytest.raises(ContractError, match="out of range"):
        encode_batch(params, [ex, ex], [[0], [2]])
    with pytest.raises(ContractError, match="empty history"):
        encode_batch(params, [ex, ex], [[0], None])


def test_lanes_read_together_come_from_one_pass():
    params = ModelParams.init(CFG, seed=1)
    ex = DialogueExample(history=[5, 6], candidates=[[6, 7], [8], [9, 9]], gold_index=0,
                         response=[5, EOS])
    one = encode_context(params, ex)
    two = [one[0], encode_context(params, ex)[1]]  # lanes of two passes
    z = np.zeros((2, CFG.latent_dim))
    for read in (lambda encs: model.head_logits(params, "initializer", encs),
                 lambda encs: model.latent_prior_means(params, encs),
                 model.keep_lanes,
                 lambda encs: model.decoder_lanes(params, encs),
                 lambda encs: model.decode_logprob(params, [ex] * 2, [0, 1], z, encoded=encs)):
        read(one[:2])  # lanes of one pass
        with pytest.raises(ContractError, match="one encoder pass"):
            read(two)


def test_empty_lane_sets_end_in_a_contract_error():
    params = ModelParams.init(CFG, seed=1)
    for head in ("initializer", "knowledge_prior"):
        with pytest.raises(ContractError, match="no encodings"):
            model.head_logits(params, head, [])
    with pytest.raises(ContractError, match="no encodings"):
        model.latent_prior_means(params, [])
    for prior in ("uniform", "learnable"):
        assert generation.pick_knowledge(params, [], prior=prior) == []


def test_lane_reads_take_the_pass_as_it_is_or_one_gather():
    params = ModelParams.init(CFG, seed=1)
    examples = _generation_batch()
    # equal candidates of one example share a lane
    lanes = list({id(enc): enc for encs in encode_batch(params, examples)
                  for enc in encs}.values())
    pass_ = lanes[0]._pass
    assert [enc.lane for enc in lanes] == list(range(pass_.pooled.shape[0]))
    # every lane of the pass in order: its pooled rows with no gather
    assert model._lane_pooled(lanes) is pass_.pooled
    picked = [lanes[4], lanes[1], lanes[4]]
    pooled = model._lane_pooled(picked)
    states, lengths = model._lane_states(picked)
    assert np.array_equal(pooled.data, np.stack([enc.pooled.data for enc in picked]))
    assert np.array_equal(states.data, np.concatenate([enc.states.data for enc in picked]))
    assert lengths.tolist() == [enc.states.shape[0] for enc in picked]
    # a kept pass holds its lanes' rows alone, in order: read as it is
    kept = model.keep_lanes(picked)
    assert model._lane_states(kept)[0] is kept[0]._pass.rows
    assert model._lane_pooled(kept) is kept[0]._pass.pooled
    assert np.array_equal(model._lane_states(kept)[0].data, states.data)


def _generation_batch():
    return [DialogueExample(history=list(h), candidates=[list(c) for c in cands],
                            gold_index=0, response=[5, EOS])
            for h, cands in (((), ((6, 7), (8,))),
                             ((4,) * (CFG.max_history + 3), ((), (9, 9, 9))),
                             ((5, 6), ((6, 7), (6, 7), (4,) * (CFG.max_candidate + 2))),
                             ((7,), ((8,),)))]


@pytest.mark.parametrize("chunk", [1, 3, generation.ENCODE_CHUNK])
@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_generate_batch_gives_the_tokens_of_one_example_at_a_time(prior, chunk, monkeypatch):
    monkeypatch.setattr(generation, "ENCODE_CHUNK", chunk)
    params = ModelParams.init(CFG, seed=3, scale=0.8)
    examples = _generation_batch()
    batch = generate_batch(params, examples, prior=prior, max_len=6)
    for got, ex in zip(batch, examples):
        want = generate(params, ex, prior=prior, max_len=6)
        assert got.s == want.s and got.tokens == want.tokens
        if chunk == 1:  # one-example passes: the latents are the same bits
            assert np.array_equal(got.z, want.z)
        np.testing.assert_allclose(got.z, want.z, rtol=0, atol=TOL)


def test_generate_batch_keeps_the_picked_lanes_only(monkeypatch):
    monkeypatch.setattr(generation, "ENCODE_CHUNK", 3)
    kept_calls = []
    keep = generation.keep_lanes

    def counting(encodings):
        kept = keep(encodings)
        kept_calls.append((encodings, kept))
        return kept

    monkeypatch.setattr(generation, "keep_lanes", counting)
    read = []
    states = model.EncodedContext.states

    def reading(enc):
        read.append(enc)
        return states.fget(enc)

    monkeypatch.setattr(model.EncodedContext, "states", property(reading))
    params = ModelParams.init(CFG, seed=3)
    examples = _generation_batch()
    results = generate_batch(params, examples, prior="uniform", max_len=4)
    # one gather per pass keeps each example's pick, in a pass of its own
    # that holds the picks' rows and nothing else
    assert [len(encodings) for encodings, _ in kept_calls] == [3, 1]
    picked = [enc for encodings, _ in kept_calls for enc in encodings]
    passes = encode_batch(params, examples)
    for enc, encs, result in zip(picked, passes, results):
        assert enc.states.data.shape == encs[result.s].states.data.shape
    for _, kept in kept_calls:
        assert kept[0]._pass.rows.shape[0] == sum(enc.states.shape[0] for enc in kept)
    # a multi-lane decode reads no lane's states one at a time; a one-lane
    # decode (the second chunk's) reads its lone lane's, once
    read.clear()
    kept_calls.clear()
    generate_batch(params, examples, prior="uniform", max_len=4)
    assert [len(kept) for _, kept in kept_calls] == [3, 1]
    assert read == [kept_calls[1][1][0]]


@pytest.mark.parametrize("chunk", [1, 3])
def test_generate_batch_lets_the_picked_lanes_go_for_the_decode(chunk, monkeypatch):
    # the cursor holds the picked rows, so no kept pass lives through the steps
    monkeypatch.setattr(generation, "ENCODE_CHUNK", chunk)
    kept_rows, alive = [], []
    keep, step = generation.keep_lanes, generation._decoder_step

    def tracking(encodings):
        kept = keep(encodings)
        kept_rows.append(weakref.ref(kept[0]._pass.rows.data))
        return kept

    def checking(params, cursor, x):
        alive.append(sum(ref() is not None for ref in kept_rows))
        return step(params, cursor, x)

    monkeypatch.setattr(generation, "keep_lanes", tracking)
    monkeypatch.setattr(generation, "_decoder_step", checking)
    params = ModelParams.init(CFG, seed=3)
    examples = _generation_batch()
    generate_batch(params, examples, prior="uniform", max_len=4)
    assert len(kept_rows) == -(-len(examples) // chunk) and alive and set(alive) == {0}
    alive.clear()
    generate(params, examples[0], prior="uniform", max_len=4)
    assert alive and set(alive) == {0}
