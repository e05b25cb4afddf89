"""A k-lane decoder step takes its additive attention as one
``segment_attention`` node, over slots and projections laid out as the
padded windows once per decode, by one gather: the node count and the
tape's bytes of a lockstep step, and ragged lockstep decodes against
one-lane decodes in value and z-gradient."""
from __future__ import annotations

import numpy as np
import pytest

from spi import autodiff as ad
from spi import verify
from spi.config import ModelConfig, derived_rng
from spi.data import SyntheticSpec, generate_corpus
from spi.inference import decoder_grad_z
from spi.model import (ModelParams, _decoder_inputs, _decoder_step, decode_logprob, decode_plan,
                       decoder_lanes, decoder_start, encode_batch, encode_context,
                       latent_prior_means)


def primitives(nodes) -> list[str]:
    return [vjp.__qualname__.split(".<locals>")[0] for *_, vjp in nodes]


def desk_lanes(k: int):
    """Desk-sized weights and k validation examples of a seed-101 corpus,
    each with its candidate 0 as a lane of one pass."""
    corpus = generate_corpus(SyntheticSpec(n_train=2, n_valid=k, n_test=2, seed=101))
    params = ModelParams.init(ModelConfig(vocab_size=corpus.vocab.size), seed=3)
    examples = corpus.valid[:k]
    lanes = [encs[0] for encs in encode_batch(params, examples, [[0]] * k)]
    return params, examples, lanes


@pytest.mark.parametrize("lengths", [(2, 1, 3), (2, 2, 2)], ids=["ragged", "tiled"])
def test_a_lockstep_step_records_one_attention_node(lengths):
    cfg = verify._tiny_model_config()
    params = ModelParams.init(cfg, seed=4)
    example = verify._random_example(derived_rng(3, 1), cfg.vocab_size, m=3)
    example.candidates = [list(range(4, 4 + n)) for n in lengths]
    encs = encode_context(params, example)
    z = ad.Tensor(np.random.default_rng(2).normal(size=(3, cfg.latent_dim)))
    with ad.Tape() as tape:
        cur = decoder_start(params, decoder_lanes(params, encs), z)
        start = len(tape)
        # a greedy decode's step: its ids' input projection, then the step
        cur = _decoder_step(params, cur, _decoder_inputs(params, np.array([5, 6, 7])))
        step = tape._nodes[start:]
    # the input projection, the lanes' queries, the attention, and the state:
    # the context's product, then the recurrent product with its tanh
    assert primitives(step) == ["gather_rows", "matmul", "matmul", "segment_attention",
                                "matmul", "matmul"]
    assert step[-1][0] is cur.state
    # the projections are read by the attention node alone
    assert [name for name, (_, inputs, _, _) in zip(primitives(tape._nodes), tape._nodes)
            if any(t is cur.proj for t in inputs)] == ["segment_attention"]
    # the slots and their projections in one layout, a row per lane and column
    live = cur.windows.live
    assert cur.slots.shape == (live.size, cfg.hidden_dim)
    assert cur.proj.shape == (live.size, cfg.att_dim)
    assert live.all() == (len(set(lengths)) == 1)


@pytest.mark.parametrize("lengths", [(2, 1, 3), (2, 2, 2)], ids=["ragged", "tiled"])
def test_decoder_start_lays_out_k_lanes_slots_with_one_gather(lengths):
    cfg = verify._tiny_model_config()
    params = ModelParams.init(cfg, seed=4)
    example = verify._random_example(derived_rng(3, 1), cfg.vocab_size, m=3)
    example.candidates = [list(range(4, 4 + n)) for n in lengths]
    encs = encode_context(params, example)
    lanes = decoder_lanes(params, encs)
    z = ad.Tensor(np.random.default_rng(2).normal(size=(3, cfg.latent_dim)), name="z",
                  trainable=True)
    with ad.Tape() as tape:
        cur = decoder_start(params, lanes, z)
    # the latent rows, their concatenation to the states, one gather into
    # the padded layout and the projection, for ragged lanes as for equal ones
    assert primitives(tape._nodes) == ["matmul", "concat", "gather_rows", "matmul"]
    # lane j's entries: its encoder rows, then its latent row, repeated past its end
    k, width = cur.windows.live.shape
    laid = cur.slots.data.reshape(k, width, -1)
    for j, (enc, n) in enumerate(zip(encs, cur.windows.lengths)):
        assert np.array_equal(laid[j, :n - 1], enc.states.data)
        assert (laid[j, n - 1:] == laid[j, n - 1]).all()
    assert len({laid[j, n - 1].tobytes() for j, n in enumerate(cur.windows.lengths)}) == k


def test_a_ragged_lockstep_decode_matches_one_lane_decodes():
    # lanes of two examples with ragged candidates, each against its own response
    cfg = ModelConfig(vocab_size=20, hidden_dim=16, att_dim=8, latent_dim=6)
    params = ModelParams.init(cfg, seed=6, scale=0.3)
    rng = derived_rng(12, 1)
    pair = [verify._ragged_example(rng, cfg, hist_len=h) for h in (3, 9)]
    encoded = encode_batch(params, pair)
    # every distinct encoding of both examples, one lane each, interleaved
    lanes = sorted({id(enc): enc for encs in encoded for enc in encs}.values(),
                   key=lambda enc: (enc.indices[0], enc.example is pair[1]))
    owners, picks = [enc.example for enc in lanes], [enc.indices[0] for enc in lanes]
    z = rng.normal(size=(len(picks), cfg.latent_dim))
    scores = decode_logprob(params, owners, picks, z, encoded=lanes).data
    grads = decoder_grad_z(params, decode_plan(params, owners, picks, encoded=lanes), z)
    for j, (ex, s) in enumerate(zip(owners, picks)):
        alone = encode_context(params, ex, [s])
        np.testing.assert_allclose(scores[j], decode_logprob(params, [ex], [s], z[j:j + 1],
                                                             encoded=alone).data[0],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(grads[j], decoder_grad_z(params, decode_plan(
                                       params, [ex], [s], encoded=alone), z[j:j + 1])[0],
                                   rtol=0, atol=1e-10)


# node outputs of the 16-lane chain step below: 3.56 MB when each step
# recorded the lanes' queries gathered to every slot, their sum with the
# projections, its tanh and the scores as nodes of their own; 1.40 MB with
# one attention node per step. A guard for chains of training's width.
CHAIN_STEP_BYTES = 1.5e6


def test_a_16_lane_desk_chain_step_keeps_its_tape_small():
    params, examples, lanes = desk_lanes(16)
    z = latent_prior_means(params, lanes).data
    with ad.Tape() as tape:
        zt = ad.Tensor(z, name="z", trainable=True)
        out = decode_logprob(params.constant(), examples, [0] * 16, zt, encoded=lanes)
        held = sum(node[0].data.nbytes for node in tape._nodes)
        grad = ad.backward(tape, ad.reduce_sum(out))["z"]
    assert grad.shape == z.shape
    assert held < CHAIN_STEP_BYTES
    assert primitives(tape._nodes).count("segment_attention") == max(
        len(ex.response) for ex in examples)
