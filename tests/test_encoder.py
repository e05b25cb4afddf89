"""The one-pass encoder against the plain-numpy reference in ``verify``:
ragged candidate lengths (empty, capped and past the cap), histories past
their cap or empty, repeated candidates and index subsets; plus a gradient
check of the learnable-prior surrogate on a ragged example."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import verify
from spi.autodiff import Tensor, gradcheck
from spi.errors import ContractError
from spi.model import EOS, DialogueExample, ModelParams, decode_logprob, encode_context
from spi.training import surrogate_objective

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
    candidates = [list(distinct[i]) for i in picks]
    response = draw(tokens(st.integers(0, 4))) + [EOS]
    return DialogueExample(history=history, candidates=candidates, gold_index=0,
                           response=response)


def same_truncated(example: DialogueExample, a: int, b: int) -> bool:
    cap = CFG.max_candidate
    return example.candidates[a][:cap] == example.candidates[b][:cap]


@given(example=ragged_examples(), seed=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_pass_matches_the_reference(example, seed, data):
    params = ModelParams.init(CFG, seed=seed)
    m = len(example.candidates)
    indices = data.draw(st.none() | st.lists(st.integers(0, m - 1), min_size=1, max_size=m + 2))
    requested = list(range(m)) if indices is None else indices
    encodings = encode_context(params, example, indices)
    assert len(encodings) == len(requested)
    z = np.linspace(-0.5, 0.5, CFG.latent_dim)
    for enc, s in zip(encodings, requested):
        cand_len = min(len(example.candidates[s]), CFG.max_candidate)
        hist_len = min(len(example.history), CFG.max_history)
        assert enc.states.shape == (hist_len + 1 + cand_len, CFG.hidden_dim)
        np.testing.assert_allclose(enc.pooled.data, verify._naive_pooled(params, example, s),
                                   rtol=0, atol=TOL)
        fast = float(decode_logprob(params, example, s, z, encoded=enc).data)
        assert fast == pytest.approx(verify.naive_response_logprob(params, example, s, z),
                                     rel=TOL, abs=0)
    for a, (enc_a, s_a) in enumerate(zip(encodings, requested)):
        for enc_b, s_b in zip(encodings[a + 1:], requested[a + 1:]):
            if same_truncated(example, s_a, s_b):
                assert np.array_equal(enc_a.states.data, enc_b.states.data)
                assert np.array_equal(enc_a.pooled.data, enc_b.pooled.data)


def test_candidates_equal_after_truncation_share_one_encoding():
    # six equal lockstep rows through a (6, 32) @ (32, 10) product: the matrix
    # product may round some of them differently, a shared encoding may not
    cfg = replace(CFG, embed_dim=32, hidden_dim=10)
    params = ModelParams.init(cfg, seed=2)
    head = [5, 6, 7, 8, 9, 10]
    candidates = [head + [4]] * 3 + [head] + [head + [11, 9]] * 2 + [[7]]
    example = DialogueExample(history=[4, 5], candidates=candidates, gold_index=0,
                              response=[6, EOS])
    encodings = encode_context(params, example)
    for enc in encodings[1:6]:
        assert np.array_equal(enc.states.data, encodings[0].states.data)
        assert np.array_equal(enc.pooled.data, encodings[0].pooled.data)
    assert not np.array_equal(encodings[6].pooled.data, encodings[0].pooled.data)


def test_empty_candidate_with_empty_history_rejected_among_others():
    params = ModelParams.init(CFG, seed=0)
    example = DialogueExample(history=[], candidates=[[5, 6], []], gold_index=0,
                              response=[6, EOS])
    assert len(encode_context(params, example, [0])) == 1
    with pytest.raises(ContractError, match="empty history"):
        encode_context(params, example)


def test_learnable_surrogate_gradient_on_a_ragged_example():
    # one taped pass feeds the pick's terms and every prior logit
    params = ModelParams.init(CFG, seed=4)
    rng = np.random.default_rng(8)
    example = verify._ragged_example(rng, CFG, hist_len=CFG.max_history + 2)
    s = len(example.candidates) - 1
    z = rng.normal(size=CFG.latent_dim)
    for name in ("embed", "enc_wx", "enc_wh", "enc_b", "kprior_w", "dec_init_w"):
        def objective(x: Tensor, _name=name) -> Tensor:
            return surrogate_objective(verify._swap(params, _name, x), example, s, z,
                                       "learnable")

        report = gradcheck(objective, params.tensors[name].data, tol=1e-4, h=1e-4)
        assert report.passed, f"{name}: {report}"
