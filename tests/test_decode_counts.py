"""Posterior selection scores its candidates in one decoder pass
(``decode_logprob`` call), in both prior modes: the call covers the
evaluated subset, and its lanes are the subset's distinct truncated
candidates."""
from __future__ import annotations

import sys

import pytest

from spi import model
from spi.config import ModelConfig, SpiConfig, derived_rng
from spi.inference import select_knowledge, sequential_posterior_infer
from spi.model import EOS, DialogueExample, EncodedContext, ModelParams

CFG = ModelConfig(vocab_size=16, embed_dim=4, hidden_dim=5, att_dim=3, dec_hidden_dim=5,
                  latent_dim=2, max_history=8, max_candidate=3, max_response=8)

# seven candidates, five distinct once truncated to three tokens
EXAMPLE = DialogueExample(history=[4, 5, 6],
                          candidates=[[7, 8], [9, 10, 11, 12], [7, 8], [13], [9, 10, 11],
                                      [14, 15, 4], [13]],
                          gold_index=1, response=[6, 7, 5, EOS])


@pytest.fixture
def decoder_calls(monkeypatch):
    """Records the candidates of every ``decode_logprob`` call and the lanes
    of every ``decoder_start``, wherever a module of the package refers to
    them."""
    calls = {"decode": [], "lanes": []}
    decode, start = model.decode_logprob, model.decoder_start

    def counting_decode(params, example, s, z, encoded=None):
        calls["decode"].append(s if isinstance(s, int) else list(s))
        return decode(params, example, s, z, encoded=encoded)

    def counting_start(params, encoded, z):
        calls["lanes"].append(1 if isinstance(encoded, EncodedContext) else len(encoded))
        return start(params, encoded, z)

    for name, module in list(sys.modules.items()):
        if name == "spi" or name.startswith("spi."):
            for attr, original, counting in (("decode_logprob", decode, counting_decode),
                                             ("decoder_start", start, counting_start)):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def distinct(indices) -> int:
    return len({tuple(EXAMPLE.candidates[s][:CFG.max_candidate]) for s in indices})


@pytest.mark.parametrize("prior, top_s", [("uniform", None), ("uniform", 4),
                                          ("learnable", None)])
def test_one_decode_per_selection(decoder_calls, prior, top_s):
    params = ModelParams.init(CFG, seed=2)
    out = select_knowledge(params, EXAMPLE, prior=prior, top_s=top_s)
    assert decoder_calls["decode"] == [list(out.evaluated)]
    assert decoder_calls["lanes"] == [distinct(out.evaluated)]
    assert len(out.evaluated) == (top_s or len(EXAMPLE.candidates))


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_inference_makes_one_selection_decode_then_one_per_langevin_step(decoder_calls,
                                                                         prior):
    config = SpiConfig(model=CFG, prior=prior, top_s=4, langevin_steps=3)
    params = ModelParams.init(CFG, seed=5)
    pair = sequential_posterior_infer(params, EXAMPLE, config, rng=derived_rng(1, 2))
    subset, *steps = decoder_calls["decode"]
    assert len(subset) == (4 if prior == "uniform" else len(EXAMPLE.candidates))
    assert steps == [pair.s] * 3
    assert decoder_calls["lanes"] == [distinct(subset)] + [1] * 3
