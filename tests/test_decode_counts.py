"""Posterior selection scores its candidates in one decoder pass
(``decode_logprob`` call), in both prior modes: the call covers the
evaluated subset, the top min(top_s, M) under either prior, and its lanes
are the subset's distinct truncated candidates. A Langevin chain plans its decode once and runs only the
latent's part of it at each step. Evaluation decodes all its examples in two passes, one greedy
and one teacher-forced. A teacher-forced decode runs its output head once."""
from __future__ import annotations

import sys

import numpy as np
import pytest

from spi import autodiff as ad
from spi import inference, model
from spi.config import ModelConfig, SpiConfig, derived_rng
from spi.inference import select_knowledge_batch, sequential_posterior_infer
from spi.metrics import evaluate
from spi.model import EOS, DialogueExample, ModelParams

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
        calls["lanes"].append(len(encoded))
        return start(params, encoded, z)

    for name, module in list(sys.modules.items()):
        if name == "spi" or name.startswith("spi."):
            for attr, original, counting in (("decode_logprob", decode, counting_decode),
                                             ("decoder_start", start, counting_start)):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def taped_lanes(params, example, s):
    """The lanes of a sequence of indices, encoded on the caller's tape as
    the int form encodes its one lane."""
    return None if isinstance(s, int) else model.encode_context(params, example, s)


def owners(example, s):
    """The int form's lone example, or one example per lane of a sequence."""
    return example if isinstance(s, int) else [example] * len(s)


def distinct(indices) -> int:
    return len({tuple(EXAMPLE.candidates[s][:CFG.max_candidate]) for s in indices})


@pytest.mark.parametrize("top_s", [None, 4])
@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_one_decode_per_selection(decoder_calls, prior, top_s):
    # None: a top-S of every candidate
    params = ModelParams.init(CFG, seed=2)
    config = SpiConfig(model=CFG, prior=prior, top_s=top_s or len(EXAMPLE.candidates))
    [out] = select_knowledge_batch(params, [EXAMPLE], config,
                                   encodings_batch=[model.encode_context(params, EXAMPLE)])
    assert decoder_calls["decode"] == [list(out.evaluated)]
    assert decoder_calls["lanes"] == [distinct(out.evaluated)]
    assert len(out.evaluated) == (top_s or len(EXAMPLE.candidates))


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_inference_makes_one_selection_decode_then_one_per_langevin_step(decoder_calls,
                                                                         prior, monkeypatch):
    plans, runs = [], []
    plan, grad_z = inference.decode_plan, inference.decoder_grad_z

    def counting_plan(params, example, s, encoded):
        plans.append(s)
        return plan(params, example, s, encoded=encoded)

    def counting_grad(params, decode, z):
        runs.append(decode)
        return grad_z(params, decode, z)

    monkeypatch.setattr(inference, "decode_plan", counting_plan)
    monkeypatch.setattr(inference, "decoder_grad_z", counting_grad)
    config = SpiConfig(model=CFG, prior=prior, top_s=4, langevin_steps=3)
    params = ModelParams.init(CFG, seed=5)
    [pair] = sequential_posterior_infer(params, [EXAMPLE], config, [derived_rng(1, 2)],
                                        [model.encode_context(params, EXAMPLE)])
    # the selection is the one full decode, of the top 4 of 7 under either prior
    [subset] = decoder_calls["decode"]
    assert len(subset) == 4
    # the chain plans the pick's decode once, then each step runs that plan:
    # one cursor of one lane per step, from the plan's lanes
    assert plans == [[pair.s]]
    assert len(runs) == 3 and all(run is runs[0] for run in runs)
    assert decoder_calls["lanes"] == [distinct(subset)] + [1] * 3


@pytest.mark.parametrize("s", [1, [0, 1, 3, 2, 5]])
def test_taped_decode_applies_the_output_head_once(s):
    params = ModelParams.init(CFG, seed=3)
    lanes = 1 if isinstance(s, int) else len(s)
    z = np.random.default_rng(0).normal(size=(lanes, CFG.latent_dim) if lanes > 1
                                        else CFG.latent_dim)
    with ad.Tape() as tape:
        model.decode_logprob(params, owners(EXAMPLE, s), s, z,
                             encoded=taped_lanes(params, EXAMPLE, s))
    uses = [inputs for _, inputs, _, _ in tape._nodes
            if any(t is params["out_w"] for t in inputs)]
    assert len(uses) == 1
    # every step of every lane in one product (distinct latents: no lane is shared)
    assert uses[0][0].shape == (len(EXAMPLE.response) * lanes, CFG.dec_hidden_dim)


def test_evaluate_decodes_every_example_in_one_greedy_and_one_teacher_forced_pass(
        decoder_calls):
    examples = [DialogueExample(history=[4 + i, 5, 6][:3 - i % 2], candidates=EXAMPLE.candidates,
                                gold_index=1, response=EXAMPLE.response[i % 2:])
                for i in range(4)]
    params = ModelParams.init(CFG, seed=4)
    report = evaluate(params, examples, SpiConfig(model=CFG))
    assert report.n_examples == 4
    [picks] = decoder_calls["decode"]
    assert len(picks) == 4
    # greedy generation, then the decode that scores the references
    assert decoder_calls["lanes"] == [4, 4]


def _uses(tape, tensor) -> list[str]:
    """The primitive of every node on the tape that reads ``tensor``."""
    return [vjp.__qualname__.split(".<locals>")[0] for _, inputs, _, vjp in tape._nodes
            if any(t is tensor for t in inputs)]


def _projected_rows(tape, weight) -> list[int]:
    """The rows each product with ``weight`` on the tape projects; a product
    that adds an addend has it as a third input."""
    return [inputs[0].shape[0] for _, inputs, _, _ in tape._nodes
            if len(inputs) >= 2 and inputs[1] is weight]


def _adding(tape, bias) -> list:
    """The weight of each product on the tape that adds ``bias``."""
    return [inputs[1] for _, inputs, _, _ in tape._nodes
            if len(inputs) == 3 and inputs[2] is bias]


@pytest.mark.parametrize("s", [1, [0, 1, 3, 2, 5]])
def test_a_taped_decode_projects_its_inputs_once_whatever_its_length(s):
    params = ModelParams.init(CFG, seed=3)
    lanes = 1 if isinstance(s, int) else len(s)
    z = np.random.default_rng(0).normal(size=(lanes, CFG.latent_dim) if lanes > 1
                                        else CFG.latent_dim)
    for response in ([6, EOS], [6, 7, 5, 4, 8, 9, EOS]):
        example = DialogueExample(history=EXAMPLE.history, candidates=EXAMPLE.candidates,
                                  gold_index=1, response=response)
        with ad.Tape() as tape:
            model.decode_logprob(params, owners(example, s), s, z,
                                 encoded=taped_lanes(params, example, s))
        # the inputs' projection with its bias, and the slots' attention
        # projection with the attention bias: once per decode, each bias
        # added by its product's node; the projection covers the tokens read
        # (the lanes share one response), not the vocabulary
        assert _uses(tape, params["dec_wx"]) == ["matmul"]
        assert _projected_rows(tape, params["dec_wx"]) == [len(response)]
        assert _uses(tape, params["dec_b"]) == ["matmul"]
        assert _uses(tape, params["att_b"]) == ["matmul"]
        assert _adding(tape, params["dec_b"]) == [params["dec_wx"]]
        assert _adding(tape, params["att_b"]) == [params["att_enc"]]
        # what reads the state: once per step
        assert _uses(tape, params["dec_wh"]) == ["matmul"] * len(response)
        assert _uses(tape, params["att_dec"]) == ["matmul"] * len(response)


@pytest.mark.parametrize("n_examples", [1, 3])
def test_a_taped_encoder_pass_projects_its_inputs_once_whatever_its_length(n_examples):
    params = ModelParams.init(CFG, seed=3)
    for history in ([4], [4, 5, 6, 7, 8, 9]):
        examples = [DialogueExample(history=history[i:], candidates=EXAMPLE.candidates,
                                    gold_index=1, response=EXAMPLE.response)
                    for i in range(n_examples)]
        with ad.Tape() as tape:
            model.encode_batch(params, examples)
        # the bias is added by the projection's node
        assert _uses(tape, params["enc_wx"]) == ["matmul"]
        assert _uses(tape, params["enc_b"]) == ["matmul"]
        assert _adding(tape, params["enc_b"]) == [params["enc_wx"]]
        # the projection covers the pass's token rows, not the vocabulary:
        # each example's prefix, then its distinct truncated candidates
        lanes = distinct(range(len(EXAMPLE.candidates)))
        assert _projected_rows(tape, params["enc_wx"]) == [
            n_examples * (len(history) + 1 + lanes * CFG.max_candidate)]
        # one recurrent product per step: the prefix with its separator, then
        # the longest truncated candidate
        steps = len(history) + 1 + CFG.max_candidate
        assert _uses(tape, params["enc_wh"]) == ["matmul"] * steps


def test_latent_rows_are_gathered_only_when_pairs_share_a_lane():
    params = ModelParams.init(CFG, seed=3)
    rng = np.random.default_rng(1)
    # distinct lanes take z as it is; candidates 0 and 2 are equal, and with
    # equal latent rows the two pairs share one lane, which a gather picks
    for s, z, want in (([0, 1, 3], rng.normal(size=(3, CFG.latent_dim)), ["matmul"]),
                       ([0, 2], np.ones((2, CFG.latent_dim)), ["gather_rows"])):
        with ad.Tape() as tape:
            zt = ad.Tensor(z, name="z", trainable=True)
            model.decode_logprob(params.constant(), [EXAMPLE] * len(s), s, zt,
                                 encoded=model.encode_context(params, EXAMPLE, s))
        assert _uses(tape, zt) == want
