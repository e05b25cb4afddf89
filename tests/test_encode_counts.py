"""Each stage encodes its examples in batch passes (``encode_batch`` calls)
and reuses them: counts of passes per stage, agreement with encoding from
scratch, and the rule that only the drivers encode: a function handed its
lanes makes no pass of its own."""
from __future__ import annotations

import sys
from dataclasses import replace

import pytest

import numpy as np

from spi import autodiff as ad
from spi import generation, model
from spi.config import SEED_VALID, ModelConfig, SpiConfig, derived_rng
from spi.data import SyntheticSpec, generate_corpus
from spi.errors import ContractError
from spi.generation import generate, pick_knowledge
from spi.inference import select_knowledge_batch, sequential_posterior_infer
from spi.metrics import evaluate, perplexity
from spi.model import ModelParams, decode_logprob, decode_plan, encode_batch, encode_context
from spi.training import (head_ce_loss, multi_hot_labels, surrogate_objectives, train,
                          validation_loss)

M = 8


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SyntheticSpec(vocab_size=48, m_candidates=M, candidate_len=5,
                                         n_styles=2, n_train=4, n_valid=6, n_test=4,
                                         history_len=4, seed=2))


def config_for(corpus, prior, **kw):
    return SpiConfig(model=ModelConfig(vocab_size=corpus.vocab.size, embed_dim=6,
                                       hidden_dim=8, att_dim=4, dec_hidden_dim=8,
                                       latent_dim=3),
                     prior=prior, top_s=3, langevin_steps=2, batch_size=2, epochs=1,
                     seed=4, **kw)


@pytest.fixture
def encode_calls(monkeypatch):
    """Records every encoder pass, wherever a module of the package refers
    to ``encode_batch`` (``encode_context`` included, which makes a pass of
    one example): the candidates it covers per example and whether a tape
    was open."""
    original = model.encode_batch
    calls = []

    def counting(params, examples, indices=None):
        wanted = [None] * len(examples) if indices is None else indices
        calls.append(([list(range(len(ex.candidates))) if idx is None else list(idx)
                       for ex, idx in zip(examples, wanted)], ad.active_tape() is not None))
        return original(params, examples, indices)

    for name, module in list(sys.modules.items()):
        if (name == "spi" or name.startswith("spi.")) and \
                getattr(module, "encode_batch", None) is original:
            monkeypatch.setattr(module, "encode_batch", counting)
    return calls


ALL = list(range(M))


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_validation_encodes_each_candidate_once(corpus, encode_calls, prior):
    cfg = config_for(corpus, prior)
    params = ModelParams.init(cfg.model, seed=1)
    for examples in (corpus.valid[:1], corpus.valid):
        encode_calls.clear()
        validation_loss(params, examples, cfg, epoch=0)
        # one pass per batch of ``batch_size`` examples
        assert encode_calls == [([ALL] * len(examples[lo:lo + cfg.batch_size]), False)
                                for lo in range(0, len(examples), cfg.batch_size)]


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_generate_encodes_each_candidate_once(corpus, encode_calls, prior):
    cfg = config_for(corpus, prior)
    params = ModelParams.init(cfg.model, seed=1)
    generate(params, corpus.test[0], prior=prior)
    assert encode_calls == [([ALL], False)]


@pytest.mark.parametrize("oracle", [False, True])
def test_evaluate_encodes_each_candidate_once(corpus, encode_calls, oracle):
    cfg = config_for(corpus, "uniform")
    params = ModelParams.init(cfg.model, seed=1)
    for examples in (corpus.test[:1], corpus.test[:4]):
        encode_calls.clear()
        evaluate(params, examples, cfg, oracle_knowledge=oracle)
        # one pass over every candidate of every example: perplexity scores
        # the picked lanes of generation's pass, or under the oracle flag
        # encodes the gold candidates in a pass of its own
        gold = [([[ex.gold_index] for ex in examples], False)] if oracle else []
        assert encode_calls == [([ALL] * len(examples), False)] + gold


def test_evaluate_makes_one_pass_per_chunk_of_examples(corpus, encode_calls, monkeypatch):
    cfg = config_for(corpus, "uniform")
    params = ModelParams.init(cfg.model, seed=1)
    examples = corpus.test[:4]
    monkeypatch.setattr(generation, "ENCODE_CHUNK", 3)
    evaluate(params, examples, cfg)
    assert [len(covered) for covered, _ in encode_calls] == [3, 1]
    # at the default, 32 examples to a pass
    monkeypatch.setattr(generation, "ENCODE_CHUNK", 32)
    encode_calls.clear()
    evaluate(params, examples * 17, cfg)  # 68 examples
    assert [len(covered) for covered, _ in encode_calls] == [32, 32, 4]


def test_perplexity_without_lanes_encodes_the_picks_alone(corpus, encode_calls):
    cfg = config_for(corpus, "uniform")
    params = ModelParams.init(cfg.model, seed=1)
    examples = corpus.test[:4]
    picks = pick_knowledge(params, encode_batch(params, examples), prior="uniform")
    encode_calls.clear()
    perplexity(params, examples, picks=picks)
    assert encode_calls == [([[s] for s in picks], False)]


@pytest.mark.parametrize("prior, taped", [("uniform", 1), ("learnable", M)])
def test_training_pass_encodes_once_outside_the_tape(corpus, encode_calls, prior, taped):
    # one untaped pass per batch; then one pass per example on the tape, since
    # the surrogate's gradient runs through the encoder: it covers the pick
    # alone, or every candidate for the prior term
    cfg = config_for(corpus, prior)  # batches of 2
    train(corpus.train[:3], [], cfg, quiet=True)
    assert [(len(covered), tape) for covered, tape in encode_calls] == \
        [(2, False), (1, True), (1, True), (1, False), (1, True)]
    for covered, tape in encode_calls:
        assert all(c == ALL if not tape else len(c) == taped for c in covered)


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_reused_encodings_match_encoding_from_scratch(corpus, prior):
    cfg = config_for(corpus, prior)
    params = train(corpus.train, [], cfg, quiet=True).params
    examples = corpus.valid
    total, hits = 0.0, 0
    for idx, ex in enumerate(examples):
        rng = derived_rng(cfg.seed, SEED_VALID, 3, idx)
        # a fresh pass over every candidate, as validation makes, for the
        # draw, the objective and the pick: a pass over fewer candidates may
        # round its lockstep rows differently
        encs = encode_context(params, ex)
        [pair] = sequential_posterior_infer(params, [ex], cfg, [rng], [encs])
        value = float(surrogate_objectives(params, [ex], [pair.s], pair.z[None], prior,
                                           [encs]).data[0])
        ad.check_finite(value, "surrogate objective")
        total += value
        hits += pick_knowledge(params, [encs], prior=prior)[0] == ex.gold_index
    # in batches of one, validation's passes are these one-example passes
    loss, accuracy = validation_loss(params, examples, replace(cfg, batch_size=1), epoch=3)
    assert loss == -total / len(examples)
    assert accuracy == hits / len(examples)
    # a pass over several examples may round its rows differently in the last bits
    loss, accuracy = validation_loss(params, examples, cfg, epoch=3)
    assert loss == pytest.approx(-total / len(examples), rel=1e-12, abs=0)
    assert accuracy == hits / len(examples)


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_handed_lanes_make_no_encoder_pass(corpus, encode_calls, prior):
    cfg = config_for(corpus, prior)
    params = ModelParams.init(cfg.model, seed=1)
    examples = corpus.valid[:3]
    encodings = encode_batch(params, examples)
    picks = [ex.gold_index for ex in examples]
    lanes = [encs[s] for encs, s in zip(encodings, picks)]
    z = np.zeros((len(examples), cfg.model.latent_dim))
    labels = [multi_hot_labels(ex, s) for ex, s in zip(examples, picks)]
    rngs = [derived_rng(cfg.seed, SEED_VALID, 0, j) for j in range(len(examples))]
    encode_calls.clear()
    select_knowledge_batch(params, examples, cfg, encodings_batch=encodings)
    sequential_posterior_infer(params, examples, cfg, rngs, encodings)
    with ad.Tape():
        head_ce_loss(params, examples, labels, "initializer", encodings)
    decode_plan(params, examples, picks, lanes)
    decode_logprob(params, examples, picks, z, encoded=lanes)
    assert encode_calls == []


def test_a_sequence_decode_without_its_lanes_is_a_contract_error(corpus, encode_calls):
    cfg = config_for(corpus, "uniform")
    params = ModelParams.init(cfg.model, seed=1)
    ex = corpus.valid[0]
    with pytest.raises(ContractError, match="needs their encodings"):
        decode_logprob(params, [ex] * 2, [0, 1], np.zeros((2, cfg.model.latent_dim)))
    assert encode_calls == []
