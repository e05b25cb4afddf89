"""Each stage encodes its examples in batch passes (``encode_batch`` calls)
and reuses them: counts of passes per stage, and agreement with the paths
that encode for themselves."""
from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from spi import autodiff as ad
from spi import generation, model
from spi.config import SEED_VALID, ModelConfig, SpiConfig, derived_rng
from spi.data import SyntheticSpec, generate_corpus
from spi.generation import generate, select_for_generation
from spi.inference import sequential_posterior_infer
from spi.metrics import evaluate
from spi.model import ModelParams, encode_batch, encode_context
from spi.training import surrogate_value, train, validation_loss

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
def test_evaluate_encodes_candidates_once_plus_the_scored_pick(corpus, encode_calls,
                                                                oracle):
    cfg = config_for(corpus, "uniform")
    params = ModelParams.init(cfg.model, seed=1)
    for examples in (corpus.test[:1], corpus.test[:4]):
        encode_calls.clear()
        evaluate(params, examples, cfg, oracle_knowledge=oracle)
        calls = list(encode_calls)
        picks = [ex.gold_index if oracle else select_for_generation(params, ex, prior="uniform")
                 for ex in examples]
        # every candidate of every example for generation, then the scored picks
        assert calls == [([ALL] * len(examples), False), ([[s] for s in picks], False)]


def test_generation_encodes_a_chunk_of_examples_per_pass(corpus, encode_calls, monkeypatch):
    cfg = config_for(corpus, "uniform")
    params = ModelParams.init(cfg.model, seed=1)
    monkeypatch.setattr(generation, "ENCODE_CHUNK", 3)
    evaluate(params, corpus.test[:4], cfg)
    # generation's passes, then perplexity's, each over the same chunks
    assert [len(covered) for covered, _ in encode_calls] == [3, 1, 3, 1]


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
        pair = sequential_posterior_infer(params, ex, cfg, rng=rng)
        # a fresh pass over every candidate, as validation makes: a pass over
        # fewer candidates may round its lockstep rows differently
        total += surrogate_value(params, ex, pair.s, pair.z, prior, encode_context(params, ex))
        hits += select_for_generation(params, ex, prior=prior) == ex.gold_index
    # in batches of one, validation's passes are these one-example passes
    loss, accuracy = validation_loss(params, examples, replace(cfg, batch_size=1), epoch=3)
    assert loss == -total / len(examples)
    assert accuracy == hits / len(examples)
    # a pass over several examples may round its rows differently in the last bits
    loss, accuracy = validation_loss(params, examples, cfg, epoch=3)
    assert loss == pytest.approx(-total / len(examples), rel=1e-12, abs=0)
    assert accuracy == hits / len(examples)
