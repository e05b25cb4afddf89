"""Candidate encodings are computed once per example and reused: counts of
``encode_context`` calls per stage, and bit-identity with the path that
re-encodes from scratch."""
from __future__ import annotations

import sys

import pytest

from spi import model
from spi.config import SEED_VALID, ModelConfig, SpiConfig, derived_rng
from spi.data import SyntheticSpec, generate_corpus
from spi.generation import generate, select_for_generation
from spi.inference import sequential_posterior_infer
from spi.metrics import evaluate
from spi.model import ModelParams
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
    """Counts every call of ``encode_context``, wherever a module of the
    package refers to it."""
    original = model.encode_context
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("s"))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "spi" or name.startswith("spi.")) and \
                getattr(module, "encode_context", None) is original:
            monkeypatch.setattr(module, "encode_context", counting)
    return calls


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_validation_encodes_each_candidate_once(corpus, encode_calls, prior):
    cfg = config_for(corpus, prior)
    params = ModelParams.init(cfg.model, seed=1)
    validation_loss(params, corpus.valid[:1], cfg, epoch=0)
    assert sorted(encode_calls) == list(range(M))


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_generate_encodes_each_candidate_once(corpus, encode_calls, prior):
    cfg = config_for(corpus, prior)
    params = ModelParams.init(cfg.model, seed=1)
    generate(params, corpus.test[0], prior=prior)
    assert sorted(encode_calls) == list(range(M))


@pytest.mark.parametrize("oracle", [False, True])
def test_evaluate_encodes_candidates_once_plus_the_scored_pick(corpus, encode_calls,
                                                                oracle):
    cfg = config_for(corpus, "uniform")
    params = ModelParams.init(cfg.model, seed=1)
    evaluate(params, corpus.test[:1], cfg, oracle_knowledge=oracle)
    assert len(encode_calls) == M + 1


@pytest.mark.parametrize("prior, taped", [("uniform", 1), ("learnable", 1 + M)])
def test_training_pass_encodes_once_outside_the_tape(corpus, encode_calls, prior, taped):
    # the taped surrogate re-encodes: its gradient runs through the encoder
    cfg = config_for(corpus, prior)
    train(corpus.train[:1], [], cfg, quiet=True)
    assert len(encode_calls) == M + taped


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_reused_encodings_match_encoding_from_scratch(corpus, prior):
    cfg = config_for(corpus, prior)
    params = train(corpus.train, [], cfg, quiet=True).params
    examples = corpus.valid
    total, hits = 0.0, 0
    for idx, ex in enumerate(examples):
        rng = derived_rng(cfg.seed, SEED_VALID, 3, idx)
        pair = sequential_posterior_infer(params, ex, cfg, rng=rng)
        total += surrogate_value(params, ex, pair.s, pair.z, prior)
        hits += select_for_generation(params, ex, prior=prior) == ex.gold_index
    loss, accuracy = validation_loss(params, examples, cfg, epoch=3)
    assert loss == -total / len(examples)
    assert accuracy == hits / len(examples)
