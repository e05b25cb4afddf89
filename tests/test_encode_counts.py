"""Each example is encoded in one pass (``encode_context`` call) per stage
and the passes are reused: counts of passes per stage, and bit-identity with
the path that re-encodes from scratch."""
from __future__ import annotations

import sys

import pytest

from spi import autodiff as ad
from spi import model
from spi.config import SEED_VALID, ModelConfig, SpiConfig, derived_rng
from spi.data import SyntheticSpec, generate_corpus
from spi.generation import generate, select_for_generation
from spi.inference import sequential_posterior_infer
from spi.metrics import evaluate
from spi.model import ModelParams, encode_context
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
    to ``encode_context``: the candidates it covers and whether a tape was
    open."""
    original = model.encode_context
    calls = []

    def counting(params, example, indices=None):
        covered = list(range(len(example.candidates))) if indices is None else list(indices)
        calls.append((covered, ad.active_tape() is not None))
        return original(params, example, indices)

    for name, module in list(sys.modules.items()):
        if (name == "spi" or name.startswith("spi.")) and \
                getattr(module, "encode_context", None) is original:
            monkeypatch.setattr(module, "encode_context", counting)
    return calls


ALL = list(range(M))


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_validation_encodes_each_candidate_once(corpus, encode_calls, prior):
    cfg = config_for(corpus, prior)
    params = ModelParams.init(cfg.model, seed=1)
    validation_loss(params, corpus.valid[:1], cfg, epoch=0)
    assert encode_calls == [(ALL, False)]


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_generate_encodes_each_candidate_once(corpus, encode_calls, prior):
    cfg = config_for(corpus, prior)
    params = ModelParams.init(cfg.model, seed=1)
    generate(params, corpus.test[0], prior=prior)
    assert encode_calls == [(ALL, False)]


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
        # every candidate of each example for generation, then each scored pick
        assert calls == [(ALL, False)] * len(examples) + [([pick], False) for pick in picks]


@pytest.mark.parametrize("prior, taped", [("uniform", 1), ("learnable", M)])
def test_training_pass_encodes_once_outside_the_tape(corpus, encode_calls, prior, taped):
    # one more pass on the tape: the surrogate's gradient runs through the
    # encoder; it covers the pick alone, or every candidate for the prior term
    cfg = config_for(corpus, prior)
    train(corpus.train[:1], [], cfg, quiet=True)
    assert [tape for _, tape in encode_calls] == [False, True]
    assert encode_calls[0][0] == ALL
    assert len(encode_calls[1][0]) == taped


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
    loss, accuracy = validation_loss(params, examples, cfg, epoch=3)
    assert loss == -total / len(examples)
    assert accuracy == hits / len(examples)
