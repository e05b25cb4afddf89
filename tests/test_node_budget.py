"""Node budgets, by primitive, of the two tapes a desk training example
records most: its taped surrogate step and each step of its one-lane
Langevin chain. Dispatch is what a small model pays for, so a change that
records more nodes fails here, not only in the benchmark."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from spi import autodiff as ad
from spi import data, inference
from spi.config import ModelConfig, derived_rng
from spi.model import ModelParams, encode_context
from spi.training import surrogate_objective

# a desk example (history 8) of the seed-101 corpus, with its response of 10
# tokens: the encoder's 17 steps and the decoder's 10 each record one
# product with its tanh
SURROGATE_STEP = {"add": 4, "concat": 5, "gather_rows": 32, "log": 1, "matmul": 78,
                  "multiply": 3, "reduce_mean": 1, "softmax": 11, "squared_l2": 1}
# the same example's chain step under constant weights: only z's part of
# the decode
CHAIN_STEP = {"add": 2, "concat": 3, "log": 1, "matmul": 57, "multiply": 2, "reduce_sum": 1,
              "softmax": 11}


def _by_primitive(nodes) -> Counter:
    return Counter(vjp.__qualname__.split(".<locals>")[0] for *_, vjp in nodes)


@pytest.fixture(scope="module")
def desk():
    corpus = data.generate_corpus(data.SyntheticSpec(n_train=2, n_valid=1, n_test=1, seed=101))
    params = ModelParams.init(ModelConfig(vocab_size=corpus.vocab.size), seed=3)
    example = corpus.train[0]
    assert (len(example.history), len(example.response)) == (8, 10)
    return params, example


def _within(counts: Counter, budget: dict) -> None:
    assert set(counts) <= set(budget), sorted(set(counts) - set(budget))
    over = {name: (n, budget[name]) for name, n in counts.items() if n > budget[name]}
    assert not over, f"(nodes, budget) over budget: {over}"


def test_a_desk_surrogate_step_stays_within_its_node_budget(desk):
    params, example = desk
    with ad.Tape() as tape:
        surrogate_objective(params, example, example.gold_index,
                            np.zeros(params.cfg.latent_dim), "uniform")
    _within(_by_primitive(tape._nodes), SURROGATE_STEP)


def test_a_one_lane_desk_chain_step_stays_within_its_node_budget(desk, monkeypatch):
    params, example = desk
    steps = []
    backward = ad.backward

    def counting(tape, root):
        steps.append(_by_primitive(tape._nodes))
        return backward(tape, root)

    monkeypatch.setattr(ad, "backward", counting)
    s = example.gold_index
    inference.langevin_infer_z(params, [example], [s], steps=2, step_size=0.1,
                               rng=[derived_rng(0, 1)],
                               encoded=encode_context(params, example, [s]))
    assert len(steps) == 2
    for counts in steps:
        _within(counts, CHAIN_STEP)
