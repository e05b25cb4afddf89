"""One rule for equal lanes: every product over lanes (a selection head, the
latent prior, a lockstep decode) runs once per distinct lane, so equal
candidates get bit-equal results and selection ties resolve to the lowest
index, as the brute-force reference's do."""
from __future__ import annotations

import numpy as np
import pytest

from spi import autodiff as ad
from spi import model, verify
from spi.config import ModelConfig, SpiConfig, derived_rng
from spi.inference import select_knowledge_batch
from spi.model import (ModelParams, decode_logprob, distinct_lanes, encode_context,
                       head_logits, latent_prior_means)

# wide enough that a matrix product over equal rows can round them apart
WIDE = dict(hidden_dim=32, latent_dim=10)


def tied_instance(seed: int, m: int = 6):
    """Weights at scale 0.3 and an example whose ``m`` candidates are equal."""
    rng = derived_rng(31_000 + seed, 1)
    cfg = ModelConfig(vocab_size=int(rng.integers(6, 9)), **WIDE)
    params = ModelParams.init(cfg, seed=int(rng.integers(1_000_000)), scale=0.3)
    example = verify._random_example(rng, cfg.vocab_size, m=m,
                                     resp_len=int(rng.integers(2, 6)), hist_len=2, cand_len=2)
    example.candidates = [list(example.candidates[0]) for _ in range(m)]
    return params, example


def test_distinct_lanes_names_first_positions_and_each_entry_s_lane():
    assert distinct_lanes(["a", "b", "c"]) == ([0, 1, 2], None)
    firsts, lane_of = distinct_lanes(["a", "b", "a", "c", "b"])
    assert firsts == [0, 1, 3]
    assert lane_of.tolist() == [0, 1, 0, 2, 1]
    assert distinct_lanes([]) == ([], None)


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
@pytest.mark.parametrize("seed", range(8))
def test_equal_candidates_tie_exactly_and_the_lowest_index_wins(prior, seed):
    params, example = tied_instance(seed)
    config = SpiConfig(model=params.cfg, prior=prior, top_s=len(example.candidates))
    [outcome] = select_knowledge_batch(params, [example], config,
                                       encodings_batch=[encode_context(params, example)])
    assert (outcome.log_weights == outcome.log_weights[0]).all()
    assert outcome.chosen == verify.naive_select(params, example, prior) == 0


@pytest.mark.parametrize("seed", range(4))
def test_a_repeated_encoding_gets_equal_latent_prior_means(seed):
    params, example = tied_instance(seed)
    encs = encode_context(params, example)
    assert len({id(enc) for enc in encs}) == 1
    means = latent_prior_means(params, encs).data
    assert means.shape == (6, 10) and (means == means[0]).all()


@pytest.mark.parametrize("seed", range(4))
def test_a_lockstep_decode_of_equal_candidates_runs_one_lane(seed, monkeypatch):
    params, example = tied_instance(seed)
    encs = encode_context(params, example)
    mus = latent_prior_means(params, encs).data
    lanes = []
    start = model.decoder_start

    def counting(params, encoded, z):
        lanes.append(len(encoded))
        return start(params, encoded, z)

    monkeypatch.setattr(model, "decoder_start", counting)
    out = decode_logprob(params, [example] * 6, range(6), mus, encoded=encs).data
    assert lanes == [1]
    assert (out == out[0]).all()


@pytest.mark.parametrize("read", [
    lambda p, encs: head_logits(p, "initializer", encs),
    lambda p, encs: head_logits(p, "knowledge_prior", encs),
    latent_prior_means,
])
def test_a_product_over_distinct_lanes_records_one_node(read):
    # every lane of the pass in order: no gather in, and none back out
    params = ModelParams.init(ModelConfig(vocab_size=10, **WIDE), seed=3)
    encs = encode_context(params.constant(), verify._random_example(
        derived_rng(5, 1), 10, m=4))
    with ad.Tape() as tape:
        read(params, encs)
    assert [node[-1].__qualname__.split(".")[0] for node in tape._nodes] == ["matmul"]
    with ad.Tape() as tape:
        out = read(params, encs + [encs[1]])
    # a repeated lane is gathered back from the one product
    assert [node[-1].__qualname__.split(".")[0] for node in tape._nodes] == [
        "matmul", "gather_rows"]
    assert np.array_equal(out.data[-1], out.data[1])
