"""Hostile input to every parser either succeeds or ends in a ``SpiError``
that names the file: byte flips and truncations of a valid checkpoint,
arbitrary JSON-lines records and spec sidecar lines of a saved corpus, and
arbitrary JSON config values. The command line catches only ``SpiError``,
so any other exception would reach the user as a traceback."""
from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi.checkpoint import MAGIC, checkpoint_bytes, load_checkpoint, read_checkpoint
from spi.cli import _read_config_file
from spi.config import ModelConfig, SpiConfig, config_from_dict
from spi.data import SyntheticSpec, generate_corpus, load_corpus, save_corpus
from spi.errors import SpiError
from spi.fsio import read_jsonl
from spi.model import ModelParams

CFG = SpiConfig(model=ModelConfig(vocab_size=12, embed_dim=2, hidden_dim=2, att_dim=2,
                                  dec_hidden_dim=2, latent_dim=2, max_history=4,
                                  max_candidate=4, max_response=4))
BLOB = checkpoint_bytes(ModelParams.init(CFG.model, seed=0), CFG.fingerprint())
MANIFEST_END = BLOB.index(b"\n", len(MAGIC))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)


def fails_cleanly(path, call) -> None:
    """``call()`` succeeds, or raises a ``SpiError`` whose message names ``path``."""
    try:
        call()
    except SpiError as err:
        assert str(path) in str(err), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    save_corpus(generate_corpus(SyntheticSpec(vocab_size=32, m_candidates=3, candidate_len=4,
                                              n_train=2, n_valid=1, n_test=1,
                                              history_len=3, seed=2)), out)
    return out


# a flip lands in the manifest half the time: the payload is plain bytes
positions = st.integers(len(MAGIC), MANIFEST_END) | st.integers(0, len(BLOB) - 1)


@given(flips=st.lists(st.tuples(positions, st.integers(0, 255)), max_size=3),
       cut=st.none() | st.integers(0, len(BLOB)))
@settings(max_examples=100, deadline=None)
def test_damaged_checkpoint(workdir, flips, cut):
    blob = bytearray(BLOB)
    for pos, byte in flips:
        blob[pos] = byte
    path = workdir / "model.bin"
    path.write_bytes(bytes(blob[:cut]))
    fails_cleanly(path, lambda: read_checkpoint(path))
    fails_cleanly(path, lambda: load_checkpoint(path, CFG))


example_fields = st.fixed_dictionaries(
    {}, optional={"history": json_values, "candidates": json_values,
                  "gold_index": json_values, "response": json_values})
token_lists = st.lists(st.integers(-2, 40), max_size=4)
near_examples = st.fixed_dictionaries({
    "history": token_lists, "candidates": st.lists(token_lists, max_size=3) | json_values,
    "gold_index": st.integers(-1, 3) | json_values, "response": token_lists})
lines = st.lists(st.binary(max_size=12)
                 | st.text(max_size=12).map(str.encode)
                 | (json_values | example_fields | near_examples).map(
                     lambda v: json.dumps(v).encode()),
                 max_size=4)


@given(records=lines)
@settings(max_examples=50, deadline=None)
def test_arbitrary_jsonl_lines(corpus_dir, records):
    path = corpus_dir / "train.jsonl"
    original = path.read_bytes()
    path.write_bytes(b"\n".join(records))
    try:
        fails_cleanly(path, lambda: read_jsonl(path))
        fails_cleanly(path, lambda: load_corpus(corpus_dir))
    finally:
        path.write_bytes(original)


spec_values = (st.integers(-10**6, 10**20).map(str) | st.floats().map(repr)
               | st.text(max_size=8))
spec_lines = st.lists(
    st.tuples(st.sampled_from(list(SyntheticSpec.__dataclass_fields__)), spec_values).map(
        lambda kv: f"{kv[0]} = {kv[1]}".encode())
    | st.text(max_size=16).map(str.encode) | st.binary(max_size=16),
    max_size=4)


@given(extra=spec_lines, keep=st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_arbitrary_spec_sidecar_lines(corpus_dir, extra, keep):
    # the first ``keep`` valid lines, then the drawn ones; a repeated key is rejected
    path = corpus_dir / "spec.txt"
    original = path.read_bytes()
    path.write_bytes(b"\n".join(original.splitlines()[:keep] + extra) + b"\n")
    try:
        fails_cleanly(path, lambda: load_corpus(corpus_dir))
    finally:
        path.write_bytes(original)


@given(run=st.dictionaries(st.sampled_from(list(SpiConfig.__dataclass_fields__) + ["extra"]),
                           json_values, max_size=3),
       model=st.dictionaries(st.sampled_from(list(ModelConfig.__dataclass_fields__)),
                             json_values, max_size=3))
@settings(max_examples=60, deadline=None)
def test_arbitrary_config_values(workdir, run, model):
    data = CFG.to_dict()
    data["model"].update(model)
    data.update(run)
    path = workdir / "config.json"
    path.write_text(json.dumps(data))
    try:
        cfg = config_from_dict(data)
    except SpiError:
        pass
    else:  # json reads NaN and Infinity; a config that loads holds neither
        assert all(math.isfinite(v) for v in (cfg.step_size, cfg.grad_clamp, cfg.temperature,
                                              cfg.lr_model, cfg.lr_head))
    fails_cleanly(path, lambda: _read_config_file(path))


def test_json_nested_too_deeply_names_the_file(workdir, corpus_dir):
    # json.loads raises RecursionError, not a ValueError, past its nesting limit
    deep = b"[" * 100_000
    checkpoint, config = workdir / "model.bin", workdir / "config.json"
    checkpoint.write_bytes(MAGIC + deep + b"\n")
    config.write_bytes(deep)
    with pytest.raises(SpiError, match=re.escape(str(checkpoint))):
        read_checkpoint(checkpoint)
    with pytest.raises(SpiError, match=re.escape(str(config))):
        _read_config_file(config)
    for name in ("train.jsonl", "vocab.json"):
        path = corpus_dir / name
        original = path.read_bytes()
        path.write_bytes(deep)
        try:
            with pytest.raises(SpiError, match=re.escape(str(path))):
                load_corpus(corpus_dir)
        finally:
            path.write_bytes(original)
