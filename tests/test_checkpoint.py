import json
import re

import numpy as np
import pytest

from spi.checkpoint import (MAGIC, checkpoint_bytes, load_checkpoint,
                            read_checkpoint, save_checkpoint)
from spi.config import ModelConfig, SpiConfig, with_overrides
from spi.autodiff import Tensor
from spi.errors import ContractError
from spi.model import ModelParams


@pytest.fixture
def cfg():
    model = ModelConfig(vocab_size=12, embed_dim=4, hidden_dim=5, att_dim=3,
                        dec_hidden_dim=5, latent_dim=2, max_history=8,
                        max_candidate=6, max_response=8)
    return SpiConfig(model=model)


def test_round_trip_is_bit_exact(tmp_path, cfg):
    params = ModelParams.init(cfg.model, seed=9)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, cfg)
    loaded = load_checkpoint(path, cfg)
    for name in params.names():
        assert np.array_equal(params[name].data, loaded[name].data)


def test_save_load_save_produces_identical_bytes(tmp_path, cfg):
    params = ModelParams.init(cfg.model, seed=9)
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_checkpoint(first, params, cfg)
    save_checkpoint(second, load_checkpoint(first, cfg), cfg)
    assert first.read_bytes() == second.read_bytes()


def test_read_returns_stored_fingerprint(tmp_path, cfg):
    params = ModelParams.init(cfg.model)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, cfg)
    arrays, fingerprint = read_checkpoint(path)
    assert fingerprint == cfg.fingerprint()
    assert set(arrays) == set(params.names())


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE\n" + b"\x00" * 64)
    with pytest.raises(ContractError, match="magic"):
        read_checkpoint(path)


def test_truncated_payload_rejected(tmp_path, cfg):
    params = ModelParams.init(cfg.model)
    blob = checkpoint_bytes(params, cfg.fingerprint())
    path = tmp_path / "model.bin"
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ContractError, match="truncated"):
        read_checkpoint(path)


def test_missing_fingerprint_line_rejected(tmp_path, cfg):
    params = ModelParams.init(cfg.model)
    blob = checkpoint_bytes(params, cfg.fingerprint())
    cut = blob.rindex(b"fingerprint: ")
    path = tmp_path / "model.bin"
    path.write_bytes(blob[:cut])
    with pytest.raises(ContractError, match="fingerprint"):
        read_checkpoint(path)


def test_malformed_manifest_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(MAGIC + b"{broken\n")
    with pytest.raises(ContractError, match="manifest"):
        read_checkpoint(path)


def test_architecture_mismatch_refused(tmp_path, cfg):
    params = ModelParams.init(cfg.model)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, cfg)
    other = with_overrides(cfg, hidden_dim=6)
    with pytest.raises(ContractError, match="fingerprint"):
        load_checkpoint(path, other)


def test_prior_mode_mismatch_refused(tmp_path, cfg):
    params = ModelParams.init(cfg.model)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, cfg)
    other = with_overrides(cfg, prior="learnable")
    with pytest.raises(ContractError, match="prior"):
        load_checkpoint(path, other)


def test_mismatch_message_names_both_prefixes(tmp_path, cfg):
    params = ModelParams.init(cfg.model)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, cfg)
    other = with_overrides(cfg, prior="learnable")
    with pytest.raises(ContractError) as err:
        load_checkpoint(path, other)
    assert cfg.fingerprint()[:12] in str(err.value)
    assert other.fingerprint()[:12] in str(err.value)


@pytest.mark.parametrize("manifest", [
    [{"name": "embed", "dtype": "<f8", "shape": [1]}],     # list, not an object
    {"tensors": 5},                                         # tensors not a list
    {"tensors": [{"dtype": "<f8", "shape": [1]}]},          # entry with no name
    {"tensors": [{"name": "embed", "dtype": "<f8", "shape": "ab"}]},
], ids=["list-manifest", "tensors-not-list", "entry-without-name", "string-shape"])
def test_malformed_manifest_shapes_name_the_file(tmp_path, manifest):
    path = tmp_path / "model.bin"
    path.write_bytes(MAGIC + json.dumps(manifest).encode("ascii") + b"\n"
                     + b"\x00" * 8 + b"fingerprint: 00\n")
    with pytest.raises(ContractError, match=re.escape(str(path))):
        read_checkpoint(path)


def test_a_shape_whose_count_overflows_int64_names_the_file(tmp_path):
    # 2**40 * 2**40 wraps to 0 in int64, which would read an empty payload
    manifest = {"tensors": [{"name": "embed", "dtype": "<f8", "shape": [2**40, 2**40]}]}
    path = tmp_path / "model.bin"
    path.write_bytes(MAGIC + json.dumps(manifest).encode("ascii") + b"\n"
                     + b"fingerprint: 00\n")
    with pytest.raises(ContractError, match=re.escape(f"{path}: truncated payload")):
        read_checkpoint(path)


@pytest.mark.parametrize("damage", ["nan-payload", "renamed-tensor"])
def test_load_errors_name_the_file(tmp_path, cfg, damage):
    blob = checkpoint_bytes(ModelParams.init(cfg.model), cfg.fingerprint())
    if damage == "nan-payload":  # the last value of the last tensor
        tail = blob.rindex(b"fingerprint: ")
        blob = blob[:tail - 8] + np.array([np.nan]).tobytes() + blob[tail:]
    else:
        blob = blob.replace(b'"name":"out_b"', b'"name":"out_x"')
    path = tmp_path / "model.bin"
    path.write_bytes(blob)
    with pytest.raises(ContractError, match=re.escape(str(path))):
        load_checkpoint(path, cfg)


def test_a_manifest_that_lists_a_tensor_twice_names_the_file_and_the_tensor(tmp_path, cfg):
    # a second "embed" entry at the end, whose payload would win: all 0.5
    params = ModelParams.init(cfg.model)
    blob = checkpoint_bytes(params, cfg.fingerprint())
    start, tail = blob.index(b"\n", len(MAGIC)), blob.rindex(b"fingerprint: ")
    manifest = json.loads(blob[len(MAGIC):start])
    shape = list(params["embed"].shape)
    manifest["tensors"].append({"name": "embed", "dtype": "<f8", "shape": shape})
    path = tmp_path / "model.bin"
    path.write_bytes(MAGIC + json.dumps(manifest).encode("ascii") + blob[start:tail]
                     + np.full(shape, 0.5).tobytes() + blob[tail:])
    with pytest.raises(ContractError, match=re.escape(f"{path}: ") + ".*'embed' twice"):
        read_checkpoint(path)


@pytest.mark.parametrize("prior", ["uniform", "learnable"])
def test_a_checkpoint_with_a_second_selection_head_names_the_file_and_its_tensors(
        tmp_path, cfg, prior):
    # the earlier 25-tensor layout: a knowledge prior head after ``init_b``,
    # under the same fingerprint, so only the tensor list refuses it
    config = with_overrides(cfg, prior=prior)
    params = ModelParams.init(config.model)
    tensors = {}
    for name, tensor in params.items():
        tensors[name] = tensor
        if name == "init_b":
            tensors["kprior_w"] = Tensor(np.ones(config.model.hidden_dim))
            tensors["kprior_b"] = Tensor(np.zeros(()))
    path = tmp_path / "model.bin"
    path.write_bytes(checkpoint_bytes(ModelParams(config.model, tensors), config.fingerprint()))
    assert len(read_checkpoint(path)[0]) == 25
    with pytest.raises(ContractError, match=re.escape(
            f"{path}: unknown parameters in checkpoint: ['kprior_b', 'kprior_w']")):
        load_checkpoint(path, config)
