"""Checkpoint serialization.

Layout, all little-endian:

    SPI1\n
    {"tensors": [{"name": ..., "dtype": "<f8", "shape": [...]}, ...]}\n
    <raw payload for each tensor, manifest order>
    fingerprint: <hex>\n

The fingerprint ties the weights to the architecture and prior mode they
were trained under; loading refuses a mismatch.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import SpiConfig
from .errors import ContractError, SpiError
from .fsio import atomic_write_bytes
from .model import ModelParams

MAGIC = b"SPI1\n"


def checkpoint_bytes(params: ModelParams, fingerprint: str) -> bytes:
    entries = []
    payloads = []
    for name, tensor in params.items():
        # ascontiguousarray promotes 0-d to 1-d; keep the true shape
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        entries.append({"name": name, "dtype": "<f8", "shape": list(tensor.data.shape)})
        payloads.append(arr.tobytes())
    manifest = json.dumps({"tensors": entries}, separators=(",", ":")).encode("ascii")
    tail = f"fingerprint: {fingerprint}\n".encode("ascii")
    return MAGIC + manifest + b"\n" + b"".join(payloads) + tail


def save_checkpoint(path: str | Path, params: ModelParams, config: SpiConfig) -> None:
    atomic_write_bytes(path, checkpoint_bytes(params, config.fingerprint()))


def _manifest_entry(path, entry) -> tuple[str, tuple[int, ...]]:
    """Name and shape of one manifest entry, checked before any use."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ContractError(f"{path}: manifest entry without a name: {entry!r}")
    name, dtype, shape = entry["name"], entry.get("dtype"), entry.get("shape")
    if dtype != "<f8":
        raise ContractError(f"{path}: unsupported tensor dtype {dtype!r}")
    if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape):
        raise ContractError(f"{path}: tensor {name!r} has a malformed shape {shape!r}")
    return name, tuple(shape)


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str]:
    """Parse a checkpoint file; returns (arrays by name, stored fingerprint)."""
    try:
        blob = Path(path).read_bytes()
    except OSError as err:
        raise ContractError(f"{path}: cannot read the checkpoint ({err.strerror})") from None
    if not blob.startswith(MAGIC):
        raise ContractError(f"{path}: not a checkpoint (bad magic)")
    rest = blob[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise ContractError(f"{path}: truncated checkpoint manifest")
    try:
        manifest = json.loads(rest[:newline].decode("ascii"))
    except (ValueError, RecursionError) as err:
        raise ContractError(f"{path}: malformed checkpoint manifest") from err
    entries = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ContractError(f"{path}: malformed checkpoint manifest (no tensor list)")
    cursor = newline + 1
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        name, shape = _manifest_entry(path, entry)
        if name in arrays:  # the later payload would silently win
            raise ContractError(f"{path}: the manifest lists tensor {name!r} twice")
        nbytes = math.prod(shape) * 8  # Python ints: a huge shape cannot wrap to 0
        payload = rest[cursor:cursor + nbytes]
        if len(payload) != nbytes:
            raise ContractError(f"{path}: truncated payload for tensor {name!r}")
        arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        cursor += nbytes
    tail = rest[cursor:].decode("ascii", errors="replace")
    if not tail.startswith("fingerprint: ") or not tail.endswith("\n"):
        raise ContractError(f"{path}: missing fingerprint line")
    return arrays, tail[len("fingerprint: "):-1]


def load_checkpoint(path: str | Path, config: SpiConfig) -> ModelParams:
    """Load weights and refuse a config whose fingerprint disagrees."""
    arrays, stored = read_checkpoint(path)
    expected = config.fingerprint()
    if stored != expected:
        raise ContractError(
            f"{path}: checkpoint fingerprint {stored[:12]}... does not match the "
            f"current config {expected[:12]}...; architecture or prior mode differ")
    try:
        return ModelParams.from_arrays(config.model, arrays)
    except SpiError as err:  # a missing or misshapen tensor, or a non-finite value
        raise ContractError(f"{path}: {err}") from None
