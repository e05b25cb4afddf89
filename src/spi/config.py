"""Run configuration, seed derivation, and the checkpoint fingerprint."""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ContractError

PRIOR_MODES = ("uniform", "learnable")
SELECTION_MODES = ("greedy", "sampled")

# seed-stream tags so independent consumers never share a generator
SEED_INIT = 1
SEED_TRAIN = 2
SEED_VALID = 3
SEED_SHUFFLE = 4


_KINDS = {"int": "an integer", "float": "a finite number", "bool": "a boolean", "str": "a string"}


def check_kinds(obj, prefix: str) -> None:
    """Each field of the dataclass ``obj`` must hold its declared type; a bool
    is not a number, a float is not an integer, and a number is finite (JSON
    reads NaN and Infinity). The error names the field after ``prefix``."""
    for f in fields(obj):
        kind, value = f.type, getattr(obj, f.name)  # a string: annotations are postponed
        if kind not in _KINDS:
            continue
        if kind == "bool":
            ok = isinstance(value, bool)
        elif kind == "str":
            ok = isinstance(value, str)
        else:
            numbers = (int, float) if kind == "float" else int
            ok = isinstance(value, numbers) and not isinstance(value, bool)
            if ok and kind == "float":
                ok = -sys.float_info.max <= value <= sys.float_info.max  # False for NaN
        if not ok:
            raise ContractError(f"{prefix}{f.name} must be {_KINDS[kind]}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes; these fix every parameter shape. Checked when
    built, so every instance is valid."""

    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 64
    att_dim: int = 32
    dec_hidden_dim: int = 64
    latent_dim: int = 16
    max_history: int = 64
    max_candidate: int = 32
    max_response: int = 32

    def __post_init__(self) -> None:
        check_kinds(self, "config field model.")
        for name, value in asdict(self).items():
            if value <= 0:
                raise ContractError(f"model.{name} must be positive, got {value}")
        if self.vocab_size < 4:
            raise ContractError(f"model.vocab_size must cover the four reserved tokens, "
                                f"got {self.vocab_size}")


@dataclass(frozen=True)
class SpiConfig:
    """Everything a training or evaluation run needs, defaults per the engine.

    ``top_s`` limits posterior selection in uniform-prior mode; the learnable
    prior always scores every candidate. ``langevin_noise`` exists for
    deterministic probes; training leaves it on. Checked when built, so every
    instance is valid.
    """

    model: ModelConfig
    prior: str = "uniform"
    top_s: int = 5
    langevin_steps: int = 5
    step_size: float = 0.1
    grad_clamp: float = 100.0
    langevin_noise: bool = True
    selection: str = "greedy"
    temperature: float = 1.0
    lr_model: float = 0.05
    lr_head: float = 0.05
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.model, ModelConfig):
            raise ContractError(f"config field model must be a ModelConfig, got {self.model!r}")
        check_kinds(self, "config field ")
        if self.prior not in PRIOR_MODES:
            raise ContractError(f"prior must be one of {PRIOR_MODES}, got {self.prior!r}")
        if self.selection not in SELECTION_MODES:
            raise ContractError(
                f"selection must be one of {SELECTION_MODES}, got {self.selection!r}")
        if self.top_s < 1:
            raise ContractError(f"top_s must be at least 1, got {self.top_s}")
        if self.langevin_steps < 0:
            raise ContractError(f"langevin_steps must be non-negative, got {self.langevin_steps}")
        if self.step_size < 0.0:
            raise ContractError(f"step_size must be non-negative, got {self.step_size}")
        if self.grad_clamp < 0.0:
            raise ContractError(f"grad_clamp must be non-negative, got {self.grad_clamp}")
        if self.temperature <= 0.0:
            raise ContractError(f"temperature must be positive, got {self.temperature}")
        for name in ("lr_model", "lr_head"):
            if getattr(self, name) < 0.0:
                raise ContractError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ContractError(f"epochs must be non-negative, got {self.epochs}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")

    def fingerprint(self) -> str:
        """Hash of the fields a checkpoint must agree on (shapes + prior mode)."""
        payload = {"model": asdict(self.model), "prior": self.prior}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def to_dict(self) -> dict:
        out = asdict(self)
        out["model"] = asdict(self.model)
        return out


def config_from_dict(data: dict) -> SpiConfig:
    """Build a SpiConfig from a plain dict (config files, CLI merges)."""
    if not isinstance(data, dict):
        raise ContractError(f"a config is an object, not {type(data).__name__}")
    data = dict(data)
    model_part = data.pop("model", None)
    if model_part is not None and not isinstance(model_part, dict):
        raise ContractError(f"config field model must be an object, got {model_part!r}")
    if model_part is None or "vocab_size" not in model_part:
        raise ContractError("config requires model.vocab_size")
    known_model = {f for f in ModelConfig.__dataclass_fields__}
    extra = set(model_part) - known_model
    if extra:
        raise ContractError(f"unknown model config fields: {sorted(extra)}")
    model = ModelConfig(**model_part)
    known = {f for f in SpiConfig.__dataclass_fields__} - {"model"}
    extra = set(data) - known
    if extra:
        raise ContractError(f"unknown config fields: {sorted(extra)}")
    return SpiConfig(model=model, **data)


def with_overrides(cfg: SpiConfig, **kwargs) -> SpiConfig:
    """Return a copy with the given fields, model or run, replaced; built
    and checked as ``config_from_dict`` builds a config."""
    data = cfg.to_dict()
    for name, value in kwargs.items():
        (data["model"] if name in ModelConfig.__dataclass_fields__ else data)[name] = value
    return config_from_dict(data)


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for stream (seed, key...); order-insensitive use."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))
