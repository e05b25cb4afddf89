"""Run configuration, seed derivation, and the checkpoint fingerprint."""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ContractError

PRIOR_MODES = ("uniform", "learnable")
SELECTION_MODES = ("greedy", "sampled")

# seed-stream tags so independent consumers never share a generator
SEED_INIT = 1
SEED_TRAIN = 2
SEED_VALID = 3
SEED_SHUFFLE = 4


_KINDS = {"int": "an integer", "float": "a number", "bool": "a boolean", "str": "a string"}


def _check_kinds(cfg, prefix: str) -> None:
    """Each field must hold its declared type; a bool is not a number and a
    float is not an integer."""
    for f in fields(cfg):
        kind, value = f.type, getattr(cfg, f.name)  # a string: annotations are postponed
        if kind not in _KINDS:
            continue
        if kind == "bool":
            ok = isinstance(value, bool)
        elif kind == "str":
            ok = isinstance(value, str)
        else:
            numbers = (int, float) if kind == "float" else int
            ok = isinstance(value, numbers) and not isinstance(value, bool)
        if not ok:
            raise ContractError(f"config field {prefix}{f.name} must be {_KINDS[kind]}, "
                                f"got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes; these fix every parameter shape."""

    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 64
    att_dim: int = 32
    dec_hidden_dim: int = 64
    latent_dim: int = 16
    max_history: int = 64
    max_candidate: int = 32
    max_response: int = 32

    def validate(self) -> None:
        _check_kinds(self, "model.")
        for name, value in asdict(self).items():
            if value <= 0:
                raise ContractError(f"ModelConfig.{name} must be positive, got {value}")
        if self.vocab_size < 4:
            raise ContractError("vocab_size must cover the four reserved tokens")


@dataclass(frozen=True)
class SpiConfig:
    """Everything a training or evaluation run needs, defaults per the engine.

    ``top_s`` limits posterior selection in uniform-prior mode; the learnable
    prior always scores every candidate. ``langevin_noise`` exists for
    deterministic probes; training leaves it on.
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

    def validate(self) -> None:
        self.model.validate()
        _check_kinds(self, "")
        if self.prior not in PRIOR_MODES:
            raise ContractError(f"prior must be one of {PRIOR_MODES}, got {self.prior!r}")
        if self.selection not in SELECTION_MODES:
            raise ContractError(
                f"selection must be one of {SELECTION_MODES}, got {self.selection!r}")
        if self.top_s < 1:
            raise ContractError("top_s must be at least 1")
        if self.langevin_steps < 0:
            raise ContractError("langevin_steps must be non-negative")
        if self.step_size < 0.0:
            raise ContractError("step_size must be non-negative")
        if self.temperature <= 0.0:
            raise ContractError("temperature must be positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise ContractError("batch_size/epochs out of range")

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
    cfg = SpiConfig(model=model, **data)
    cfg.validate()
    return cfg


def with_overrides(cfg: SpiConfig, **kwargs) -> SpiConfig:
    """Return a copy with the given fields replaced and re-validated."""
    model_fields = {k: v for k, v in kwargs.items()
                    if k in ModelConfig.__dataclass_fields__}
    run_fields = {k: v for k, v in kwargs.items()
                  if k not in ModelConfig.__dataclass_fields__}
    model = replace(cfg.model, **model_fields) if model_fields else cfg.model
    out = replace(cfg, model=model, **run_fields)
    out.validate()
    return out


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for stream (seed, key...); order-insensitive use."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))
