"""Sequential posterior inference: pick the knowledge index from its
posterior under a point-mass latent, then refine the continuous latent with
a short Langevin chain started at the prior mean.

Selection arithmetic stays in log space throughout; the Langevin gradient of
the decoder term is clamped elementwise before entering the drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import SpiConfig, derived_rng
from .errors import ContractError, NumericError
from .model import (DialogueExample, EncodedContext, LatentPair, ModelParams,
                    decode_logprob, encode_context, initializer_scores,
                    knowledge_prior_logits, latent_prior_mean)


def log_sum_exp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    m = values.max()
    if not np.isfinite(m):
        raise NumericError("log_sum_exp over non-finite values")
    return float(m + np.log(np.exp(values - m).sum()))


@dataclass
class SelectionOutcome:
    """Posterior selection result over the evaluated candidate subset.

    ``evaluated`` lists candidate indices in ascending order and
    ``log_weights`` aligns with it (normalized within the subset).
    """

    chosen: int
    evaluated: tuple[int, ...]
    log_weights: np.ndarray


def top_s_candidates(params: ModelParams, example: DialogueExample, top_s: int,
                     encodings: Sequence[EncodedContext] | None = None) -> list[int]:
    """Indices of the ``top_s`` highest initializer scores, ascending.

    Ranking is by descending score with lower index winning ties.
    """
    m = len(example.candidates)
    if not 1 <= top_s <= m:
        raise ContractError(f"top_s must be in [1, {m}], got {top_s}")
    scores = initializer_scores(params, example, encodings=encodings)
    order = np.argsort(-scores, kind="stable")[:top_s]
    return sorted(int(i) for i in order)


def select_knowledge(params: ModelParams, example: DialogueExample, *,
                     prior: str = "uniform", mode: str = "greedy",
                     top_s: int | None = None, temperature: float = 1.0,
                     rng: np.random.Generator | None = None,
                     encodings: Sequence[EncodedContext] | None = None) -> SelectionOutcome:
    """Select a knowledge index from its posterior given the response.

    The latent is held at the prior mean of each candidate (point mass), so a
    candidate's weight is its prior weight times the teacher-forced response
    likelihood. Uniform-prior mode restricts scoring to the initializer's
    top-S subset; the learnable prior scores every candidate and rejects
    ``top_s``.
    """
    m = len(example.candidates)
    if m < 1:
        raise ContractError("selection needs at least one candidate")
    if not example.response:
        raise ContractError("selection needs a response to score")
    if temperature <= 0.0:
        raise ContractError("temperature must be positive")
    if encodings is None:
        encodings = encode_context(params, example)
    if prior == "uniform":
        subset = list(range(m)) if top_s is None else top_s_candidates(
            params, example, top_s, encodings=encodings)
        prior_logits = np.zeros(len(subset))
    elif prior == "learnable":
        if top_s is not None:
            raise ContractError("top_s preselection is undefined under the learnable prior")
        subset = list(range(m))
        prior_logits = knowledge_prior_logits(params, example, encodings=encodings).data
    else:
        raise ContractError(f"unknown prior mode {prior!r}")

    # every candidate teacher-forces the same response: one lockstep decode
    subset_encodings = [encodings[i] for i in subset]
    mus = np.stack([latent_prior_mean(params, example, i, encoded=enc).data
                    for i, enc in zip(subset, subset_encodings)])
    raw = prior_logits + decode_logprob(params, example, subset, mus,
                                        encoded=subset_encodings).data
    scaled = raw / temperature
    log_weights = scaled - log_sum_exp(scaled)

    if mode == "greedy":
        chosen = subset[int(np.argmax(log_weights))]
    elif mode == "sampled":
        gen = rng if rng is not None else np.random.default_rng(0)
        probs = np.exp(log_weights)
        probs = probs / probs.sum()
        chosen = int(gen.choice(np.asarray(subset), p=probs))
    else:
        raise ContractError(f"unknown selection mode {mode!r}")
    return SelectionOutcome(chosen=chosen, evaluated=tuple(subset), log_weights=log_weights)


@dataclass
class LangevinTrace:
    """States visited by one chain; ``states[0]`` is the initial draw and the
    final state is the inferred latent. ``drift_norms`` has one entry per step."""

    states: list[np.ndarray]
    drift_norms: list[float]
    step_size: float
    noisy: bool

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def langevin_chain(mu: np.ndarray, grad_loglik: Callable[[np.ndarray], np.ndarray], *,
                   steps: int, step_size: float, rng: np.random.Generator | None = None,
                   noise: bool = True, grad_clamp: float = 100.0,
                   z0: np.ndarray | None = None) -> LangevinTrace:
    """Short-run Langevin dynamics on log N(z; mu, I) + loglik(z).

    Each step moves by step_size * (-(z - mu) + clamp(grad_loglik(z))) plus
    sqrt(2 * step_size) Gaussian noise when ``noise`` is on. The chain starts
    at the prior draw mu + eps (or at mu exactly when noise is off) unless
    ``z0`` overrides it. A non-finite state, the start included, raises
    ``NumericError``.
    """
    if steps < 0:
        raise ContractError("langevin steps must be non-negative")
    if step_size < 0.0:
        raise ContractError("langevin step size must be non-negative")
    mu = np.asarray(mu, dtype=np.float64)
    if noise and rng is None:
        raise ContractError("a seeded generator is required when noise is on")
    if z0 is not None:
        z = np.asarray(z0, dtype=np.float64).copy()
        if z.shape != mu.shape:
            raise ContractError(f"z0 shape {z.shape} does not match mean {mu.shape}")
    elif noise:
        z = mu + rng.standard_normal(mu.shape)
    else:
        z = mu.copy()
    ad.check_finite(z, "langevin start state")
    states = [z.copy()]
    drift_norms: list[float] = []
    scale = np.sqrt(2.0 * step_size)
    for step in range(steps):
        grad = np.asarray(grad_loglik(z), dtype=np.float64)
        if grad.shape != mu.shape:
            raise ContractError(f"log-likelihood gradient shape {grad.shape} "
                                f"does not match latent {mu.shape}")
        # overflow is handled by the finiteness check below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            drift = -(z - mu) + np.clip(grad, -grad_clamp, grad_clamp)
            drift_norms.append(float(np.linalg.norm(drift)))
            z = z + step_size * drift
            if noise:
                z = z + scale * rng.standard_normal(mu.shape)
        ad.check_finite(z, f"langevin state at step {step}")
        states.append(z.copy())
    return LangevinTrace(states=states, drift_norms=drift_norms,
                         step_size=step_size, noisy=noise)


def decoder_grad_z(params: ModelParams, example: DialogueExample, s: int,
                   z: np.ndarray, encoded: EncodedContext | None = None) -> np.ndarray:
    """Gradient of the teacher-forced response log-likelihood in z.

    The context encoding is treated as fixed, so the tape only spans the
    decoder. Under ``params.constant()`` the tape holds only the nodes that
    depend on z, and the backward forms no weight gradient; the z-gradient
    is the same either way.
    """
    enc = encoded if encoded is not None else encode_context(params, example, [s])[0]
    with Tape() as tape:
        zt = Tensor(np.asarray(z, dtype=np.float64), name="z", trainable=True)
        loglik = decode_logprob(params, example, s, zt, encoded=enc)
        return ad.backward(tape, loglik)["z"]


def langevin_infer_z(params: ModelParams, example: DialogueExample, s: int, *,
                     steps: int, step_size: float,
                     rng: np.random.Generator | None = None, noise: bool = True,
                     grad_clamp: float = 100.0, z0: np.ndarray | None = None,
                     encoded: EncodedContext | None = None) -> LangevinTrace:
    """Run the short Langevin chain for candidate ``s`` of one example.

    The chain asks only for z-gradients, so it runs against a constant view
    of the weights, made for this chain alone."""
    enc = encoded if encoded is not None else encode_context(params, example, [s])[0]
    mu = latent_prior_mean(params, example, s, encoded=enc).data
    weights = params.constant()

    def grad_loglik(z: np.ndarray) -> np.ndarray:
        return decoder_grad_z(weights, example, s, z, encoded=enc)

    return langevin_chain(mu, grad_loglik, steps=steps, step_size=step_size,
                          rng=rng, noise=noise, grad_clamp=grad_clamp, z0=z0)


def sequential_posterior_infer(params: ModelParams, example: DialogueExample,
                               config: SpiConfig,
                               rng: np.random.Generator | None = None,
                               encodings: Sequence[EncodedContext] | None = None) -> LatentPair:
    """Two-stage posterior draw: knowledge index, then latent via Langevin.

    With no generator supplied, one is derived from the config seed, so
    repeated calls agree bit for bit. ``encodings`` (one per candidate)
    skips re-encoding when the caller already holds them.
    """
    config.validate()
    gen = rng if rng is not None else derived_rng(config.seed, 0)
    m = len(example.candidates)
    if encodings is None:
        encodings = encode_context(params, example)
    top_s = min(config.top_s, m) if config.prior == "uniform" else None
    outcome = select_knowledge(
        params, example, prior=config.prior, mode=config.selection,
        top_s=top_s, temperature=config.temperature, rng=gen, encodings=encodings)
    trace = langevin_infer_z(
        params, example, outcome.chosen, steps=config.langevin_steps,
        step_size=config.step_size, rng=gen, noise=config.langevin_noise,
        grad_clamp=config.grad_clamp, encoded=encodings[outcome.chosen])
    return LatentPair(s=outcome.chosen, z=trace.final)
