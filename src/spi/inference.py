"""Sequential posterior inference: pick the knowledge index from its
posterior under a point-mass latent, then refine the continuous latent with
a short Langevin chain started at the prior mean.

Both steps read their settings from the run's ``SpiConfig``: selection its
``prior``, ``top_s``, ``selection`` and ``temperature``, the chain its
``langevin_*``, ``step_size`` and ``grad_clamp`` fields. One rule, in
``select_knowledge_batch``, turns ``top_s`` into an example's width.
Selection arithmetic stays in log space throughout; the Langevin gradient of
the decoder term is clamped elementwise before entering the drift.

There is one draw, ``sequential_posterior_infer``, and it takes the examples
of one encoder pass: one selection decode over every (example, candidate)
lane (``select_knowledge_batch``, the only selection), then the short-run
chains, which share T and the step size, advance in lockstep as the rows of
one latent state, each example drawing from its own generator. One example
is a batch of one. The chain functions take rows only: a (B, latent) state,
B candidate indices and B generators. A chain plans its decode once
(``decode_plan``) and each of its steps runs only the latent's part of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import SpiConfig
from .errors import ContractError, NumericError
from .model import (DecodePlan, DialogueExample, EncodedContext, LatentPair, ModelParams,
                    decode_logprob, decode_plan, decode_run, encode_context,
                    latent_prior_means, prior_scores)


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
    """Indices of the ``top_s`` highest initializer scores, ascending: a
    stable argsort of the uniform ``prior_scores`` of the example's
    ``encodings``, so lower indices win ties. Without them the example is
    encoded in a pass of its own, the one-example view that the checks
    against the reference call."""
    m = len(example.candidates)
    if not 1 <= top_s <= m:
        raise ContractError(f"top_s must be in [1, {m}], got {top_s}")
    if encodings is None:
        encodings = encode_context(params, example)
    scores = prior_scores(params, [encodings], prior="uniform")[0]
    order = np.argsort(-scores, kind="stable")[:top_s]
    return sorted(int(i) for i in order)


def select_knowledge_batch(params: ModelParams, examples: Sequence[DialogueExample],
                           config: SpiConfig,
                           rngs: Sequence[np.random.Generator | None] | None = None, *,
                           encodings_batch: Sequence[Sequence[EncodedContext]]
                           ) -> list[SelectionOutcome]:
    """Each example's knowledge index from its posterior given the response,
    the candidate encodings of every example lanes of the caller's encoder
    pass (``encodings_batch``), example j drawing a sampled pick from
    ``rngs[j]``.

    The latent is held at each candidate's prior mean (point mass), so a
    candidate's log weight is its prior logit plus the teacher-forced
    response log-likelihood, divided by ``config.temperature`` and then
    normalized. Under the uniform prior an example scores the
    initializer's top min(``config.top_s``, M) candidates
    (``top_s_candidates``) with equal prior weights; under the learnable
    prior it scores all M, weighted by the learnable ``prior_scores``
    logits, and ``config.top_s`` is not read. Greedy selection takes the
    heaviest candidate, the lowest index on a tie; sampled selection draws
    from the example's generator, which it requires.

    Each example's subset and prior weights are its own; then one
    ``latent_prior_means`` and one ``decode_logprob`` score every (example,
    candidate) lane, each against its example's response, and each example
    normalizes and picks on its own. Lanes of a wider pass may round apart
    from a one-example pass in the last bits."""
    n = len(examples)
    if n < 1:
        raise ContractError("selection needs at least one example")
    gens = [None] * n if rngs is None else list(rngs)
    if len(gens) != n:
        raise ContractError(f"{len(gens)} generators for {n} examples")
    for example in examples:
        if len(example.candidates) < 1:
            raise ContractError("selection needs at least one candidate")
        if not example.response:
            raise ContractError("selection needs a response to score")
    if config.selection == "sampled" and any(gen is None for gen in gens):
        raise ContractError("a seeded generator is required for sampled selection")
    if len(encodings_batch) != n:
        raise ContractError(f"{len(encodings_batch)} encoding lists for {n} examples")
    if config.prior == "uniform":
        subsets = [top_s_candidates(params, ex, min(config.top_s, len(ex.candidates)),
                                    encodings=encs)
                   for ex, encs in zip(examples, encodings_batch)]
        prior_logits = [np.zeros(len(subset)) for subset in subsets]
    else:
        subsets = [list(range(len(ex.candidates))) for ex in examples]
        prior_logits = prior_scores(params, encodings_batch, prior="learnable")

    # every lane teacher-forces its own example's response: one lockstep decode
    owners = [ex for ex, subset in zip(examples, subsets) for _ in subset]
    lanes = [encs[i] for encs, subset in zip(encodings_batch, subsets) for i in subset]
    mus = latent_prior_means(params, lanes).data
    raw = decode_logprob(params, owners, [i for subset in subsets for i in subset], mus,
                         encoded=lanes).data
    outcomes, lo = [], 0
    for subset, logits, gen in zip(subsets, prior_logits, gens):
        scaled = (logits + raw[lo:lo + len(subset)]) / config.temperature
        lo += len(subset)
        log_weights = scaled - log_sum_exp(scaled)
        if config.selection == "greedy":
            chosen = subset[int(np.argmax(log_weights))]
        else:
            probs = np.exp(log_weights)
            probs = probs / probs.sum()
            chosen = int(gen.choice(np.asarray(subset), p=probs))
        outcomes.append(SelectionOutcome(chosen=chosen, evaluated=tuple(subset),
                                         log_weights=log_weights))
    return outcomes


@dataclass
class LangevinTrace:
    """States visited by B chains, run as the rows of each (B, latent)
    state; ``states[0]`` is the initial draw and the final state holds the
    inferred latents. ``drift_norms`` has one (B,) array per step: each
    row's drift norm."""

    states: list[np.ndarray]
    drift_norms: list[np.ndarray]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _check_state(z: np.ndarray, what: str) -> None:
    """``check_finite`` of a (B, latent) state, naming its first non-finite
    row: chain j is example j of a batch."""
    if not np.isfinite(z).all():
        first = int(np.isfinite(z).all(axis=1).argmin())
        raise NumericError(f"{what} of example {first} is non-finite")


def langevin_chain(mu: np.ndarray, grad_loglik: Callable[[np.ndarray], np.ndarray], *,
                   steps: int, step_size: float, rng: Sequence[np.random.Generator] | None = None,
                   noise: bool = True, grad_clamp: float = 100.0,
                   z0: np.ndarray | None = None) -> LangevinTrace:
    """Short-run Langevin dynamics on log N(z; mu, I) + loglik(z), for B
    chains in lockstep as the rows of one state: ``mu`` is (B, latent) and
    ``grad_loglik`` maps (B, latent) states to (B, latent) gradients.

    Each step moves by step_size * (-(z - mu) + clamp(grad_loglik(z))) plus
    sqrt(2 * step_size) Gaussian noise when ``noise`` is on; the clamp to
    [-grad_clamp, grad_clamp] is per element. The chains start at the prior
    draw mu + eps (or at mu exactly when noise is off) unless ``z0``
    overrides it. With noise on, ``rng`` holds one generator per row, and
    row j draws its start and its noise from the j-th alone, so each row
    draws what its chain would draw in a batch of one. A non-finite state,
    the start included, raises ``NumericError`` naming the step and its
    first non-finite row.
    """
    if steps < 0:
        raise ContractError("langevin steps must be non-negative")
    if step_size < 0.0:
        raise ContractError("langevin step size must be non-negative")
    if grad_clamp < 0.0:
        raise ContractError(f"langevin gradient clamp must be non-negative, got {grad_clamp}")
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 2:
        raise ContractError(f"langevin mean must be (B, latent) rows, got {mu.shape}: "
                            f"a lone chain is a batch of one")
    if noise and (not isinstance(rng, Sequence) or len(rng) != mu.shape[0]
                  or any(gen is None for gen in rng)):
        raise ContractError("a seeded generator is required when noise is on, "
                            "one per chain")

    def draw() -> np.ndarray:
        eps = np.empty(mu.shape)
        for row, gen in zip(eps, rng):
            gen.standard_normal(out=row)
        return eps

    if z0 is not None:
        z = np.asarray(z0, dtype=np.float64).copy()
        if z.shape != mu.shape:
            raise ContractError(f"z0 shape {z.shape} does not match mean {mu.shape}")
    elif noise:
        z = mu + draw()
    else:
        z = mu.copy()
    _check_state(z, "langevin start state")
    states = [z.copy()]
    drift_norms: list[np.ndarray] = []
    scale = np.sqrt(2.0 * step_size)
    for step in range(steps):
        grad = np.asarray(grad_loglik(z), dtype=np.float64)
        if grad.shape != mu.shape:
            raise ContractError(f"log-likelihood gradient shape {grad.shape} "
                                f"does not match latent {mu.shape}")
        # overflow is handled by the finiteness check below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            drift = -(z - mu) + np.clip(grad, -grad_clamp, grad_clamp)
            drift_norms.append(np.linalg.norm(drift, axis=1))
            z = z + step_size * drift
            if noise:
                z = z + scale * draw()
        _check_state(z, f"langevin state at step {step}")
        states.append(z.copy())
    return LangevinTrace(states=states, drift_norms=drift_norms)


def decoder_grad_z(params: ModelParams, plan: DecodePlan, z: np.ndarray) -> np.ndarray:
    """Gradient in z of the teacher-forced response log-likelihood of the
    lanes of ``plan`` (``decode_plan``), which holds everything of the
    decode that does not read z, so only z's part runs here (``decode_run``
    and its backward): the latent slot rows, the slots' projections, the
    recurrence and the output head.

    ``z`` is (B, latent) for a B-lane plan, and so is the gradient: the
    lanes summed and one backward. Row j enters only lane j, so its gradient
    is its lane's alone; a z of another shape raises ``ContractError``.

    The plan is made with the same weights. What it holds, the context
    encoding included, is fixed, so the tape spans only z's part of the
    decoder. Under ``params.constant()`` the tape holds only the nodes that
    depend on z, and the backward forms no weight gradient; the z-gradient
    is the same either way.
    """
    with Tape() as tape:
        zt = Tensor(np.asarray(z, dtype=np.float64), name="z", trainable=True)
        loglik = ad.reduce_sum(decode_run(params, plan, zt))
        return ad.backward(tape, loglik)["z"]


def langevin_infer_z(params: ModelParams, examples: Sequence[DialogueExample],
                     s: Sequence[int], *, encoded: Sequence[EncodedContext], steps: int,
                     step_size: float, rng: Sequence[np.random.Generator] | None = None,
                     noise: bool = True, grad_clamp: float = 100.0) -> LangevinTrace:
    """Run B short Langevin chains in lockstep, chain j for candidate
    ``s[j]`` of ``examples[j]``, one example per lane, from its prior mean,
    with the decoder's z-gradient (``decoder_grad_z``). ``encoded`` holds
    one encoding per index, lanes of one pass, and ``rng`` one generator per
    chain (``langevin_chain``'s rows); a lone chain is a batch of one.

    The chains plan their decode once (``decode_plan``: the lane checks, the
    lanes' states, the decoder's initial state, the teacher-forced inputs
    and masks), so each step is one ``decoder_grad_z`` run of that plan at
    the step's state: z's part of one B-lane decode and one backward. The
    chains ask only for z-gradients, so they run against a constant view of
    the weights, made for them alone."""
    if (isinstance(examples, DialogueExample) or np.ndim(s) != 1
            or not len(examples) == len(encoded) == len(s)):
        raise ContractError(f"langevin chains take one example per lane, a sequence of "
                            f"candidate indices and one encoding each, got {s!r}: a lone "
                            f"chain is a batch of one")
    mu = latent_prior_means(params, encoded).data
    weights = params.constant()
    # a chain of no steps asks for no gradient, so it plans no decode
    plan = decode_plan(weights, examples, s, encoded=encoded) if steps > 0 else None

    def grad_loglik(z: np.ndarray) -> np.ndarray:
        return decoder_grad_z(weights, plan, z)

    return langevin_chain(mu, grad_loglik, steps=steps, step_size=step_size, rng=rng,
                          noise=noise, grad_clamp=grad_clamp)


def sequential_posterior_infer(params: ModelParams, examples: Sequence[DialogueExample],
                               config: SpiConfig, rngs: Sequence[np.random.Generator],
                               encodings_batch: Sequence[Sequence[EncodedContext]]
                               ) -> list[LatentPair]:
    """The two-stage posterior draw of each example, knowledge index then
    latent, example j drawing its sampled pick and its chain's noise from
    ``rngs[j]``, for the examples of the caller's encoder pass
    (``encodings_batch``): one ``select_knowledge_batch``, then the B
    Langevin chains in lockstep, each step one B-lane decode and one
    backward. Each generator draws what it would draw for its example alone,
    so a wider pass agrees with batches of one up to the rounding of the
    wider products. A non-finite chain state raises ``NumericError`` naming
    the step and the example's position in ``examples``."""
    outcomes = select_knowledge_batch(params, examples, config, rngs,
                                      encodings_batch=encodings_batch)
    picks = [outcome.chosen for outcome in outcomes]
    trace = langevin_infer_z(
        params, examples, picks, steps=config.langevin_steps, step_size=config.step_size, rng=rngs,
        noise=config.langevin_noise, grad_clamp=config.grad_clamp,
        encoded=[encs[s] for encs, s in zip(encodings_batch, picks)])
    return [LatentPair(s=s, z=z) for s, z in zip(picks, trace.final)]
