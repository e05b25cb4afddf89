"""Approximate maximum-likelihood training.

Each batch runs sequential posterior inference per example, takes one
ascent step on the latent-completed objective (the inferred latents held
constant), and one descent step on the selection head's binary cross-entropy
against multi-hot labels (gold plus the posterior pick). There is one
selection head under both priors, so the cross-entropy step is the same
(``initializer_ce_step``); under the learnable prior the surrogate objective
trains the head too, through the pick's log-probability. Validation loss is
the same surrogate objective on held-out data under a fixed per-epoch seed;
the best checkpoint is the epoch with the lowest validation loss.

The drivers, ``train`` and ``validation_loss``, encode each batch in one
pass off the tape (``encode_batch``), every candidate of every example a
lane of it, and hand the pass to inference and the head cross-entropy. Both
draw through the one SPI draw, ``inference.sequential_posterior_infer``.
Validation encodes ``batch_size`` examples to a pass, takes the
generation-time pick of every example of a pass from one head product
(``pick_knowledge``), draws them all in one call (one selection decode, then
the Langevin chains in lockstep) and scores them with one
``surrogate_objectives`` call (one B-lane decode at the inferred latents).
Training calls the draw once per example, a batch of one with the example's
own generator, and its taped surrogate step runs per example too
(``surrogate_objective``, the batch of one): the one pass below the drivers,
on the tape, since its gradient runs through the encoder.

Most of a training example's time is its Langevin chain: T runs of the
latent's part of one planned decode (``inference.langevin_infer_z``). Its
taped surrogate step records each recurrent step, the product and its
tanh, as one node (``tests/test_node_budget.py`` holds its budget).
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import (SEED_SHUFFLE, SEED_TRAIN, SEED_VALID, SpiConfig,
                     derived_rng)
from .errors import ContractError, NumericError
from .fsio import dump_json_line, atomic_write_text
from .generation import pick_knowledge
from .inference import sequential_posterior_infer
from .metrics import scored_tokens
from .model import (DialogueExample, EncodedContext, LatentPair, ModelParams,
                    decode_logprob, encode_batch, encode_context, head_logits,
                    latent_prior_log_density, latent_prior_means)

log = logging.getLogger(__name__)


def surrogate_objectives(params: ModelParams, examples: Sequence[DialogueExample],
                         picks: Sequence[int], zs, prior: str,
                         encodings_batch: Sequence[Sequence[EncodedContext]]) -> ad.Tensor:
    """Latent-completed objective of each example, (B,): the latent prior
    log-density of its row of ``zs`` (B, latent) plus the response
    log-likelihood under candidate ``picks[j]``, plus, in learnable mode,
    the knowledge prior log-probability of the pick, a log-softmax of the
    selection head's logits over all M candidates (PostKS's prior over the
    whole pool), though selection scored only the top-S. ``zs`` and ``picks``
    enter as constants, and encodings made off the tape carry no encoder
    gradient.

    ``encodings_batch[j]`` holds every candidate of example j or, under the
    uniform prior, its pick's alone, all lanes of one pass. One
    ``latent_prior_means`` and one B-lane ``decode_logprob`` cover the
    picks. The head's logits come from one ``head_logits`` product over
    every candidate (the taped tensor, not ``prior_scores``); each
    example's log-softmax is taken over its own slice, and its entry at the
    pick is added into the example's row by a one-hot product, whose zeros
    add nothing. A batch of one takes no slice, so it has the bits of the
    ops applied to one example."""
    n = len(examples)
    if prior not in ("uniform", "learnable"):
        raise ContractError(f"unknown prior mode {prior!r}")
    if n < 1 or len(picks) != n or len(encodings_batch) != n:
        raise ContractError(f"{len(picks)} picks and {len(encodings_batch)} encoding lists "
                            f"for {n} examples")
    if prior == "learnable" and any(len(encs) != len(ex.candidates)
                                    for ex, encs in zip(examples, encodings_batch)):
        raise ContractError("the learnable prior needs every candidate's encoding")
    lanes = [encs[s if len(encs) > 1 else 0] for encs, s in zip(encodings_batch, picks)]
    zt = Tensor(np.asarray(zs, dtype=np.float64))
    obj = ad.add(latent_prior_log_density(latent_prior_means(params, lanes), zt),
                 decode_logprob(params, examples, list(picks), zt, encoded=lanes))
    if prior == "learnable":
        logits = head_logits(params, [enc for encs in encodings_batch for enc in encs])
        lo = 0
        for j, (encs, s) in enumerate(zip(encodings_batch, picks)):
            m = len(encs)
            mine = logits if n == 1 else ad.gather_rows(logits, slice(lo, lo + m))
            onehot = np.zeros((m, n))
            onehot[s, j] = 1.0
            obj = ad.matmul(ad.log(ad.softmax(mine)), Tensor(onehot), plus=obj)
            lo += m
    return obj


def surrogate_objective(params: ModelParams, example: DialogueExample, s: int,
                        z: np.ndarray, prior: str) -> ad.Tensor:
    """Latent-completed objective for one example, a scalar: the batch of
    one of ``surrogate_objectives``, over a pass of its own of candidate
    ``s`` (uniform) or every candidate (learnable). ``mle_step`` calls it on
    its tape, so the gradient runs through the encoder."""
    encodings = encode_context(params, example, None if prior == "learnable" else [s])
    objs = surrogate_objectives(params, [example], [s], np.asarray(z, dtype=np.float64)[None],
                                prior, [encodings])
    return ad.gather_rows(objs, 0)


def mle_step(params: ModelParams, batch: list[DialogueExample], config: SpiConfig,
             latents: list[LatentPair]) -> float:
    """One ascent step on the batch-mean surrogate objective at the inferred
    ``latents``, one (s, z) per example. Returns the surrogate loss
    (negative mean objective). Under the uniform prior the objective never
    reads the selection head, so it does not move here; under the learnable
    prior it moves with the rest, through the pick's log-softmax over all M.
    """
    if not batch:
        raise ContractError("mle_step needs a non-empty batch")
    if len(latents) != len(batch):
        raise ContractError("latents must align with the batch")
    total = 0.0
    grad_sum: dict[str, np.ndarray] = {}
    for example, pair in zip(batch, latents):
        with Tape() as tape:
            obj = surrogate_objective(params, example, pair.s, pair.z, config.prior)
            grads = ad.backward(tape, obj)
        total += float(obj.data)
        for name, grad in grads.items():
            held = grad_sum.get(name)
            grad_sum[name] = grad.copy() if held is None else held + grad
    _check_gradients(grad_sum, params.names())
    if config.lr_model != 0.0:
        inv = 1.0 / len(batch)
        for name, grad in grad_sum.items():
            params.tensors[name].data += config.lr_model * inv * grad
    return -total / len(batch)


def _check_gradients(grads: dict[str, np.ndarray], names) -> None:
    """Raise, naming the first of ``names`` whose gradient is non-finite,
    before any weight moves."""
    for name in names:
        if name in grads:
            ad.check_finite(grads[name], f"gradient of {name}")


def multi_hot_labels(example: DialogueExample, selected: int) -> np.ndarray:
    """Selection labels: gold and the posterior pick (one or two ones)."""
    labels = np.zeros(len(example.candidates))
    labels[selected] = 1.0
    if example.gold_index is not None:
        labels[example.gold_index] = 1.0
    return labels


def head_ce_loss(params: ModelParams, batch: list[DialogueExample],
                 labels: list[np.ndarray],
                 encodings_batch: Sequence[Sequence[EncodedContext]]) -> Tensor:
    """Batch-mean binary cross-entropy of the selection head against 0/1
    multi-hot labels: -(y . log sigmoid(x) + (1 - y) . log sigmoid(-x)) / B
    over every candidate's logit x in the batch, from one head pass over
    ``encodings_batch``, the caller's lanes of every candidate, made off the
    tape, so the gradient touches only the head."""
    if not batch:
        raise ContractError("cross-entropy needs a non-empty batch")
    if len(labels) != len(batch) or len(encodings_batch) != len(batch):
        raise ContractError("labels and encodings must align with the batch")
    for y, example, encs in zip(labels, batch, encodings_batch):
        if len(y) != len(example.candidates) or len(encs) != len(y):
            raise ContractError("label vector and encodings must match the candidate count")
    x = head_logits(params, [enc for encs in encodings_batch for enc in encs])
    y = np.concatenate(labels).astype(np.float64)
    positive = ad.matmul(ad.log_sigmoid(x), Tensor(y))
    total = ad.matmul(ad.log_sigmoid(ad.neg(x)), Tensor(1.0 - y), plus=positive)
    return ad.scale(total, -1.0 / len(batch))


def initializer_ce_step(params: ModelParams, batch: list[DialogueExample],
                        labels: list[np.ndarray], lr: float,
                        encodings_batch: Sequence[Sequence[EncodedContext]]) -> float:
    """Binary-CE descent on the selection head, under either prior; returns
    the batch-mean cross-entropy."""
    with Tape() as tape:
        loss = head_ce_loss(params, batch, labels, encodings_batch)
        grads = ad.backward(tape, loss)
    _check_gradients(grads, ("init_w", "init_b"))
    if lr != 0.0:
        for name in ("init_w", "init_b"):
            params.tensors[name].data -= lr * grads[name]
    return float(loss.data)


def validation_loss(params: ModelParams, examples: list[DialogueExample],
                    config: SpiConfig, epoch: int) -> tuple[float, float | None]:
    """Mean surrogate loss on held-out data with the run's own inference
    settings under a fixed per-epoch seed, and the selection accuracy of the
    generation-time pick over the gold-labelled examples (None when none are).
    Each batch of ``config.batch_size`` examples is encoded in one pass for
    both, picked by one head product (``pick_knowledge``), inferred in
    lockstep (``sequential_posterior_infer``), example ``i`` drawing from its
    own generator, and scored by one ``surrogate_objectives`` call; a batch
    of one scores as ``surrogate_objective`` does, to the bit. A non-finite
    chain names its batch, example and step, and a non-finite objective its
    batch and example."""
    if not examples:
        raise ContractError("validation set is empty")
    total = 0.0
    hits = 0
    labelled = 0
    for lo in range(0, len(examples), config.batch_size):
        chunk = examples[lo:lo + config.batch_size]
        encodings_batch = encode_batch(params, chunk)
        picks = pick_knowledge(params, encodings_batch)
        rngs = [derived_rng(config.seed, SEED_VALID, epoch, idx)
                for idx in range(lo, lo + len(chunk))]
        try:
            pairs = sequential_posterior_infer(params, chunk, config, rngs,
                                               encodings_batch)
            values = surrogate_objectives(params, chunk, [pair.s for pair in pairs],
                                          [pair.z for pair in pairs], config.prior,
                                          encodings_batch).data
            finite = np.isfinite(values)
            if not finite.all():
                raise NumericError(f"surrogate objective of example {int(finite.argmin())} "
                                   f"is non-finite")
        except NumericError as err:
            raise NumericError(
                f"validation batch {lo // config.batch_size}: {err}") from err
        for value in values.tolist():
            total += value
        for example, pick in zip(chunk, picks):
            if example.gold_index is not None:
                labelled += 1
                hits += pick == example.gold_index
    return -total / len(examples), (hits / labelled if labelled else None)


@dataclass
class TrainResult:
    params: ModelParams            # final weights
    best_params: ModelParams       # lowest validation loss
    best_epoch: int
    best_validation_loss: float
    records: list[dict]            # one metrics record per epoch
    epoch_seconds: list[float]     # training pass only, wall clock
    batch_losses: list[list[float]]  # surrogate loss per batch, per epoch


def train(train_examples: list[DialogueExample],
          valid_examples: list[DialogueExample], config: SpiConfig,
          log_path=None, quiet: bool = False) -> TrainResult:
    """Full training loop; deterministic given the config seed.

    Writes the metrics log (config line, then one JSON record per epoch) to
    ``log_path`` if given. Wall-clock timings stay out of the log so equal
    seeds produce byte-identical files. Every response of both splits is
    checked against the cap (``scored_tokens``) before epoch 0.
    """
    if not train_examples:
        raise ContractError("training set is empty")
    params = ModelParams.init(config.model, seed=config.seed)
    for split, examples in (("train", train_examples), ("valid", valid_examples)):
        scored_tokens(params, examples, f"{split} example")
    records: list[dict] = []
    epoch_seconds: list[float] = []
    all_batch_losses: list[list[float]] = []
    best_loss = np.inf
    best_epoch = -1
    for epoch in range(config.epochs):
        start = time.perf_counter()
        order = derived_rng(config.seed, SEED_SHUFFLE, epoch).permutation(
            len(train_examples))
        batch_losses: list[float] = []
        ce_losses: list[float] = []
        for lo in range(0, len(order), config.batch_size):
            idxs = [int(i) for i in order[lo:lo + config.batch_size]]
            batch = [train_examples[i] for i in idxs]
            try:
                encodings_batch = encode_batch(params, batch)
                latents = [sequential_posterior_infer(
                               params, [ex], config,
                               [derived_rng(config.seed, SEED_TRAIN, epoch, i)], [encs])[0]
                           for i, ex, encs in zip(idxs, batch, encodings_batch)]
                loss = mle_step(params, batch, config, latents=latents)
                labels = [multi_hot_labels(ex, pair.s) for ex, pair in zip(batch, latents)]
                ce = initializer_ce_step(params, batch, labels, config.lr_head,
                                         encodings_batch)
            except NumericError as err:
                raise NumericError(
                    f"epoch {epoch}, batch {lo // config.batch_size}: {err}") from err
            batch_losses.append(loss)
            ce_losses.append(ce)
        epoch_seconds.append(time.perf_counter() - start)
        all_batch_losses.append(batch_losses)

        if valid_examples:
            val_loss, val_acc = validation_loss(params, valid_examples, config, epoch)
        else:
            val_loss, val_acc = float(np.mean(batch_losses)), None
        record = {"epoch": epoch,
                  "surrogate_loss": float(np.mean(batch_losses)),
                  "ce_loss": float(np.mean(ce_losses)),
                  "validation_loss": float(val_loss),
                  # null when no validation example is gold-labelled
                  "selection_accuracy": val_acc}
        records.append(record)
        if not quiet:
            log.info("epoch %d: surrogate %.4f ce %.4f val %.4f acc %s (%.1fs)",
                     epoch, record["surrogate_loss"], record["ce_loss"], val_loss,
                     "n/a" if val_acc is None else f"{val_acc:.3f}", epoch_seconds[-1])
        if val_loss < best_loss:
            best_loss = float(val_loss)
            best_epoch = epoch
            best_params = params.copy()
        if log_path is not None:
            lines = [dump_json_line({"config": config.to_dict()})]
            lines += [dump_json_line(r) for r in records]
            atomic_write_text(log_path, "\n".join(lines) + "\n")
    if best_epoch < 0:
        best_params = params.copy()
        best_epoch = 0
        best_loss = float("nan")
    return TrainResult(params=params, best_params=best_params, best_epoch=best_epoch,
                       best_validation_loss=float(best_loss), records=records,
                       epoch_seconds=epoch_seconds, batch_losses=all_batch_losses)
