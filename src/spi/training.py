"""Approximate maximum-likelihood training.

Each batch runs sequential posterior inference per example, takes one
ascent step on the latent-completed objective (the inferred latents held
constant), and one descent step on the selection head's binary cross-entropy
against multi-hot labels (gold plus the posterior pick). Validation loss is
the same surrogate objective on held-out data under a fixed per-epoch seed;
the best checkpoint is the epoch with the lowest validation loss.

Each batch is encoded in one pass off the tape (``encode_batch``), every
candidate of every example a lane of it; inference and the head
cross-entropy reuse those encodings. Validation encodes its examples the
same way, ``batch_size`` to a pass. The taped surrogate step makes one more
pass per example, since its gradient runs through the encoder.
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
from .generation import select_for_generation
from .inference import sequential_posterior_infer
from .model import (DialogueExample, EncodedContext, LatentPair, ModelParams,
                    decode_logprob, encode_batch, encode_context, head_logits,
                    knowledge_prior_logits, latent_prior_log_density,
                    latent_prior_mean)

log = logging.getLogger(__name__)


def surrogate_objective(params: ModelParams, example: DialogueExample, s: int,
                        z: np.ndarray, prior: str,
                        encodings: Sequence[EncodedContext] | None = None) -> ad.Tensor:
    """Latent-completed objective for one example: latent prior log-density
    plus response log-likelihood, plus the knowledge prior log-probability in
    learnable mode. ``z`` and ``s`` enter as constants. Without the
    candidate ``encodings`` it encodes candidate ``s`` (uniform) or every
    candidate (learnable) in one pass; encodings made off the tape carry no
    encoder gradient."""
    if encodings is None and prior == "learnable":
        encodings = encode_context(params, example)
    encoded = encodings[s] if encodings is not None else encode_context(params, example, [s])[0]
    mu = latent_prior_mean(params, example, s, encoded=encoded)
    zt = Tensor(np.asarray(z, dtype=np.float64))
    obj = ad.add(latent_prior_log_density(mu, zt),
                 decode_logprob(params, example, s, zt, encoded=encoded))
    if prior == "learnable":
        logits = knowledge_prior_logits(params, example, encodings=encodings)
        obj = ad.add(obj, ad.gather_rows(ad.log(ad.softmax(logits)), s))
    elif prior != "uniform":
        raise ContractError(f"unknown prior mode {prior!r}")
    return obj


def mle_step(params: ModelParams, batch: list[DialogueExample], config: SpiConfig,
             latents: list[LatentPair]) -> float:
    """One ascent step on the batch-mean surrogate objective at the inferred
    ``latents``, one (s, z) per example. Returns the surrogate loss
    (negative mean objective). The objective never reads the initializer
    head, nor the knowledge prior head in uniform mode, so neither moves
    here.
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
                 labels: list[np.ndarray], head: str,
                 encodings_batch=None) -> Tensor:
    """Batch-mean binary cross-entropy of one selection head against 0/1
    multi-hot labels: -(y . log sigmoid(x) + (1 - y) . log sigmoid(-x)) / B
    over every candidate's logit x in the batch, from one head pass. The
    candidate encodings enter as constants (made off the tape or, when not
    given, under constant weights), so the gradient touches only the head."""
    if not batch:
        raise ContractError("cross-entropy needs a non-empty batch")
    if len(labels) != len(batch):
        raise ContractError("labels must align with the batch")
    for y, example in zip(labels, batch):
        if len(y) != len(example.candidates):
            raise ContractError("label vector length must match the candidate count")
    if encodings_batch is None:
        encodings_batch = encode_batch(params.constant(), batch)
    x = head_logits(params, head, [enc for encs in encodings_batch for enc in encs])
    y = np.concatenate(labels).astype(np.float64)
    total = ad.add(ad.matmul(ad.log_sigmoid(x), Tensor(y)),
                   ad.matmul(ad.log_sigmoid(ad.neg(x)), Tensor(1.0 - y)))
    return ad.scale(total, -1.0 / len(batch))


def _head_ce_step(params: ModelParams, batch: list[DialogueExample],
                  labels: list[np.ndarray], lr: float, head: str,
                  encodings_batch=None) -> float:
    """Shared binary-CE descent on one selection head."""
    with Tape() as tape:
        loss = head_ce_loss(params, batch, labels, head, encodings_batch)
        grads = ad.backward(tape, loss)
    _check_gradients(grads, params.head_names(head))
    if lr != 0.0:
        for name in params.head_names(head):
            params.tensors[name].data -= lr * grads[name]
    return float(loss.data)


def initializer_ce_step(params: ModelParams, batch: list[DialogueExample],
                        labels: list[np.ndarray], lr: float,
                        encodings_batch=None) -> float:
    """Descent on the initializer head (uniform-prior mode); returns the
    batch-mean cross-entropy."""
    return _head_ce_step(params, batch, labels, lr, "initializer", encodings_batch)


def prior_ce_step(params: ModelParams, batch: list[DialogueExample],
                  labels: list[np.ndarray], lr: float,
                  encodings_batch=None) -> float:
    """Same multi-label update applied to the learnable prior head."""
    return _head_ce_step(params, batch, labels, lr, "knowledge_prior", encodings_batch)


def surrogate_value(params: ModelParams, example: DialogueExample, s: int,
                    z: np.ndarray, prior: str,
                    encodings: Sequence[EncodedContext] | None = None) -> float:
    value = float(surrogate_objective(params, example, s, z, prior, encodings).data)
    ad.check_finite(value, "surrogate objective")
    return value


def validation_loss(params: ModelParams, examples: list[DialogueExample],
                    config: SpiConfig, epoch: int) -> tuple[float, float]:
    """Mean surrogate loss on held-out data with the run's own inference
    settings under a fixed per-epoch seed, and the selection accuracy of the
    generation-time pick over the gold-labelled examples (0 when none are).
    Each batch of ``config.batch_size`` examples is encoded in one pass for
    both."""
    if not examples:
        raise ContractError("validation set is empty")
    total = 0.0
    hits = 0
    labelled = 0
    for lo in range(0, len(examples), config.batch_size):
        chunk = examples[lo:lo + config.batch_size]
        for idx, (example, encodings) in enumerate(zip(chunk, encode_batch(params, chunk)), lo):
            rng = derived_rng(config.seed, SEED_VALID, epoch, idx)
            pair = sequential_posterior_infer(params, example, config, rng=rng,
                                              encodings=encodings)
            total += surrogate_value(params, example, pair.s, pair.z, config.prior,
                                     encodings)
            if example.gold_index is not None:
                labelled += 1
                pick = select_for_generation(params, example, prior=config.prior,
                                             encodings=encodings)
                hits += pick == example.gold_index
    return -total / len(examples), (hits / labelled if labelled else 0.0)


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
    seeds produce byte-identical files.
    """
    config.validate()
    if not train_examples:
        raise ContractError("training set is empty")
    params = ModelParams.init(config.model, seed=config.seed)
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
                               params, ex, config,
                               rng=derived_rng(config.seed, SEED_TRAIN, epoch, i),
                               encodings=encs)
                           for i, ex, encs in zip(idxs, batch, encodings_batch)]
                loss = mle_step(params, batch, config, latents=latents)
                labels = [multi_hot_labels(ex, pair.s) for ex, pair in zip(batch, latents)]
                if config.prior == "uniform":
                    ce = initializer_ce_step(params, batch, labels, config.lr_head,
                                             encodings_batch)
                else:
                    ce = prior_ce_step(params, batch, labels, config.lr_head,
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
            val_loss, val_acc = float(np.mean(batch_losses)), 0.0
        record = {"epoch": epoch,
                  "surrogate_loss": float(np.mean(batch_losses)),
                  "ce_loss": float(np.mean(ce_losses)),
                  "validation_loss": float(val_loss),
                  "selection_accuracy": float(val_acc)}
        records.append(record)
        if not quiet:
            log.info("epoch %d: surrogate %.4f ce %.4f val %.4f acc %.3f (%.1fs)",
                     epoch, record["surrogate_loss"], record["ce_loss"],
                     val_loss, val_acc, epoch_seconds[-1])
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
