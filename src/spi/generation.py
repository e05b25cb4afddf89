"""Deterministic response generation.

At generation time the model has no access to the reference response:
knowledge is picked by the initializer head (uniform prior) or the prior
head (learnable), the response latent sits at the prior mean, and decoding
is greedy with a hard length cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import check_finite
from .errors import ContractError
from .fsio import write_jsonl
from .model import (BOS, EOS, DialogueExample, EncodedContext, ModelParams,
                    decoder_advance, decoder_start, encode_batch,
                    initializer_scores, knowledge_prior_logits,
                    latent_prior_mean, output_logits)


def select_for_generation(params: ModelParams, example: DialogueExample, *,
                          prior: str,
                          encodings: Sequence[EncodedContext] | None = None) -> int:
    """Argmax knowledge pick over all candidates, scored without the
    response. Ties resolve to the lowest index."""
    if prior == "uniform":
        scores = initializer_scores(params, example, encodings=encodings)
    elif prior == "learnable":
        scores = knowledge_prior_logits(params, example, encodings=encodings).data
    else:
        raise ContractError(f"unknown prior mode {prior!r}")
    return int(np.argmax(scores))


@dataclass(frozen=True)
class GenerationResult:
    s: int                      # knowledge pick
    z: np.ndarray               # latent used (the prior mean)
    tokens: list[int]           # generated ids, always ending in EOS
    logprobs: list[float]       # per-token log-probability under the model


# examples per encoder pass of ``generate_batch``: a pass holds the rows of
# every candidate of its examples at once, so a long input is encoded in
# chunks, each freed once its picks own their rows
ENCODE_CHUNK = 32


def generate(params: ModelParams, example: DialogueExample, *, prior: str,
             max_len: int = 32) -> GenerationResult:
    """Greedy decode from the prior-mean latent. Emits at most ``max_len``
    tokens and forces EOS at the cap."""
    return generate_batch(params, [example], prior=prior, max_len=max_len)[0]


def generate_batch(params: ModelParams, examples: list[DialogueExample], *,
                   prior: str, max_len: int = 32) -> list[GenerationResult]:
    """``generate`` for every example, as the lanes of one greedy lockstep
    decode; a lane retires at its own EOS or at the cap. The examples are
    encoded ``ENCODE_CHUNK`` to a pass."""
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    if not examples:
        return []
    picks, picked, zs = [], [], []
    for lo in range(0, len(examples), ENCODE_CHUNK):
        chunk = examples[lo:lo + ENCODE_CHUNK]
        for example, encodings in zip(chunk, encode_batch(params, chunk)):
            s = select_for_generation(params, example, prior=prior, encodings=encodings)
            picks.append(s)
            picked.append(encodings[s].own_states())
            zs.append(latent_prior_mean(params, example, s, encoded=encodings[s]).data)
    del encodings  # the last example's lanes would hold their pass through the decode
    cursor = decoder_start(params, picked, np.stack(zs))
    tokens: list[list[int]] = [[] for _ in examples]
    logprobs: list[list[float]] = [[] for _ in examples]
    done = [False] * len(examples)  # a retired lane runs on unread
    lanes = np.arange(len(examples))
    prev = np.full(len(examples), BOS)
    for step in range(max_len):
        cursor = decoder_advance(params, cursor, prev)
        logits = output_logits(params, cursor.state, cursor.ctx).data.reshape(len(lanes), -1)
        check_finite(logits, f"output at generation step {step}")
        shifted = logits - logits.max(axis=1, keepdims=True)
        prev = logits.argmax(axis=1)
        if step == max_len - 1:
            prev[:] = EOS
        # the log-softmax at the picked token only
        picked = shifted[lanes, prev] - np.log(np.exp(shifted).sum(axis=1))
        for lane, (tok, lp) in enumerate(zip(prev.tolist(), picked.tolist())):
            if not done[lane]:
                tokens[lane].append(tok)
                logprobs[lane].append(lp)
                done[lane] = tok == EOS
        if all(done):
            break
    return [GenerationResult(s=s, z=z, tokens=toks, logprobs=lps)
            for s, z, toks, lps in zip(picks, zs, tokens, logprobs)]


def write_generations(path, results: list[GenerationResult]) -> None:
    """One JSON object per line: id, knowledge pick, tokens, log-probs."""
    records = [{"id": i, "s": r.s, "tokens": r.tokens, "logprobs": r.logprobs}
               for i, r in enumerate(results)]
    write_jsonl(path, records)
