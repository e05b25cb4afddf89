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

from .errors import ContractError
from .fsio import write_jsonl
from .model import (BOS, EOS, DialogueExample, EncodedContext, ModelParams,
                    decoder_advance, decoder_start, encode_context,
                    initializer_scores, knowledge_prior_logits,
                    latent_prior_mean, output_logits)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    return shifted - np.log(np.sum(np.exp(shifted)))


def select_for_generation(params: ModelParams, example: DialogueExample, *,
                          prior: str,
                          encodings: Sequence[EncodedContext] | None = None) -> int:
    """Argmax knowledge pick over all candidates, scored without the
    response. Ties resolve to the lowest index."""
    if prior == "uniform":
        scores = initializer_scores(params, example, prior="uniform",
                                    encodings=encodings).data
    elif prior == "learnable":
        scores = knowledge_prior_logits(params, example, prior="learnable",
                                        encodings=encodings).data
    else:
        raise ContractError(f"unknown prior mode {prior!r}")
    return int(np.argmax(scores))


@dataclass(frozen=True)
class GenerationResult:
    s: int                      # knowledge pick
    z: np.ndarray               # latent used (the prior mean)
    tokens: list[int]           # generated ids, always ending in EOS
    logprobs: list[float]       # per-token log-probability under the model


def generate(params: ModelParams, example: DialogueExample, *, prior: str,
             max_len: int = 32) -> GenerationResult:
    """Greedy decode from the prior-mean latent. Emits at most ``max_len``
    tokens and forces EOS at the cap."""
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    encodings = encode_context(params, example)
    s = select_for_generation(params, example, prior=prior, encodings=encodings)
    encoded = encodings[s]
    z = latent_prior_mean(params, example, s, encoded=encoded).data
    cursor = decoder_start(params, encoded, z)
    tokens: list[int] = []
    logprobs: list[float] = []
    prev = BOS
    while len(tokens) < max_len:
        cursor = decoder_advance(params, cursor, prev)
        logits = output_logits(params, cursor.state, cursor.ctx)
        logp = _log_softmax(logits.data)
        tok = int(np.argmax(logits.data))
        if len(tokens) == max_len - 1 and tok != EOS:
            tok = EOS
        tokens.append(tok)
        logprobs.append(float(logp[tok]))
        if tok == EOS:
            break
        prev = tok
    return GenerationResult(s=s, z=z, tokens=tokens, logprobs=logprobs)


def generate_batch(params: ModelParams, examples: list[DialogueExample], *,
                   prior: str, max_len: int = 32) -> list[GenerationResult]:
    return [generate(params, ex, prior=prior, max_len=max_len) for ex in examples]


def write_generations(path, results: list[GenerationResult]) -> None:
    """One JSON object per line: id, knowledge pick, tokens, log-probs."""
    records = [{"id": i, "s": r.s, "tokens": r.tokens, "logprobs": r.logprobs}
               for i, r in enumerate(results)]
    write_jsonl(path, records)
