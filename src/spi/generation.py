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
from .model import (BOS, EOS, DialogueExample, EncodedContext, ModelParams, _decoder_inputs,
                    _decoder_step, decoder_lanes, decoder_start, encode_batch, keep_lanes,
                    latent_prior_means, output_logits, prior_scores)


def pick_knowledge(params: ModelParams, encodings_batch: Sequence[Sequence[EncodedContext]],
                   *, prior: str) -> list[int]:
    """Argmax knowledge pick of each example over all its candidates
    (``encodings_batch[e]``, one encoding per candidate): the argmax of its
    ``prior_scores``, which scores every encoding of the batch in one head
    product without the response. Ties resolve to the lowest index; no
    examples get no picks."""
    return [int(np.argmax(x)) for x in prior_scores(params, encodings_batch, prior=prior)]


@dataclass(frozen=True)
class GenerationResult:
    s: int                      # knowledge pick
    z: np.ndarray               # latent used (the prior mean)
    tokens: list[int]           # generated ids, always ending in EOS
    logprobs: list[float]       # per-token log-probability under the model


# examples per encoder pass: a pass holds the rows of every candidate of its
# examples at once, and a greedy decode every step's logits of its lanes, so
# a long input is encoded, decoded and scored in chunks (``chunks``)
ENCODE_CHUNK = 32


def chunks(items: Sequence) -> list[Sequence]:
    """The examples, or what aligns with them, ``ENCODE_CHUNK`` at a time."""
    return [items[lo:lo + ENCODE_CHUNK] for lo in range(0, len(items), ENCODE_CHUNK)]


@dataclass
class Picks:
    """What ``encode_and_pick`` keeps of its encoder pass."""

    s: list[int]                 # each example's knowledge pick
    lanes: list[EncodedContext]  # each pick's lane, gathered out of its pass
    z: np.ndarray                # (n, latent) prior means of the picks


def encode_and_pick(params: ModelParams, examples: Sequence[DialogueExample], *,
                    prior: str) -> Picks:
    """Encode the examples (one chunk of ``chunks``) in one pass, pick every
    example's knowledge from one head product (``pick_knowledge``), take the
    picks' prior means from one latent-prior product and keep the picked
    lanes with one gather (``keep_lanes``), so the pass is freed on return."""
    encodings = encode_batch(params, examples)
    picks = pick_knowledge(params, encodings, prior=prior)
    kept = keep_lanes([encs[s] for encs, s in zip(encodings, picks)])
    return Picks(s=picks, lanes=kept, z=latent_prior_means(params, kept).data)


def decode_greedy(params: ModelParams, picks: Picks, max_len: int) -> list[GenerationResult]:
    """Greedy lockstep decode of the picked lanes from their prior-mean
    latents; a lane retires at its own EOS or at the cap, where EOS is
    forced. A lone lane (``generate``) feeds its id as a Python int, the
    one-lane layout's token, and stops at its own EOS with no lane mask; k
    lanes run on, a retired lane unread, until every lane has stopped.

    A step is the decoder's own (``_decoder_step``, as in a teacher-forced
    decode), the output head and each lane's argmax. The steps' logits are
    kept, (steps, lanes, V), and read once after the loop: a non-finite
    entry raises ``NumericError`` naming the first step that has one, and
    each kept token's log-probability is the log-softmax of its step's row
    at it, by the formula (and to the bits) a step would take."""
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    n, s, z = len(picks.lanes), picks.s, picks.z
    cursor = decoder_start(params, decoder_lanes(params, picks.lanes), z)
    # the cursor holds the picked lanes' rows: a caller that hands its picks
    # on (``generate_batch``) lets the lanes go for the decode
    del picks
    step_logits, step_tokens = [], []
    if n == 1:
        prev = BOS
        for step in range(max_len):
            cursor = _decoder_step(params, cursor, _decoder_inputs(params, prev))
            logits = output_logits(params, cursor.state, cursor.ctx).data  # (V,)
            prev = EOS if step == max_len - 1 else int(logits.argmax())
            step_logits.append(logits)
            step_tokens.append(prev)
            if prev == EOS:
                break
    else:
        done = np.zeros(n, dtype=bool)  # a retired lane runs on unread
        prev = np.full(n, BOS)
        for step in range(max_len):
            cursor = _decoder_step(params, cursor, _decoder_inputs(params, prev))
            logits = output_logits(params, cursor.state, cursor.ctx).data  # (n, V)
            prev = logits.argmax(axis=1)
            if step == max_len - 1:
                prev[:] = EOS
            step_logits.append(logits)
            step_tokens.append(prev)
            done |= prev == EOS
            if done.all():
                break
    del cursor
    steps = len(step_logits)
    logits = np.stack(step_logits).reshape(steps, n, -1)  # (T, n, V)
    tokens = np.array(step_tokens).reshape(steps, n)      # (T, n)
    del step_logits
    finite = np.isfinite(logits).all(axis=(1, 2))
    if not finite.all():
        first = int(finite.argmin())
        check_finite(logits[first], f"output at generation step {first}")
    # the log-softmax at the picked token only, in place
    logits -= logits.max(axis=2, keepdims=True)
    at = np.take_along_axis(logits, tokens[:, :, None], axis=2)[:, :, 0]
    logprobs = (at - np.log(np.exp(logits, out=logits).sum(axis=2))).T.tolist()
    # each lane keeps its steps up to its first EOS, which every lane has
    ends = (tokens == EOS).argmax(axis=0) + 1
    return [GenerationResult(s=pick, z=mean, tokens=toks[:end], logprobs=lps[:end])
            for pick, mean, toks, lps, end in zip(s, z, tokens.T.tolist(), logprobs,
                                                   ends.tolist())]


def generate(params: ModelParams, example: DialogueExample, *, prior: str,
             max_len: int | None = None) -> GenerationResult:
    """Greedy decode from the prior-mean latent. Emits at most ``max_len``
    tokens (by default the model's ``max_response``), EOS forced at the cap."""
    return generate_batch(params, [example], prior=prior, max_len=max_len)[0]


def generate_batch(params: ModelParams, examples: list[DialogueExample], *,
                   prior: str, max_len: int | None = None) -> list[GenerationResult]:
    """``generate`` for every example. Each chunk of ``chunks`` is encoded
    and picked in one pass (``encode_and_pick``), then decoded as the lanes
    of one greedy lockstep decode (``decode_greedy``), before the next."""
    max_len = params.cfg.max_response if max_len is None else max_len
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    return [result for chunk in chunks(examples)
            for result in decode_greedy(params, encode_and_pick(params, chunk, prior=prior),
                                        max_len)]


def write_generations(path, results: list[GenerationResult]) -> None:
    """One JSON object per line: id, knowledge pick, tokens, log-probs."""
    records = [{"id": i, "s": r.s, "tokens": r.tokens, "logprobs": r.logprobs}
               for i, r in enumerate(results)]
    write_jsonl(path, records)
