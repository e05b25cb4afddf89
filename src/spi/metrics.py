"""Evaluation metrics: selection accuracy, perplexity, BLEU, ROUGE, distinct-n.

Perplexity covers every response token up to and including the first EOS.

The n-gram metrics count token id sequences (``evaluate`` cuts each one
before its first EOS) by these rules:

- a sequence of length L has L - n + 1 n-grams, so one shorter than n has
  none;
- a pair's matches at order n are its clipped counts: each candidate
  n-gram counts at most as often as the reference holds it;
- corpus BLEU takes, at each order, the matches over the candidate n-grams
  of every pair, and falls back to (m+1)/(t+1) when an order has no
  matches (m = 0), so the geometric mean stays defined;
- ROUGE-n is the mean over pairs of each pair's n-gram F1;
- distinct-n pools the n-grams of every candidate: unique over total.

``_ngram_counts`` takes every one of these counts, exact integers, in one
array pass per order over the whole batch; the float formulas (``_bleu``,
``_rouge``, ``_distinct``) then run on them. Token ids must fit in 64 bits.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from . import generation
from .config import SpiConfig
from .errors import ContractError
from .generation import GenerationResult, decode_greedy, encode_and_pick
from .model import (EOS, DialogueExample, EncodedContext, ModelParams, _scored_response,
                    decode_logprob, encode_batch, latent_prior_means)


def selection_accuracy(predicted: list[int], examples: list[DialogueExample]) -> float:
    """Fraction of gold-labelled examples where the pick matches."""
    if len(predicted) != len(examples):
        raise ContractError("predictions must align with the examples")
    hits = 0
    denom = 0
    for pick, example in zip(predicted, examples):
        if example.gold_index is None:
            continue
        denom += 1
        if pick == example.gold_index:
            hits += 1
    if denom == 0:
        raise ContractError("no gold-labelled examples to score")
    return hits / denom


def scored_tokens(params: ModelParams, examples: list[DialogueExample],
                  what: str = "example") -> int:
    """Tokens a teacher-forced decode scores: each response up to its first
    EOS. A response that cannot be scored raises ``ContractError`` naming
    its position, as ``<what> <i>``, before any decode meets it."""
    total = 0
    for i, ex in enumerate(examples):
        try:
            total += len(_scored_response(params.cfg, ex))
        except ContractError as err:
            raise ContractError(f"{what} {i}: {err}") from None
    return total


def perplexity(params: ModelParams, examples: list[DialogueExample], *,
               picks: list[int]) -> float:
    """exp of the mean per-token negative log-likelihood of the reference
    responses, each conditioned on its knowledge pick and decoded from the
    prior-mean latent. Each chunk of ``generation.chunks`` is scored on its
    own (``_score_picks``), so memory stays bounded however many examples
    there are. The mean runs over the scored tokens, so padding past an EOS
    counts nowhere."""
    if not examples:
        raise ContractError("perplexity needs at least one example")
    if len(picks) != len(examples):
        raise ContractError("picks must align with the examples")
    n_tokens = scored_tokens(params, examples)
    lps: list[float] = []
    for exs, ss in zip(generation.chunks(examples), generation.chunks(picks)):
        lps += _score_picks(params, exs, ss)
    return _perplexity(lps, n_tokens)


def _score_picks(params: ModelParams, examples: Sequence[DialogueExample],
                 picks: Sequence[int]) -> list[float]:
    """Each example's reference log-probability under its given pick: the
    picks encoded in one pass, then ``_chunk_logprobs`` at their prior means."""
    lanes = [encs[0] for encs in encode_batch(params, examples, [[s] for s in picks])]
    return _chunk_logprobs(params, examples, picks, lanes, latent_prior_means(params, lanes).data)


def _chunk_logprobs(params: ModelParams, examples: Sequence[DialogueExample],
                    picks: Sequence[int], encodings: Sequence[EncodedContext],
                    z: np.ndarray) -> list[float]:
    """Each example's reference log-probability under its pick, from ``z``,
    the picks' prior means: one lockstep decode. ``encodings`` holds each
    example's encoding of its pick, lanes of the caller's pass."""
    return decode_logprob(params, examples, picks, z, encoded=encodings).data.tolist()


def _perplexity(lps: list[float], n_tokens: int) -> float:
    # summed in example order, however the examples were chunked
    return math.exp(-sum(lps) / n_tokens)


class _Order(NamedTuple):
    """One order's n-gram counts over a batch of (candidate, reference) pairs."""

    matches: np.ndarray      # (pairs,) each pair's clipped matches
    cand_totals: np.ndarray  # (pairs,) each candidate's n-grams
    ref_totals: np.ndarray   # (pairs,) each reference's n-grams
    distinct: int            # unique n-grams pooled over the candidates


def _ngram_counts(candidates: list[list[int]], references: list[list[int]],
                  max_n: int) -> list[_Order]:
    """The counts of orders 1..``max_n``, one array pass per order. The
    token ids are made dense once; an n-gram's code is made from its
    (n-1)-gram's code and its last token and made dense again, so codes stay
    below (tokens in the batch)^2 whatever the ids. Each pair's matches come
    from the sorted counts of its (pair, n-gram) keys on either side.
    ``references`` may be empty (distinct-n alone)."""
    seqs = [*candidates, *references]
    n_cand = len(candidates)
    n_pairs = max(n_cand, len(references))
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    try:
        flat = np.array(list(chain.from_iterable(seqs)), dtype=np.int64)
    except OverflowError:
        raise ContractError("n-gram metrics need token ids that fit in 64 bits") from None
    vocab, tokens = np.unique(flat, return_inverse=True)
    seq_of = np.repeat(np.arange(len(seqs)), lengths)
    is_cand = seq_of < n_cand
    pair_of = np.where(is_cand, seq_of, seq_of - n_cand)
    # tokens from each position to its sequence's end, itself included
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(flat.size)
    starts, codes, n_codes = np.arange(flat.size), tokens, vocab.size
    orders = []
    for n in range(1, max_n + 1):
        if n > 1:
            alive = left[starts] >= n
            starts = starts[alive]
            grams, codes = np.unique(codes[alive] * vocab.size + tokens[starts + n - 1],
                                     return_inverse=True)
            n_codes = grams.size
        cand = is_cand[starts]
        keys = pair_of[starts] * n_codes + codes
        cand_keys, cand_counts = np.unique(keys[cand], return_counts=True)
        ref_keys, ref_counts = np.unique(keys[~cand], return_counts=True)
        # a sentinel past every key, so each lookup lands inside the arrays
        ref_keys = np.append(ref_keys, n_pairs * n_codes)
        ref_counts = np.append(ref_counts, 0)
        at = np.searchsorted(ref_keys, cand_keys)
        clipped = np.where(ref_keys[at] == cand_keys, np.minimum(cand_counts, ref_counts[at]), 0)
        matches = np.bincount(cand_keys // n_codes, weights=clipped,
                              minlength=n_pairs).astype(np.int64)
        orders.append(_Order(matches, np.maximum(lengths[:n_cand] - n + 1, 0),
                             np.maximum(lengths[n_cand:] - n + 1, 0),
                             int(np.count_nonzero(np.bincount(codes[cand])))))
    return orders


def _bleu(orders: list[_Order]) -> float:
    log_precision_sum = 0.0
    for order in orders:
        matches, total = int(order.matches.sum()), int(order.cand_totals.sum())
        if total == 0:
            return 0.0
        precision = matches / total if matches > 0 else (matches + 1) / (total + 1)
        log_precision_sum += math.log(precision)
    # a sequence has as many unigrams as tokens
    cand_len, ref_len = int(orders[0].cand_totals.sum()), int(orders[0].ref_totals.sum())
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_precision_sum / len(orders))


def _rouge(order: _Order) -> float:
    scores = []
    for overlap, cand_total, ref_total in zip(order.matches.tolist(),
                                              order.cand_totals.tolist(),
                                              order.ref_totals.tolist()):
        precision = overlap / cand_total if cand_total else 0.0
        recall = overlap / ref_total if ref_total else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        scores.append(f1)
    return float(np.mean(scores))


def _distinct(order: _Order) -> float:
    total = int(order.cand_totals.sum())
    return order.distinct / total if total else 0.0


def bleu_corpus(candidates: list[list[int]], references: list[list[int]],
                max_n: int = 4) -> float:
    """Corpus BLEU with brevity penalty. A zero n-gram match count falls back
    to (matches+1)/(total+1) so the geometric mean stays defined."""
    if not 1 <= max_n <= 4:
        raise ContractError("max_n must lie in 1..4")
    if not candidates or len(candidates) != len(references):
        raise ContractError("candidates and references must align and be non-empty")
    return _bleu(_ngram_counts(candidates, references, max_n))


def rouge_n(candidates: list[list[int]], references: list[list[int]],
            n: int = 1) -> float:
    """Mean per-pair n-gram overlap F1."""
    if n < 1:
        raise ContractError("n must be at least 1")
    if not candidates or len(candidates) != len(references):
        raise ContractError("candidates and references must align and be non-empty")
    return _rouge(_ngram_counts(candidates, references, n)[-1])


def distinct_n(sequences: list[list[int]], n: int = 1) -> float:
    """Unique n-grams over total n-grams, pooled across all sequences."""
    if n < 1:
        raise ContractError("n must be at least 1")
    return _distinct(_ngram_counts(sequences, [], n)[-1])


def _ngram_fields(candidates: list[list[int]], references: list[list[int]]) -> dict:
    """``evaluate``'s BLEU, ROUGE and distinct-n fields, from one count of
    the pairs' 1- to 4-grams; each equals its public function's value."""
    orders = _ngram_counts(candidates, references, 4)
    return {"bleu3": _bleu(orders[:3]), "bleu4": _bleu(orders),
            "rouge1": _rouge(orders[0]), "rouge2": _rouge(orders[1]),
            "distinct1": _distinct(orders[0]), "distinct2": _distinct(orders[1])}


def _strip_eos(tokens: list[int]) -> list[int]:
    return tokens[:tokens.index(EOS)] if EOS in tokens else tokens


@dataclass(frozen=True)
class EvalReport:
    n_examples: int
    n_tokens: int
    selection_accuracy: float | None   # None when no example is gold-labelled
    perplexity: float
    bleu3: float
    bleu4: float
    rouge1: float
    rouge2: float
    distinct1: float
    distinct2: float
    oracle_knowledge: bool

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(params: ModelParams, examples: list[DialogueExample],
             config: SpiConfig, *, oracle_knowledge: bool = False) -> EvalReport:
    """Full held-out evaluation. Selection accuracy always scores the model's
    own pick, over the gold-labelled examples, and is None when there are
    none; the oracle flag makes perplexity condition on the gold candidate
    instead of that pick.

    Each chunk of ``generation.chunks`` is encoded, picked, decoded and
    scored before the next, so memory stays bounded however many examples
    there are: it is encoded and picked in one pass (``encode_and_pick``)
    and decoded from the picked lanes kept from it (``decode_greedy``).
    Perplexity then scores those kept lanes at the prior means the pick
    already took (``Picks.z``), or, under the oracle flag, the gold
    candidates, which ``_score_picks`` encodes in a pass of their own."""
    if not examples:
        raise ContractError("evaluate needs at least one example")
    if oracle_knowledge and any(ex.gold_index is None for ex in examples):
        raise ContractError("oracle scoring needs a gold index")
    n_tokens = scored_tokens(params, examples)
    made: list[GenerationResult] = []
    lps: list[float] = []
    for chunk in generation.chunks(examples):
        kept = encode_and_pick(params, chunk, prior=config.prior)
        made += decode_greedy(params, kept, config.model.max_response)
        if oracle_knowledge:
            lps += _score_picks(params, chunk, [ex.gold_index for ex in chunk])
        else:
            lps += _chunk_logprobs(params, chunk, kept.s, kept.lanes, kept.z)
    labelled = any(ex.gold_index is not None for ex in examples)
    cands = [_strip_eos(g.tokens) for g in made]
    refs = [_strip_eos(list(ex.response)) for ex in examples]
    return EvalReport(
        n_examples=len(examples),
        n_tokens=n_tokens,
        selection_accuracy=(selection_accuracy([g.s for g in made], examples)
                            if labelled else None),
        perplexity=_perplexity(lps, n_tokens),
        **_ngram_fields(cands, refs),
        oracle_knowledge=oracle_knowledge)
