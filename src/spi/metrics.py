"""Evaluation metrics: selection accuracy, perplexity, BLEU, ROUGE, distinct-n.

N-gram metrics operate on token id sequences cut before their first EOS;
perplexity covers every response token up to and including the first EOS.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

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


def scored_tokens(params: ModelParams, examples: list[DialogueExample]) -> int:
    """Tokens a teacher-forced decode scores: each response up to its first EOS."""
    return sum(len(_scored_response(params.cfg, ex)) for ex in examples)


def perplexity(params: ModelParams, examples: list[DialogueExample], *,
               picks: list[int]) -> float:
    """exp of the mean per-token negative log-likelihood of the reference
    responses, each conditioned on its knowledge pick and decoded from the
    prior-mean latent. Each chunk of ``generation.chunks`` has its picks
    encoded in one pass and scored in one decode (``_chunk_logprobs``), so
    memory stays bounded however many examples there are. The mean runs
    over the scored tokens, so padding past an EOS counts nowhere."""
    if not examples:
        raise ContractError("perplexity needs at least one example")
    if len(picks) != len(examples):
        raise ContractError("picks must align with the examples")
    lps: list[float] = []
    for exs, ss in zip(generation.chunks(examples), generation.chunks(picks)):
        lanes = [encs[0] for encs in encode_batch(params, exs, [[s] for s in ss])]
        lps += _chunk_logprobs(params, exs, ss, lanes)
    return _perplexity(params, examples, lps)


def _chunk_logprobs(params: ModelParams, examples: Sequence[DialogueExample],
                    picks: Sequence[int], encodings: Sequence[EncodedContext]) -> list[float]:
    """Each example's reference log-probability under its pick, from the
    pick's prior-mean latent: one latent-prior product and one lockstep
    decode. ``encodings`` holds each example's encoding of its pick, lanes
    of the caller's pass."""
    z = latent_prior_means(params, encodings).data
    return decode_logprob(params, examples, picks, z, encoded=encodings).data.tolist()


def _perplexity(params: ModelParams, examples: list[DialogueExample],
                lps: list[float]) -> float:
    # summed in example order, however the examples were chunked
    return math.exp(-sum(lps) / scored_tokens(params, examples))


def _ngrams(seq: list[int], n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _pair_stats(cgrams: Counter, rgrams: Counter) -> tuple[int, int, int]:
    """What every n-gram score takes from one pair's counts: the clipped
    matches, the candidate's n-grams and the reference's n-grams."""
    overlap = sum(min(count, rgrams[gram]) for gram, count in cgrams.items())
    return overlap, sum(cgrams.values()), sum(rgrams.values())


def _order_stats(candidates: list[list[int]], references: list[list[int]],
                 n: int) -> list[tuple[int, int, int]]:
    return [_pair_stats(_ngrams(cand, n), _ngrams(ref, n))
            for cand, ref in zip(candidates, references)]


def _bleu(stats_by_order: list[list[tuple[int, int, int]]]) -> float:
    log_precision_sum = 0.0
    for stats in stats_by_order:
        matches = sum(overlap for overlap, _, _ in stats)
        total = sum(cand_total for _, cand_total, _ in stats)
        if total == 0:
            return 0.0
        precision = matches / total if matches > 0 else (matches + 1) / (total + 1)
        log_precision_sum += math.log(precision)
    # a sequence has as many unigrams as tokens
    cand_len = sum(cand_total for _, cand_total, _ in stats_by_order[0])
    ref_len = sum(ref_total for _, _, ref_total in stats_by_order[0])
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_precision_sum / len(stats_by_order))


def _rouge(stats: list[tuple[int, int, int]]) -> float:
    scores = []
    for overlap, cand_total, ref_total in stats:
        precision = overlap / cand_total if cand_total else 0.0
        recall = overlap / ref_total if ref_total else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        scores.append(f1)
    return float(np.mean(scores))


def _distinct(seen: Counter) -> float:
    total = sum(seen.values())
    return len(seen) / total if total else 0.0


def bleu_corpus(candidates: list[list[int]], references: list[list[int]],
                max_n: int = 4) -> float:
    """Corpus BLEU with brevity penalty. A zero n-gram match count falls back
    to (matches+1)/(total+1) so the geometric mean stays defined."""
    if not 1 <= max_n <= 4:
        raise ContractError("max_n must lie in 1..4")
    if not candidates or len(candidates) != len(references):
        raise ContractError("candidates and references must align and be non-empty")
    return _bleu([_order_stats(candidates, references, n) for n in range(1, max_n + 1)])


def rouge_n(candidates: list[list[int]], references: list[list[int]],
            n: int = 1) -> float:
    """Mean per-pair n-gram overlap F1."""
    if n < 1:
        raise ContractError("n must be at least 1")
    if not candidates or len(candidates) != len(references):
        raise ContractError("candidates and references must align and be non-empty")
    return _rouge(_order_stats(candidates, references, n))


def distinct_n(sequences: list[list[int]], n: int = 1) -> float:
    """Unique n-grams over total n-grams, pooled across all sequences."""
    if n < 1:
        raise ContractError("n must be at least 1")
    seen: Counter = Counter()
    for seq in sequences:
        seen.update(_ngrams(seq, n))
    return _distinct(seen)


def _ngram_fields(candidates: list[list[int]], references: list[list[int]]) -> dict:
    """``evaluate``'s BLEU, ROUGE and distinct-n fields, from one count of
    each pair's 1- to 4-grams; each equals its public function's value."""
    stats: list[list[tuple[int, int, int]]] = [[], [], [], []]
    seen = [Counter(), Counter()]  # candidate unigrams and bigrams, for distinct-n
    for cand, ref in zip(candidates, references):
        for n, order in enumerate(stats, start=1):
            cgrams = _ngrams(cand, n)
            order.append(_pair_stats(cgrams, _ngrams(ref, n)))
            if n <= 2:
                seen[n - 1].update(cgrams)
    return {"bleu3": _bleu(stats[:3]), "bleu4": _bleu(stats),
            "rouge1": _rouge(stats[0]), "rouge2": _rouge(stats[1]),
            "distinct1": _distinct(seen[0]), "distinct2": _distinct(seen[1])}


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
    Perplexity then scores those kept lanes, or, under the oracle flag, the
    gold candidates, which it encodes in a pass of their own."""
    if not examples:
        raise ContractError("evaluate needs at least one example")
    if oracle_knowledge and any(ex.gold_index is None for ex in examples):
        raise ContractError("oracle scoring needs a gold index")
    made: list[GenerationResult] = []
    lps: list[float] = []
    for chunk in generation.chunks(examples):
        kept = encode_and_pick(params, chunk, prior=config.prior)
        made += decode_greedy(params, kept, config.model.max_response)
        if oracle_knowledge:
            gold = [ex.gold_index for ex in chunk]
            lanes = [encs[0] for encs in encode_batch(params, chunk, [[s] for s in gold])]
            lps += _chunk_logprobs(params, chunk, gold, lanes)
        else:
            lps += _chunk_logprobs(params, chunk, kept.s, kept.lanes)
    labelled = any(ex.gold_index is not None for ex in examples)
    cands = [_strip_eos(g.tokens) for g in made]
    refs = [_strip_eos(list(ex.response)) for ex in examples]
    return EvalReport(
        n_examples=len(examples),
        n_tokens=scored_tokens(params, examples),
        selection_accuracy=(selection_accuracy([g.s for g in made], examples)
                            if labelled else None),
        perplexity=_perplexity(params, examples, lps),
        **_ngram_fields(cands, refs),
        oracle_knowledge=oracle_knowledge)
