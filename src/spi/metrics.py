"""Evaluation metrics: selection accuracy, perplexity, BLEU, ROUGE, distinct-n.

N-gram metrics operate on token id sequences with the trailing EOS removed;
perplexity covers every response token including EOS.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import SpiConfig
from .errors import ContractError
from .generation import GenerationResult, generate_batch
from .model import (EOS, DialogueExample, ModelParams, _scored_response, decode_logprob,
                    encode_batch, latent_prior_mean)


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
    prior-mean latent; every example is a lane of one lockstep decode. The
    mean runs over the scored tokens, so padding past an EOS counts nowhere."""
    if not examples:
        raise ContractError("perplexity needs at least one example")
    if len(picks) != len(examples):
        raise ContractError("picks must align with the examples")
    encoded = [encs[0] for encs in encode_batch(params, examples, [[s] for s in picks])]
    z = np.stack([latent_prior_mean(params, ex, s, encoded=enc).data
                  for ex, s, enc in zip(examples, picks, encoded)])
    total_lp = sum(decode_logprob(params, examples, picks, z, encoded=encoded).data.tolist())
    return math.exp(-total_lp / scored_tokens(params, examples))


def _ngrams(seq: list[int], n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def bleu_corpus(candidates: list[list[int]], references: list[list[int]],
                max_n: int = 4) -> float:
    """Corpus BLEU with brevity penalty. A zero n-gram match count falls back
    to (matches+1)/(total+1) so the geometric mean stays defined."""
    if not 1 <= max_n <= 4:
        raise ContractError("max_n must lie in 1..4")
    if not candidates or len(candidates) != len(references):
        raise ContractError("candidates and references must align and be non-empty")
    log_precision_sum = 0.0
    for n in range(1, max_n + 1):
        matches = 0
        total = 0
        for cand, ref in zip(candidates, references):
            cgrams = _ngrams(cand, n)
            rgrams = _ngrams(ref, n)
            total += sum(cgrams.values())
            matches += sum(min(count, rgrams[gram]) for gram, count in cgrams.items())
        if total == 0:
            return 0.0
        precision = matches / total if matches > 0 else (matches + 1) / (total + 1)
        log_precision_sum += math.log(precision)
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_precision_sum / max_n)


def rouge_n(candidates: list[list[int]], references: list[list[int]],
            n: int = 1) -> float:
    """Mean per-pair n-gram overlap F1."""
    if n < 1:
        raise ContractError("n must be at least 1")
    if not candidates or len(candidates) != len(references):
        raise ContractError("candidates and references must align and be non-empty")
    scores = []
    for cand, ref in zip(candidates, references):
        cgrams = _ngrams(cand, n)
        rgrams = _ngrams(ref, n)
        overlap = sum(min(count, rgrams[gram]) for gram, count in cgrams.items())
        cand_total = sum(cgrams.values())
        ref_total = sum(rgrams.values())
        precision = overlap / cand_total if cand_total else 0.0
        recall = overlap / ref_total if ref_total else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        scores.append(f1)
    return float(np.mean(scores))


def distinct_n(sequences: list[list[int]], n: int = 1) -> float:
    """Unique n-grams over total n-grams, pooled across all sequences."""
    if n < 1:
        raise ContractError("n must be at least 1")
    seen: Counter = Counter()
    for seq in sequences:
        seen.update(_ngrams(seq, n))
    total = sum(seen.values())
    return len(seen) / total if total else 0.0


def _strip_eos(tokens: list[int]) -> list[int]:
    return tokens[:-1] if tokens and tokens[-1] == EOS else tokens


@dataclass(frozen=True)
class EvalReport:
    n_examples: int
    n_tokens: int
    selection_accuracy: float
    perplexity: float
    bleu3: float
    bleu4: float
    rouge1: float
    rouge2: float
    distinct1: float
    distinct2: float
    oracle_knowledge: bool

    def to_dict(self) -> dict:
        return {"n_examples": self.n_examples, "n_tokens": self.n_tokens,
                "selection_accuracy": self.selection_accuracy,
                "perplexity": self.perplexity,
                "bleu3": self.bleu3, "bleu4": self.bleu4,
                "rouge1": self.rouge1, "rouge2": self.rouge2,
                "distinct1": self.distinct1, "distinct2": self.distinct2,
                "oracle_knowledge": self.oracle_knowledge}


def evaluate(params: ModelParams, examples: list[DialogueExample],
             config: SpiConfig, *, oracle_knowledge: bool = False,
             generations: list[GenerationResult] | None = None) -> EvalReport:
    """Full held-out evaluation. Selection accuracy always scores the model's
    own pick; the oracle flag makes perplexity condition on the gold
    candidate instead of that pick."""
    if not examples:
        raise ContractError("evaluate needs at least one example")
    if generations is None:
        generations = generate_batch(params, examples, prior=config.prior,
                                     max_len=config.model.max_response)
    if oracle_knowledge:
        if any(ex.gold_index is None for ex in examples):
            raise ContractError("oracle scoring needs a gold index")
        picks = [ex.gold_index for ex in examples]
    else:
        picks = [g.s for g in generations]
    cands = [_strip_eos(g.tokens) for g in generations]
    refs = [_strip_eos(list(ex.response)) for ex in examples]
    return EvalReport(
        n_examples=len(examples),
        n_tokens=scored_tokens(params, examples),
        selection_accuracy=selection_accuracy([g.s for g in generations], examples),
        perplexity=perplexity(params, examples, picks=picks),
        bleu3=bleu_corpus(cands, refs, max_n=3),
        bleu4=bleu_corpus(cands, refs, max_n=4),
        rouge1=rouge_n(cands, refs, n=1),
        rouge2=rouge_n(cands, refs, n=2),
        distinct1=distinct_n(cands, n=1),
        distinct2=distinct_n(cands, n=2),
        oracle_knowledge=oracle_knowledge)
