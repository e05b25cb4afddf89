"""Synthetic grounded-dialogue corpora with a hidden style latent.

Construction: the vocabulary is partitioned into reserved tokens, per-style
frame tokens, topic name tokens, and content tokens. A topic owns one name
token and a fixed content sequence. The history is filler ending in the gold
topic's name token, every candidate starts with its own topic's name token,
and the response wraps the gold content in the frame tokens of a style drawn
uniformly and never recorded. Distractors keep an exact rho-fraction of the
gold content tokens and differ from gold everywhere else, so the gold source
is unambiguous for rho < 1 and rho is a single difficulty knob.

Same spec, same bytes: generation is a pure function of the spec fields.
"""
from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import check_kinds
from .errors import ContractError
from .fsio import atomic_write_text, dump_json_line, read_jsonl, read_text
from .model import EOS, DialogueExample, Vocab


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the corpus generator; defaults match the desk-scale setup.
    Checked when built, so every instance can be generated."""

    vocab_size: int = 64
    m_candidates: int = 8
    candidate_len: int = 8
    n_styles: int = 3
    rho: float = 0.5
    n_train: int = 2000
    n_valid: int = 250
    n_test: int = 250
    history_len: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        check_kinds(self, "spec field ")
        remaining = self.vocab_size - 4 - 2 * self.n_styles  # past reserved and frame tokens
        if self.n_styles < 1:
            raise ContractError(f"n_styles must be at least 1, got {self.n_styles}")
        if self.candidate_len < 2:
            raise ContractError("candidate_len must be at least 2 (name + content)")
        if self.history_len < 1:
            raise ContractError("history_len must be at least 1")
        # plan_vocab seats half the rest as names, one per candidate, and needs 4 of each kind
        if remaining < 8 or remaining // 2 < self.m_candidates:
            raise ContractError(
                f"vocab_size {self.vocab_size} is too small for {self.n_styles} styles and "
                f"{self.m_candidates} candidates; it cannot seat reserved, frame, name, "
                f"and content tokens")
        if not 0.0 <= self.rho <= 1.0:
            raise ContractError(f"rho must lie in [0, 1], got {self.rho}")
        if self.m_candidates < 1:
            raise ContractError(f"m_candidates must be at least 1, got {self.m_candidates}")
        for name in ("n_train", "n_valid", "n_test", "seed"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must not be negative, got {getattr(self, name)}")


@dataclass(frozen=True)
class VocabLayout:
    """Id ranges produced by partitioning the vocabulary for a spec."""

    frame_ids: tuple[tuple[int, int], ...]  # (open, close) per style
    name_ids: tuple[int, ...]
    content_ids: tuple[int, ...]
    # ``content_ids`` as an array, for the draws with replacement (``_draw``)
    content_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "content_array", np.asarray(self.content_ids))


def plan_vocab(spec: SyntheticSpec) -> tuple[Vocab, VocabLayout]:
    reserved = 4
    frames = 2 * spec.n_styles
    remaining = spec.vocab_size - reserved - frames
    n_names = remaining // 2
    n_content = remaining - n_names
    words = []
    for g in range(spec.n_styles):
        words += [f"f{g}a", f"f{g}b"]
    words += [f"n{i}" for i in range(n_names)]
    words += [f"w{i}" for i in range(n_content)]
    vocab = Vocab.build(words)
    base = reserved
    frame_ids = tuple((base + 2 * g, base + 2 * g + 1) for g in range(spec.n_styles))
    base += frames
    name_ids = tuple(range(base, base + n_names))
    base += n_names
    content_ids = tuple(range(base, base + n_content))
    return vocab, VocabLayout(frame_ids=frame_ids, name_ids=name_ids,
                              content_ids=content_ids)


@dataclass
class SyntheticCorpus:
    spec: SyntheticSpec
    vocab: Vocab
    layout: VocabLayout
    train: list[DialogueExample]
    valid: list[DialogueExample]
    test: list[DialogueExample]

    def split(self, name: str) -> list[DialogueExample]:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ContractError(f"unknown split {name!r}") from None


def _topic_split(layout: VocabLayout) -> tuple[list[int], list[int]]:
    """Topic indices for the train/valid pool and the disjoint test pool,
    the last max(2, n // 4) of the n topics. A built spec seats at least 4
    topic names, so at least 2 are left for training."""
    n_topics = len(layout.name_ids)
    n_train_topics = n_topics - max(2, n_topics // 4)
    return list(range(n_train_topics)), list(range(n_train_topics, n_topics))


def _draw(rng: np.random.Generator, ids: np.ndarray, size=None):
    """Ids drawn uniformly with replacement: the draws ``rng.choice(ids,
    size)`` makes, from the same stream, without its argument checks."""
    return ids[rng.integers(0, len(ids), size=size)]


def _distractor_content(gold: list[int], rho: float, content_ids: np.ndarray,
                        rng: np.random.Generator) -> list[int]:
    length = len(gold)
    n_keep = int(round(rho * length))
    keep = set(rng.choice(length, size=n_keep, replace=False).tolist()) if n_keep else set()
    out = list(gold)
    for pos in range(length):
        if pos in keep:
            continue
        tok = int(_draw(rng, content_ids))
        while tok == gold[pos] and len(content_ids) > 1:
            tok = int(_draw(rng, content_ids))
        out[pos] = tok
    return out


def _make_example(topic: int, topics_content: list[list[int]], pool: list[int],
                  spec: SyntheticSpec, layout: VocabLayout, rng: np.random.Generator) -> DialogueExample:
    content = topics_content[topic]
    name = layout.name_ids[topic]
    filler = _draw(rng, layout.content_array, spec.history_len - 1).tolist()
    history = filler + [name]
    others = [t for t in pool if t != topic]
    distractor_topics = rng.choice(others, size=spec.m_candidates - 1,
                                   replace=False).tolist()
    gold_candidate = [name] + content
    candidates = []
    for d in distractor_topics:
        body = _distractor_content(content, spec.rho, layout.content_array, rng)
        candidates.append([layout.name_ids[d]] + body)
    gold_index = int(rng.integers(0, spec.m_candidates))
    candidates.insert(gold_index, gold_candidate)
    style = int(rng.integers(0, spec.n_styles))  # latent; never recorded
    opener, closer = layout.frame_ids[style]
    response = [opener] + content + [closer, EOS]
    return DialogueExample(history=history, candidates=candidates,
                           gold_index=gold_index, response=response)


def generate_corpus(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministically build all three splits from the spec."""
    vocab, layout = plan_vocab(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 17]))
    content_len = spec.candidate_len - 1
    topics_content = [_draw(rng, layout.content_array, content_len).tolist()
                      for _ in range(len(layout.name_ids))]
    train_topics, test_topics = _topic_split(layout)
    all_topics = train_topics + test_topics

    def build(count: int, gold_pool: list[int]) -> list[DialogueExample]:
        pool = np.asarray(gold_pool)
        out = []
        for _ in range(count):
            topic = int(_draw(rng, pool))
            # distractor names may come from either pool; gold topics define the split
            out.append(_make_example(topic, topics_content, all_topics, spec, layout, rng))
        return out

    train = build(spec.n_train, train_topics)
    valid = build(spec.n_valid, train_topics)
    test = build(spec.n_test, test_topics)
    corpus = SyntheticCorpus(spec=spec, vocab=vocab, layout=layout,
                             train=train, valid=valid, test=test)
    for split in (train, valid, test):
        for ex in split:
            ex.validate(vocab.size)
    return corpus


# ---------------------------------------------------------------------------
# on-disk layout: train/valid/test JSONL + vocab.json + spec.txt sidecar


def example_to_record(ex: DialogueExample) -> dict:
    return {"history": ex.history, "candidates": ex.candidates,
            "gold_index": ex.gold_index, "response": ex.response}


def example_from_record(record: dict, where: str) -> DialogueExample:
    try:
        ex = DialogueExample(history=list(record["history"]),
                             candidates=[list(c) for c in record["candidates"]],
                             gold_index=record["gold_index"],
                             response=list(record["response"]))
    except (KeyError, TypeError) as err:
        raise ContractError(f"{where}: malformed example record ({err})") from err
    return ex


def save_corpus(corpus: SyntheticCorpus, out_dir: str | Path) -> None:
    out = Path(out_dir)
    for name in ("train", "valid", "test"):
        lines = "".join(dump_json_line(example_to_record(ex)) + "\n"
                        for ex in corpus.split(name))
        atomic_write_text(out / f"{name}.jsonl", lines)
    atomic_write_text(out / "vocab.json",
                      json.dumps({"tokens": list(corpus.vocab.tokens)}) + "\n")
    spec_lines = [f"{key} = {value}" for key, value in asdict(corpus.spec).items()]
    atomic_write_text(out / "spec.txt", "\n".join(spec_lines) + "\n")


def _parse_spec_sidecar(path: Path) -> SyntheticSpec:
    fields = {}
    for lineno, line in enumerate(read_text(path, "the spec sidecar").splitlines(), start=1):
        if not line.strip():
            continue
        key, eq, value = line.partition(" = ")
        key = key.strip()
        if not eq or key not in SyntheticSpec.__dataclass_fields__ or key in fields:
            what = ("is not a 'key = value' line" if not eq else
                    f"repeats {key!r}" if key in fields else f"names no spec field {key!r}")
            raise ContractError(f"{path}:{lineno}: {what}")
        fields[key] = (value.strip(), lineno)
    kwargs = {}
    for name, field_info in SyntheticSpec.__dataclass_fields__.items():
        if name not in fields:
            raise ContractError(f"{path}: spec sidecar is missing {name!r}")
        value, lineno = fields[name]
        caster = float if field_info.type == "float" else int
        try:
            kwargs[name] = caster(value)
        except ValueError:
            raise ContractError(
                f"{path}:{lineno}: {name} = {value!r} is not a valid {caster.__name__}") from None
    try:
        return SyntheticSpec(**kwargs)
    except ContractError as err:  # at the line of the first field the message names
        where = next((f"{path}:{lineno}" for name, (_, lineno) in fields.items()
                      if re.search(rf"\b{name}\b", str(err))), path)
        raise ContractError(f"{where}: {err}") from None


def load_corpus(out_dir: str | Path) -> SyntheticCorpus:
    """Load a corpus directory, validating every example (errors carry the
    file and line)."""
    out = Path(out_dir)
    vocab_path = out / "vocab.json"
    if not vocab_path.exists():
        raise ContractError(f"{out}: not a corpus directory (no vocab.json)")
    try:
        tokens = json.loads(read_text(vocab_path, "the vocabulary"))["tokens"]
    except (ValueError, KeyError, TypeError, RecursionError) as err:
        raise ContractError(f"{vocab_path}: malformed vocabulary file ({err!r})") from None
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ContractError(f"{vocab_path}: 'tokens' must be a list of strings")
    spec_path = out / "spec.txt"
    spec = _parse_spec_sidecar(spec_path)
    if spec.vocab_size != len(tokens):
        raise ContractError(f"{spec_path}: vocab_size {spec.vocab_size} does not match "
                            f"the {len(tokens)} tokens of {vocab_path}")
    vocab, layout = plan_vocab(spec)
    for i, (token, want) in enumerate(zip(tokens, vocab.tokens)):
        if token != want:
            raise ContractError(f"{vocab_path}: token {i} is {token!r}, but the vocabulary "
                                f"of {spec_path.name} has {want!r} there")
    splits = {}
    for name in ("train", "valid", "test"):
        path = out / f"{name}.jsonl"
        examples = []
        for lineno, record in read_jsonl(path):
            ex = example_from_record(record, f"{path}:{lineno}")
            try:
                ex.validate(vocab.size)
            except ContractError as err:
                raise ContractError(f"{path}:{lineno}: {err}") from None
            examples.append(ex)
        splits[name] = examples
    return SyntheticCorpus(spec=spec, vocab=vocab, layout=layout,
                           train=splits["train"], valid=splits["valid"],
                           test=splits["test"])


def oracle_select(example: DialogueExample, spec: SyntheticSpec,
                  layout: VocabLayout) -> int:
    """Template-aware brute force: the candidate whose content slice matches
    the response body under some style frame; lowest index on ties."""
    for i, cand in enumerate(example.candidates):
        body = cand[1:]
        for opener, closer in layout.frame_ids:
            if example.response == [opener] + body + [closer, EOS]:
                return i
    return -1
