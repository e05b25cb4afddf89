"""Check that a change leaves the program's output bytes as its parent made
them: run one fixed pipeline on both commits and compare the sha256 of
every artefact.

Usage, from the repository root:

    python3 tools/same_bytes.py --parent REV [--change REV]

Each side runs from a clean copy of its commit's files (``bench_pairs``'s
``_export``), in a subprocess with that copy's ``src`` first on the path, so
uncommitted edits never reach a run. The pipeline (``pipeline``) makes
four runs on synthetic corpora of 96/24/40 train/valid/test examples from
seed 101: a desk one under the uniform prior and greedy top-5 of 8
selection, the same desk corpus under sampled top-3 selection at
temperature 2, one with history 32 under the learnable prior (top-5 of 8
as well: one width rule serves both priors), and the desk
corpus with its histories and candidates trimmed to unequal lengths
(``ragged``) under the uniform prior, so that its lockstep decodes run
lanes of unequal lengths, which no other run's corpus has. Each run
writes a 3-epoch ``train`` (its metrics log, best and final checkpoints;
``checkpoint.bin`` has ``final.bin``'s bytes whenever the last epoch is the
best), plain and oracle ``evaluate`` reports of the test split,
``generate_batch`` of it (``generations.jsonl``, whose chunks decode 8 to 32
lanes in lockstep) and ``generate`` of each test example on its own
(``generations-single.jsonl``, the lone-lane decode the benchmark times),
both from the best weights; neither reads the prior, since the test-time
pick is the selection head's argmax under either prior (``generate`` still
takes a ``prior``, unread, as the benchmark passes one, so this calls it as
the benchmark does). One more ``evaluate`` report, of the weights
``train`` starts from (``evaluate-init.json``), is written once per corpus
(trimmed or not) and prior, since ``evaluate`` reads no selection setting:
like the benchmark's ``evaluate``, untrained weights whose repetitive
generations run near the length cap, where the n-gram scores' clipped
counts matter most. That makes 31 artefacts. The script prints each artefact's
sha256 side by side, then exits 1 naming each artefact that differs, or 0
when every one agrees. For a JSON or JSON-lines artefact that differs it
also prints the largest relative difference over its numeric fields
(``largest_relative_difference``), which tells float noise (around 1e-16)
from a change of behaviour.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from bench_pairs import SIDES, _export, _git

# (name, history length, whether ``ragged`` trims the corpus, SpiConfig
# settings) of each run
CORPORA = (("desk-uniform", 8, False, {"prior": "uniform"}),
           ("history32-learnable", 32, False, {"prior": "learnable"}),
           ("desk-sampled", 8, False, {"prior": "uniform", "selection": "sampled",
                                       "temperature": 2.0, "top_s": 3}),
           ("desk-ragged", 8, True, {"prior": "uniform"}))
SIZES = (96, 24, 40)  # train, valid, test examples
EPOCHS = 3
SEED = 101

# runs ``pipeline`` of this file under the ``spi`` found first on the path
_RUN = ("import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import spi, same_bytes\n"
        "print(json.dumps({'spi': spi.__file__, 'digests': same_bytes.pipeline(sys.argv[2])}))\n")


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ragged(examples: list) -> list:
    """The examples trimmed to unequal lengths by a fixed rule: example i
    keeps ``history[i % 5:]``, and its candidate j ``c[:len(c) - (i + j) %
    4]``."""
    return [replace(ex, history=ex.history[i % 5:],
                    candidates=[c[:len(c) - (i + j) % 4] for j, c in enumerate(ex.candidates)])
            for i, ex in enumerate(examples)]


def pipeline(out, sizes: tuple[int, int, int] = SIZES, epochs: int = EPOCHS,
             seed: int = SEED) -> dict[str, str]:
    """Write every artefact of the pipeline under ``out``, one directory per
    run; returns {artefact path under ``out``: sha256}."""
    import spi
    from spi import checkpoint, data, generation, metrics
    from spi.fsio import atomic_write_text, dump_json_line

    out = Path(out)
    n_train, n_valid, n_test = sizes
    scored_init = set()  # (history, trimmed, prior) of each evaluate-init.json written
    for name, history, trimmed, settings in CORPORA:
        where = out / name
        where.mkdir(parents=True)
        corpus = data.generate_corpus(data.SyntheticSpec(
            history_len=history, n_train=n_train, n_valid=n_valid, n_test=n_test, seed=seed))
        train, valid, test = (ragged(split) if trimmed else split
                              for split in (corpus.train, corpus.valid, corpus.test))
        config = spi.SpiConfig(model=spi.ModelConfig(vocab_size=corpus.vocab.size),
                               epochs=epochs, seed=seed, **settings)
        result = spi.train(train, valid, config, log_path=where / "metrics.jsonl", quiet=True)
        checkpoint.save_checkpoint(where / "checkpoint.bin", result.best_params, config)
        checkpoint.save_checkpoint(where / "final.bin", result.params, config)
        reports = [(result.best_params, False, "evaluate.json"),
                   (result.best_params, True, "evaluate-oracle.json")]
        if (history, trimmed, config.prior) not in scored_init:
            scored_init.add((history, trimmed, config.prior))
            reports.append((spi.ModelParams.init(config.model, seed=config.seed), False,
                            "evaluate-init.json"))
        for params, oracle, file in reports:
            report = metrics.evaluate(params, test, config, oracle_knowledge=oracle)
            atomic_write_text(where / file, dump_json_line(report.to_dict()) + "\n")
        generation.write_generations(where / "generations.jsonl", generation.generate_batch(
            result.best_params, test, max_len=config.model.max_response))
        generation.write_generations(where / "generations-single.jsonl", [
            generation.generate(result.best_params, ex, prior=config.prior,
                                max_len=config.model.max_response) for ex in test])
    return {path.relative_to(out).as_posix(): digest(path)
            for path in sorted(out.rglob("*")) if path.is_file()}


def side_digests(root: Path, out: Path) -> dict[str, str]:
    """``pipeline``'s digests under the ``spi`` of the copy at ``root``."""
    src = (root / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _RUN, str(Path(__file__).resolve().parent),
                           str(out)], cwd=out.parent, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the pipeline under {src} exited with {done.returncode}:\n"
                           f"{done.stderr}")
    run = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(run["spi"]).resolve().is_relative_to(src):
        raise RuntimeError(f"the pipeline imported {run['spi']}, not the copy under {src}")
    return run["digests"]


def _numbers(value, where: str, out: dict[str, float]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _numbers(item, f"{where}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _numbers(item, f"{where}[{i}]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[where] = float(value)


def numeric_fields(path: Path) -> dict[str, float]:
    """Every number in a JSON file, or in each line of a JSON-lines file,
    keyed by where it lies (``line 2.tokens[0]``)."""
    text = Path(path).read_text()
    records = ([("", json.loads(text))] if Path(path).suffix == ".json" else
               [(f"line {n}", json.loads(line))
                for n, line in enumerate(text.splitlines(), 1) if line.strip()])
    out: dict[str, float] = {}
    for where, record in records:
        _numbers(record, where, out)
    return out


def _relative(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    gap = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(gap) else gap


def largest_relative_difference(a: Path, b: Path) -> tuple[float, str | None]:
    """The largest |x - y| / max(|x|, |y|) over the numeric fields of two
    JSON or JSON-lines files, and the field where it lies (None when every
    number agrees); a field that only one file has counts as inf."""
    xs, ys = numeric_fields(a), numeric_fields(b)
    gap, where = 0.0, None
    for field in sorted(set(xs) | set(ys)):
        value = (_relative(xs[field], ys[field]) if field in xs and field in ys
                 else math.inf)
        if value > gap:
            gap, where = value, field
    return gap, where


def differing(digests: dict[str, dict[str, str]]) -> list[str]:
    """The artefacts whose digests differ between the sides, or that one
    side lacks."""
    names = sorted(set().union(*digests.values()))
    return [name for name in names if len({d.get(name) for d in digests.values()}) != 1]


def report(digests: dict[str, dict[str, str]],
           gaps: dict[str, tuple[float, str | None]] | None = None) -> int:
    """Print each artefact's digests side by side, and for each that differs
    its ``largest_relative_difference`` when ``gaps`` has one; 1 when any
    differ."""
    names = sorted(set().union(*digests.values()))
    width = max(map(len, names))
    print(f"{'artefact':<{width}}  " + "  ".join(f"{side:<64}" for side in SIDES))
    for name in names:
        print(f"{name:<{width}}  " + "  ".join(f"{digests[side].get(name, '-'):<64}"
                                               for side in SIDES))
    bad = differing(digests)
    for name in bad:
        line = f"differs: {name}"
        if gaps and name in gaps:
            gap, where = gaps[name]
            line += f" (largest relative difference {gap:.3g} over its numbers"
            line += f", at {where})" if where else ")"
        print(line)
    print(f"{len(names) - len(bad)} of {len(names)} artefacts have the same bytes")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--change", default="HEAD", help="change commit")
    args = p.parse_args(argv)
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        digests = {}
        for side in SIDES:
            _export(shas[side], Path(tmp) / side)
            digests[side] = side_digests(Path(tmp) / side, Path(tmp) / f"{side}-out")
        files = {name: [Path(tmp) / f"{side}-out" / name for side in SIDES]
                 for name in differing(digests) if name.endswith((".json", ".jsonl"))}
        gaps = {name: largest_relative_difference(*paths) for name, paths in files.items()
                if all(path.is_file() for path in paths)}
    print(f"parent {shas['parent']}\nchange {shas['change']}")
    return report(digests, gaps)


if __name__ == "__main__":
    sys.exit(main())
