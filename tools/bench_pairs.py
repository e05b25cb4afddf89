"""Run the benchmark's alternating-pairs protocol for a parent and a change
commit, and write every run to one ``BENCH_<tag>.json``.

Usage, from the repository root:

    python3 tools/bench_pairs.py --tag NAME --parent HEAD~1 --change HEAD \\
        --note "what the change does and what it claims"

Each side runs from a clean copy of its commit's files (``git archive``)
under ``--workdir``, so uncommitted edits and build leftovers never reach
a run. For every workload in ``BENCHMARK.json`` the script runs 10
untraced pairs on seeds 101-110, and the side that runs first alternates
from one pair to the next (the parent on even pairs); then one traced pair
per workload on seed 101. A run is the ``command`` of ``BENCHMARK.json``
with ``--workload``, ``--seed``, ``--seconds`` (its ``run_seconds``) and
``--trace``, and its last two output lines are kept as the run's
``record`` and ``result``. A run that exits non-zero stops the
script. The script only invokes the benchmark; it changes nothing under
``perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 101


def plan(workloads: list[str], pairs: int, seed: int) -> list[tuple[str, str, int, int]]:
    """The runs in order, as (side, workload, seed, trace)."""
    runs = []
    for workload in workloads:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs += [(side, workload, seed + i, 0) for side in order]
    for workload in workloads:
        runs += [(side, workload, seed, 1) for side in SIDES]
    return runs


def run_one(command: list[str], cwd: Path, workload: str, seed: int, seconds: float,
            trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its (record, result) lines."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {cwd} exited with {done.returncode}:\n"
                           f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_pairs(dirs: dict[str, Path], command: list[str], workloads: list[str], pairs: int,
              seed: int, seconds: float) -> list[dict]:
    """Every run of ``plan``, each as {side, file, record, result}."""
    runs = []
    for side, workload, s, trace in plan(workloads, pairs, seed):
        record, result = run_one(command, dirs[side], workload, s, seconds, trace)
        name = f"{workload}-seed{s}-trace{trace}.json"
        runs.append({"side": side, "file": name, "record": record, "result": result})
        print(f"{side} {name}: failed {result.get('failed')}", file=sys.stderr, flush=True)
    return runs


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(sha: str, dest: Path) -> None:
    """A clean copy of the commit's files."""
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", sha], check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--change", default="HEAD", help="change commit")
    p.add_argument("--note", required=True, help="what the change does and claims")
    p.add_argument("--workdir", type=Path, default=None,
                   help="where the two copies go and stay (by default a temporary "
                        "directory, removed at the end)")
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        work = args.workdir or Path(tmp)
        dirs = {side: work / side for side in SIDES}
        for side in SIDES:
            _export(shas[side], dirs[side])
        runs = run_pairs(dirs, bench["command"], workloads, PAIRS, FIRST_SEED, seconds)
    how = (f"{' '.join(bench['command'])} --workload W --seed N --seconds {seconds:g} "
           f"--trace T, run by tools/bench_pairs.py from clean copies of the parent and "
           f"the change: {PAIRS} untraced pairs per workload on seeds {FIRST_SEED}-"
           f"{FIRST_SEED + PAIRS - 1}, alternating which side runs first from one pair "
           f"to the next, then one traced pair per workload on seed {FIRST_SEED}")
    out = {"tag": args.tag, "change": args.note, "how": how,
           "parent_sha": shas["parent"], "change_sha": shas["change"], "runs": runs}
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
