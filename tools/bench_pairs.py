"""Run the benchmark's alternating-pairs protocol for a parent and a change
commit, and write every run to one ``BENCH_<tag>.json``.

Usage, from the repository root:

    python3 tools/bench_pairs.py --tag NAME --parent HEAD~1 --change HEAD \\
        --note "what the change does and what it claims" [--held-out 211,212,213]

Each side runs from a clean copy of its commit's files (``git archive``)
under ``--workdir``, so uncommitted edits and build leftovers never reach
a run. For every workload in ``BENCHMARK.json`` the script runs 10
untraced pairs on seeds 101-110, and the side that runs first alternates
from one pair to the next (the parent on even pairs); then three traced
pairs per workload on seeds 101-103, alternating the same way. With
``--held-out``, one more untraced pair per workload and held-out seed
follows, alternating the same way; those runs are marked ``"held_out":
true``, so a claim checked on seeds 101-110 can be checked again on seeds
it was not tuned on. A run is
the ``command`` of ``BENCHMARK.json`` with ``--workload``, ``--seed``,
``--seconds`` (its ``run_seconds``) and ``--trace``, and its last two
output lines are kept as the run's ``record`` and ``result``. A run that
exits non-zero stops the script. Per-layer times are wall clock, so one
traced pair can point the wrong way; the file also records each side's
median of every per-layer metric over its traced runs
(``traced_medians``), and each side's ``peak_rss_mb`` at the parent's
median round count (``rss_at_equal_rounds``). The end-to-end speeds a run
reports are corrected by its ``speed_factor``, a reference workload's speed
probed during the run, and that factor can differ between the sides by more
than the change being measured; so the file also records each side's
median of every uncorrected end-to-end value and of the factor over its
untraced runs (``uncorrected_medians``, ``speed_factor_medians``). Last, it
reads the benchmark's gate off the untraced runs that are not held out
(``gate``): each side's median of every end-to-end metric, the change's
relative gain and the metric's bound in ``BENCHMARK.json``, each side's
median rounds and failed operations; it prints each metric that is worse
than its bound. The script only invokes the benchmark; it changes nothing
under ``perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TRACED_PAIRS = 3
FIRST_SEED = 101


def plan(workloads: list[str], pairs: int, seed: int,
         held_out: tuple[int, ...] = ()) -> list[tuple[str, str, int, int]]:
    """The runs in order, as (side, workload, seed, trace): the pairs, the
    traced pairs, then one untraced pair per held-out seed."""
    if set(held_out) & set(range(seed, seed + max(pairs, TRACED_PAIRS))):
        raise ValueError(f"held-out seeds {list(held_out)} overlap the pairs' seeds "
                         f"{seed}-{seed + max(pairs, TRACED_PAIRS) - 1}")
    runs = []
    for seeds, trace in ((range(seed, seed + pairs), 0),
                         (range(seed, seed + TRACED_PAIRS), 1), (held_out, 0)):
        for workload in workloads:
            for i, s in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs += [(side, workload, s, trace) for side in order]
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
              seed: int, seconds: float, held_out: tuple[int, ...] = ()) -> list[dict]:
    """Every run of ``plan``, each as {side, file, record, result}, and
    ``held_out`` true on the runs of a held-out seed."""
    runs = []
    for side, workload, s, trace in plan(workloads, pairs, seed, held_out):
        record, result = run_one(command, dirs[side], workload, s, seconds, trace)
        name = f"{workload}-seed{s}-trace{trace}.json"
        runs.append({"side": side, "file": name, "record": record, "result": result})
        if s in held_out:
            runs[-1]["held_out"] = True
        print(f"{side} {name}: failed {result.get('failed')}", file=sys.stderr, flush=True)
    return runs


def traced_medians(runs: list[dict], names: list[str]) -> dict:
    """{workload: {side: {metric: median}}} of each per-layer metric in
    ``names`` over each side's traced runs."""
    values: dict[str, dict[str, dict[str, list[float]]]] = {}
    for run in runs:
        workload, trace = _workload_trace(run)
        if trace == "0":
            continue
        metrics = values.setdefault(workload, {}).setdefault(run["side"], {})
        for name, metric in run["result"].get("metrics", {}).items():
            if name in names:
                metrics.setdefault(name, []).append(metric["value"])
    return {workload: {side: {name: statistics.median(v) for name, v in metrics.items()}
                       for side, metrics in sides.items()}
            for workload, sides in values.items()}


def untraced_medians(runs: list[dict]) -> tuple[dict, dict]:
    """({workload: {side: {metric: median}}} of each run's
    ``record.uncorrected`` end-to-end values, {workload: {side: median}} of
    its ``record.speed_factor``), over each side's untraced runs, held-out
    ones included."""
    values: dict[str, dict[str, dict[str, list[float]]]] = {}
    factors: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        workload, trace = _workload_trace(run)
        if trace != "0":
            continue
        metrics = values.setdefault(workload, {}).setdefault(run["side"], {})
        for name, value in run["record"]["uncorrected"].items():
            metrics.setdefault(name, []).append(value)
        factors.setdefault(workload, {}).setdefault(run["side"], []).append(
            run["record"]["speed_factor"])
    return ({workload: {side: {name: statistics.median(v) for name, v in metrics.items()}
                        for side, metrics in sides.items()}
             for workload, sides in values.items()},
            {workload: {side: statistics.median(v) for side, v in sides.items()}
             for workload, sides in factors.items()})


def _workload_trace(run: dict) -> tuple[str, str]:
    """A run's workload and trace flag, from its file name."""
    return re.fullmatch(r"(.+)-seed\d+-trace(\d)\.json", run["file"]).groups()


def rss_at_equal_rounds(runs: list[dict]) -> dict:
    """{workload: {"rounds": r, side: {"slope", "intercept", "peak_rss_mb"}}}:
    per side, the least-squares line of ``peak_rss_mb`` on the run's rounds
    over its untraced runs (held-out ones included), read at r, the
    parent's median rounds. A run that keeps something per round grows with
    its round count, so a faster side's median RSS is read against the
    parent's at equal rounds here. A side whose runs all made the same
    number of rounds gets slope 0 and their mean."""
    points: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for run in runs:
        workload, trace = _workload_trace(run)
        if trace != "0":
            continue
        points.setdefault(workload, {}).setdefault(run["side"], []).append(
            (float(run["record"]["rounds"]), run["result"]["metrics"]["peak_rss_mb"]["value"]))
    out = {}
    for workload, sides in points.items():
        at = statistics.median(x for x, _ in sides["parent"])
        fits: dict = {"rounds": at}
        for side, xy in sides.items():
            mx = statistics.fmean(x for x, _ in xy)
            my = statistics.fmean(y for _, y in xy)
            sxx = sum((x - mx) ** 2 for x, _ in xy)
            slope = sum((x - mx) * (y - my) for x, y in xy) / sxx if sxx else 0.0
            fits[side] = {"slope": slope, "intercept": my - slope * mx,
                          "peak_rss_mb": my + slope * (at - mx)}
        out[workload] = fits
    return out


def gate(runs: list[dict], end_to_end: list[dict]) -> dict:
    """{workload: {"rounds", "failed", "metrics"}} over each side's untraced
    runs that are not held out: each side's median ``rounds`` and its total
    ``failed`` operations, and for each end-to-end metric of ``end_to_end``
    (``BENCHMARK.json``'s) each side's median of the run's reported value,
    the change's ``relative_gain`` over the parent (positive when it is
    better by the metric's ``better``; None when the parent's median is 0),
    the metric's ``bound``, and ``flagged`` when the gain is below -bound:
    a metric worse than its bound."""
    values: dict[str, dict[str, dict[str, list[float]]]] = {}
    for run in runs:
        workload, trace = _workload_trace(run)
        if trace != "0" or run.get("held_out"):
            continue
        side = values.setdefault(workload, {}).setdefault(
            run["side"], {"rounds": [], "failed": []})
        side["rounds"].append(run["record"]["rounds"])
        side["failed"].append(run["result"]["failed"])
        for name, metric in run["result"]["metrics"].items():
            side.setdefault(name, []).append(metric["value"])
    out = {}
    for workload, sides in values.items():
        metrics = {}
        for m in end_to_end:
            parent, change = (statistics.median(sides[side][m["name"]]) for side in SIDES)
            gain = change - parent if m["better"] == "higher" else parent - change
            gain = gain / abs(parent) if parent else None
            metrics[m["name"]] = {"parent": parent, "change": change, "better": m["better"],
                                  "relative_gain": gain, "bound": m["bound"],
                                  "flagged": gain is not None and gain < -m["bound"]}
        out[workload] = {"rounds": {side: statistics.median(sides[side]["rounds"])
                                    for side in SIDES},
                         "failed": {side: sum(sides[side]["failed"]) for side in SIDES},
                         "metrics": metrics}
    return out


def _seeds(text: str) -> tuple[int, ...]:
    """``--held-out``'s comma-separated seeds."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of seeds: {text!r}")


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
    p.add_argument("--held-out", type=_seeds, default=(), metavar="SEEDS",
                   help="comma-separated seeds of one more untraced pair per workload "
                        "each, marked held out (say 211,212,213)")
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
        runs = run_pairs(dirs, bench["command"], workloads, PAIRS, FIRST_SEED, seconds,
                         args.held_out)
    how = (f"{' '.join(bench['command'])} --workload W --seed N --seconds {seconds:g} "
           f"--trace T, run by tools/bench_pairs.py from clean copies of the parent and "
           f"the change: {PAIRS} untraced pairs per workload on seeds {FIRST_SEED}-"
           f"{FIRST_SEED + PAIRS - 1}, alternating which side runs first from one pair "
           f"to the next, then {TRACED_PAIRS} traced pairs per workload on seeds "
           f"{FIRST_SEED}-{FIRST_SEED + TRACED_PAIRS - 1}, alternating the same way; "
           f"traced_medians holds each side's median of every per-layer metric over "
           f"its traced runs")
    if args.held_out:
        how += (f"; then one untraced pair per workload on each held-out seed "
                f"{', '.join(map(str, args.held_out))}, alternating the same way, its "
                f"runs marked held_out")
    how += ("; peak_rss_at_equal_rounds holds each side's least-squares line of "
            "peak_rss_mb on rounds over its untraced runs, read at the parent's median "
            "rounds; uncorrected_medians and speed_factor_medians hold each side's median "
            "of every end-to-end value before speed correction and of the run's "
            "speed_factor, over its untraced runs; gate holds each side's median of "
            "every end-to-end metric, rounds and failed operations over its untraced "
            "runs that are not held out, with the change's relative gain and the "
            "metric's bound")
    medians = traced_medians(runs, [m["name"] for m in bench["per_layer"]])
    uncorrected, factors = untraced_medians(runs)
    gated = gate(runs, bench["end_to_end"])
    out = {"tag": args.tag, "change": args.note, "how": how,
           "parent_sha": shas["parent"], "change_sha": shas["change"],
           "held_out_seeds": list(args.held_out),
           "traced_medians": medians, "peak_rss_at_equal_rounds": rss_at_equal_rounds(runs),
           "uncorrected_medians": uncorrected, "speed_factor_medians": factors,
           "gate": gated, "runs": runs}
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    flagged = [f"{workload} {name}: {metric['relative_gain']:+.1%} against a bound of "
               f"{metric['bound']:.0%}"
               for workload, sides in gated.items()
               for name, metric in sides["metrics"].items() if metric["flagged"]]
    print("\n".join(f"worse than its bound: {line}" for line in flagged)
          or "no end-to-end metric is worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
