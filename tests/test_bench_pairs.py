"""The pairs script ``tools/bench_pairs.py``: the order of its runs and
the shape of what it records, with a stub in place of the benchmark."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# prints a record line echoing its arguments and directory, then a result line
# whose one per-layer metric reads the seed, plus a half on the change side
STUB = [sys.executable, "-c",
        "import json, os, sys\n"
        "a = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "cwd = os.path.basename(os.getcwd())\n"
        "value = int(a['--seed']) + (0.5 if cwd == 'change' else 0.0)\n"
        "print('noise before the two lines')\n"
        "print(json.dumps({'args': a, 'cwd': cwd}))\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {\n"
        "    'model.decode_logprob_ms': {'value': value, 'unit': 'ms'},\n"
        "    'eval_examples_per_s': {'value': 1.0, 'unit': '1/s'}}}))\n"]


def test_pairs_alternate_which_side_runs_first_then_three_traced_pairs_each():
    assert bench_pairs.plan(["a", "b"], 2, 101) == [
        ("parent", "a", 101, 0), ("change", "a", 101, 0),
        ("change", "a", 102, 0), ("parent", "a", 102, 0),
        ("parent", "b", 101, 0), ("change", "b", 101, 0),
        ("change", "b", 102, 0), ("parent", "b", 102, 0),
        ("parent", "a", 101, 1), ("change", "a", 101, 1),
        ("change", "a", 102, 1), ("parent", "a", 102, 1),
        ("parent", "a", 103, 1), ("change", "a", 103, 1),
        ("parent", "b", 101, 1), ("change", "b", 101, 1),
        ("change", "b", 102, 1), ("parent", "b", 102, 1),
        ("parent", "b", 103, 1), ("change", "b", 103, 1)]


def test_runs_are_recorded_in_the_bench_file_shape(tmp_path):
    dirs = {side: tmp_path / side for side in bench_pairs.SIDES}
    for d in dirs.values():
        d.mkdir()
    runs = bench_pairs.run_pairs(dirs, STUB, ["eval-desk"], 2, 7, 0.5)
    assert [(r["side"], r["file"]) for r in runs] == [
        ("parent", "eval-desk-seed7-trace0.json"), ("change", "eval-desk-seed7-trace0.json"),
        ("change", "eval-desk-seed8-trace0.json"), ("parent", "eval-desk-seed8-trace0.json"),
        ("parent", "eval-desk-seed7-trace1.json"), ("change", "eval-desk-seed7-trace1.json"),
        ("change", "eval-desk-seed8-trace1.json"), ("parent", "eval-desk-seed8-trace1.json"),
        ("parent", "eval-desk-seed9-trace1.json"), ("change", "eval-desk-seed9-trace1.json")]
    for r in runs:
        assert set(r) == {"side", "file", "record", "result"}
        assert r["record"]["cwd"] == r["side"]  # each side runs in its own copy
        args = r["record"]["args"]
        assert r["file"] == (f"{args['--workload']}-seed{args['--seed']}"
                             f"-trace{args['--trace']}.json")
        assert args["--seconds"] == "0.5"
        assert r["result"]["failed"] == 0
    json.dumps(runs)  # the file is plain JSON
    # the medians of the traced runs only (seeds 7-9), per side, of the
    # per-layer metrics named
    assert bench_pairs.traced_medians(runs, ["model.decode_logprob_ms"]) == {
        "eval-desk": {"parent": {"model.decode_logprob_ms": 8.0},
                      "change": {"model.decode_logprob_ms": 8.5}}}


def test_a_failing_run_stops_the_script(tmp_path):
    with pytest.raises(RuntimeError, match="exited with 3"):
        bench_pairs.run_pairs({"parent": tmp_path, "change": tmp_path},
                              [sys.executable, "-c", "raise SystemExit(3)"],
                              ["eval-desk"], 1, 1, 1.0)


def test_held_out_seeds_add_one_untraced_pair_each_after_the_traced_pairs():
    runs = bench_pairs.plan(["a", "b"], 2, 101, held_out=(211, 212))
    assert runs[:20] == bench_pairs.plan(["a", "b"], 2, 101)
    assert runs[20:] == [
        ("parent", "a", 211, 0), ("change", "a", 211, 0),
        ("change", "a", 212, 0), ("parent", "a", 212, 0),
        ("parent", "b", 211, 0), ("change", "b", 211, 0),
        ("change", "b", 212, 0), ("parent", "b", 212, 0)]
    with pytest.raises(ValueError, match="overlap"):
        bench_pairs.plan(["a"], 10, 101, held_out=(110, 211))
    assert bench_pairs._seeds("211,212,213") == (211, 212, 213)


def test_held_out_runs_are_marked_and_stay_out_of_the_traced_medians(tmp_path):
    dirs = {side: tmp_path / side for side in bench_pairs.SIDES}
    for d in dirs.values():
        d.mkdir()
    runs = bench_pairs.run_pairs(dirs, STUB, ["eval-desk"], 1, 7, 0.5, held_out=(30,))
    held = [r for r in runs if r.get("held_out")]
    assert [(r["side"], r["file"]) for r in held] == [
        ("parent", "eval-desk-seed30-trace0.json"), ("change", "eval-desk-seed30-trace0.json")]
    assert all("held_out" not in r for r in runs if r not in held)
    assert bench_pairs.traced_medians(runs, ["model.decode_logprob_ms"]) == {
        "eval-desk": {"parent": {"model.decode_logprob_ms": 8.0},
                      "change": {"model.decode_logprob_ms": 8.5}}}


def _run(side, workload, seed, trace, rounds, rss, held_out=False):
    run = {"side": side, "file": f"{workload}-seed{seed}-trace{trace}.json",
           "record": {"rounds": rounds},
           "result": {"metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}}}}
    if held_out:
        run["held_out"] = True
    return run


def test_peak_rss_is_read_at_the_parent_s_median_rounds():
    # each side's RSS grows 0.3 MB a round from its own base; the change
    # makes more rounds, so its median RSS is higher at equal memory per round
    runs = []
    for seed, (parent_rounds, change_rounds) in enumerate([(80, 88), (82, 90), (84, 91)]):
        runs += [_run("parent", "train-desk", 101 + seed, 0, parent_rounds,
                      60.0 + 0.3 * parent_rounds),
                 _run("change", "train-desk", 101 + seed, 0, change_rounds,
                      59.0 + 0.3 * change_rounds)]
    # held-out runs count; traced runs, which keep spans, do not
    runs += [_run("parent", "train-desk", 211, 0, 86, 60.0 + 0.3 * 86, held_out=True),
             _run("change", "train-desk", 211, 0, 95, 59.0 + 0.3 * 95, held_out=True),
             _run("parent", "train-desk", 101, 1, 10, 500.0),
             _run("change", "train-desk", 101, 1, 10, 900.0)]
    # a workload whose runs all make the same number of rounds: their mean
    runs += [_run(side, "eval-desk", 101 + i, 0, 40, rss)
             for i, (side, rss) in enumerate([("parent", 50.0), ("change", 51.0),
                                              ("parent", 52.0), ("change", 53.0)])]
    fits = bench_pairs.rss_at_equal_rounds(runs)
    desk = fits["train-desk"]
    assert desk["rounds"] == 83.0  # the median of 80, 82, 84 and 86
    for side, base in (("parent", 60.0), ("change", 59.0)):
        assert desk[side]["slope"] == pytest.approx(0.3, abs=1e-12)
        assert desk[side]["intercept"] == pytest.approx(base, abs=1e-9)
        assert desk[side]["peak_rss_mb"] == pytest.approx(base + 0.3 * 83, abs=1e-9)
    assert fits["eval-desk"] == {"rounds": 40.0,
                                 "parent": {"slope": 0.0, "intercept": 51.0, "peak_rss_mb": 51.0},
                                 "change": {"slope": 0.0, "intercept": 52.0, "peak_rss_mb": 52.0}}
    json.dumps(fits)  # the file is plain JSON


def test_uncorrected_and_speed_factor_medians_cover_each_side_s_untraced_runs():
    # the corrected speed may hide a factor that differs between the sides:
    # here the parent's runs were probed slow, so its corrected speed reads
    # higher while the uncorrected medians agree
    def run(side, seed, trace, speed, factor, held_out=False):
        out = _run(side, "eval-desk", seed, trace, 40, 50.0, held_out)
        out["record"].update(speed_factor=factor, uncorrected={
            "eval_examples_per_s": speed, "peak_rss_mb": 50.0})
        return out

    runs = [run("parent", 101, 0, 1000.0, 0.90), run("change", 101, 0, 1010.0, 1.10),
            run("change", 102, 0, 990.0, 1.05), run("parent", 102, 0, 1004.0, 0.92),
            run("parent", 211, 0, 1002.0, 0.94, held_out=True),
            run("change", 211, 0, 1000.0, 1.07, held_out=True),
            # traced runs keep spans and do not count
            run("parent", 101, 1, 1.0, 9.0), run("change", 101, 1, 1.0, 9.0)]
    uncorrected, factors = bench_pairs.untraced_medians(runs)
    assert uncorrected == {"eval-desk": {
        "parent": {"eval_examples_per_s": 1002.0, "peak_rss_mb": 50.0},
        "change": {"eval_examples_per_s": 1000.0, "peak_rss_mb": 50.0}}}
    assert factors == {"eval-desk": {"parent": 0.92, "change": 1.07}}
    json.dumps([uncorrected, factors])  # the file is plain JSON


END_TO_END = [{"name": "train_examples_per_s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def _gated_run(side, workload, seed, trace, speed, rss, held_out=False):
    run = _run(side, workload, seed, trace, 100 + seed % 10, rss, held_out)
    run["result"]["failed"] = 0
    run["result"]["metrics"]["train_examples_per_s"] = {"value": speed, "unit": "1/s"}
    return run


def test_the_gate_flags_a_metric_worse_than_its_bound():
    # train-desk: twice the speed and +15% peak RSS; eval-desk: +5% peak RSS
    runs = []
    for workload, speedup, rss_rise in (("train-desk", 2.0, 1.15), ("eval-desk", 1.0, 1.05)):
        for seed in (101, 102, 103):
            runs += [_gated_run("parent", workload, seed, 0, 100.0, 80.0),
                     _gated_run("change", workload, seed, 0, 100.0 * speedup, 80.0 * rss_rise)]
        # traced and held-out runs stay out of the gate
        runs += [_gated_run(side, workload, 101, 1, 1.0, 900.0) for side in ("parent", "change")]
        runs += [_gated_run(side, workload, 211, 0, 1.0, 900.0, held_out=True)
                 for side in ("parent", "change")]
    gated = bench_pairs.gate(runs, END_TO_END)
    desk, evals = gated["train-desk"], gated["eval-desk"]
    assert desk["rounds"] == {"parent": 102, "change": 102}
    assert desk["failed"] == {"parent": 0, "change": 0}
    speed, rss = desk["metrics"]["train_examples_per_s"], desk["metrics"]["peak_rss_mb"]
    assert (speed["parent"], speed["change"]) == (100.0, 200.0)
    assert speed["relative_gain"] == pytest.approx(1.0) and not speed["flagged"]
    assert rss["relative_gain"] == pytest.approx(-0.15) and rss["flagged"]
    assert rss["bound"] == 0.1 and rss["better"] == "lower"
    assert evals["metrics"]["peak_rss_mb"]["relative_gain"] == pytest.approx(-0.05)
    assert not any(m["flagged"] for m in evals["metrics"].values())
    json.dumps(gated)  # the file is plain JSON
