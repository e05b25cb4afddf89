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
STUB = [sys.executable, "-c",
        "import json, os, sys\n"
        "a = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "print('noise before the two lines')\n"
        "print(json.dumps({'args': a, 'cwd': os.path.basename(os.getcwd())}))\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n"]


def test_pairs_alternate_which_side_runs_first_then_one_traced_pair_each():
    assert bench_pairs.plan(["a", "b"], 3, 101) == [
        ("parent", "a", 101, 0), ("change", "a", 101, 0),
        ("change", "a", 102, 0), ("parent", "a", 102, 0),
        ("parent", "a", 103, 0), ("change", "a", 103, 0),
        ("parent", "b", 101, 0), ("change", "b", 101, 0),
        ("change", "b", 102, 0), ("parent", "b", 102, 0),
        ("parent", "b", 103, 0), ("change", "b", 103, 0),
        ("parent", "a", 101, 1), ("change", "a", 101, 1),
        ("parent", "b", 101, 1), ("change", "b", 101, 1)]


def test_runs_are_recorded_in_the_bench_file_shape(tmp_path):
    dirs = {side: tmp_path / side for side in bench_pairs.SIDES}
    for d in dirs.values():
        d.mkdir()
    runs = bench_pairs.run_pairs(dirs, STUB, ["eval-desk"], 2, 7, 0.5)
    assert [(r["side"], r["file"]) for r in runs] == [
        ("parent", "eval-desk-seed7-trace0.json"), ("change", "eval-desk-seed7-trace0.json"),
        ("change", "eval-desk-seed8-trace0.json"), ("parent", "eval-desk-seed8-trace0.json"),
        ("parent", "eval-desk-seed7-trace1.json"), ("change", "eval-desk-seed7-trace1.json")]
    for r in runs:
        assert set(r) == {"side", "file", "record", "result"}
        assert r["record"]["cwd"] == r["side"]  # each side runs in its own copy
        args = r["record"]["args"]
        assert r["file"] == (f"{args['--workload']}-seed{args['--seed']}"
                             f"-trace{args['--trace']}.json")
        assert args["--seconds"] == "0.5"
        assert r["result"]["failed"] == 0
    json.dumps(runs)  # the file is plain JSON


def test_a_failing_run_stops_the_script(tmp_path):
    with pytest.raises(RuntimeError, match="exited with 3"):
        bench_pairs.run_pairs({"parent": tmp_path, "change": tmp_path},
                              [sys.executable, "-c", "raise SystemExit(3)"],
                              ["eval-desk"], 1, 1, 1.0)
