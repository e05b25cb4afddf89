"""Tests of the benchmark's own helpers; run with ``python3 -m pytest perfbench``
from the repository root."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import benchstats  # noqa: E402
import refspeed  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, covered, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Workload("tiny", "test", history_len=4, prior="uniform",
                          train=3, valid=2, generate=2, evaluate=2)


# --- percentile rule -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7, 50, 101])
@pytest.mark.parametrize("q", [10.0, 50.0, 90.0, 99.0])
def test_percentile_matches_numpy(n, q):
    values = np.random.default_rng(n).normal(size=n).tolist()
    assert benchstats.percentile(values, q) == pytest.approx(np.percentile(values, q))


@pytest.mark.parametrize("n", [20, 91, 92, 150, 901, 902])
@pytest.mark.parametrize("q", [50.0, 90.0, 99.0])
def test_samples_beyond_counts_values_above_the_percentile(n, q):
    values = list(range(n))  # distinct, so "above" is unambiguous
    above = sum(1 for v in values if v > benchstats.percentile(values, q))
    assert benchstats.samples_beyond(n, q) == above


def test_tail_needs_ten_samples_beyond():
    assert not benchstats.supported(91, 90) and benchstats.supported(92, 90)
    assert not benchstats.supported(901, 99) and benchstats.supported(902, 99)
    with pytest.raises(ValueError, match="p90 needs at least 10"):
        benchstats.tail_percentile(list(range(91)), 90)
    assert benchstats.tail_percentile(list(range(92)), 90) == pytest.approx(81.9)
    n = workloads.MIN_TAIL_SAMPLES
    assert benchstats.supported(n, 90) and not benchstats.supported(n - 1, 90)


# --- spans -----------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [Span("root", 0.0, 10.0, -1, -1),
             Span("a", 1.0, 4.0, 0, -1),
             Span("b", 3.0, 6.0, 0, -1),      # overlaps a: union 1..6
             Span("a.kid", 2.0, 3.0, 1, -1)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_covered_clips_to_the_window():
    assert covered([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_recorder_wraps_every_reference_and_restores():
    import spi.inference
    import spi.model
    import spi.training
    original = spi.model.encode_context
    recorder = Recorder()
    missing = recorder.install("spi", [("enc", "spi.model", "encode_context", None),
                                       ("gone", "spi.model", "no_such_function", None)])
    try:
        assert missing == ["gone"]
        assert spi.model.encode_context is not original
        assert spi.training.encode_context is spi.model.encode_context
        assert spi.inference.encode_context is spi.model.encode_context
    finally:
        recorder.uninstall()
    assert spi.model.encode_context is original
    assert spi.training.encode_context is original


def test_spans_nest_and_carry_example_ids(tmp_path):
    ctx = _context(tmp_path)
    recorder = _recorder(ctx)
    recorder.install("spi", workloads.TARGETS)
    try:
        recorder.enabled = True
        workloads.run_round(ctx, 0)
        recorder.enabled = False
    finally:
        recorder.uninstall()
    spans = recorder.spans
    names = {s.name for s in spans}
    assert {"training.train", "model.encode_context", "autodiff.backward",
            "generation.generate", "metrics.evaluate"} <= names
    for i, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent >= 0:
            outer = spans[s.parent]
            assert outer.start <= s.start and s.end <= outer.end and s.parent < i
    encodes = [s for s in spans if s.name == "model.encode_context"]
    assert all(s.example >= 0 for s in encodes)


def test_tape_nodes_group_by_primitive(tmp_path):
    ctx = _context(tmp_path)
    recorder = _recorder(ctx)
    recorder.install("spi", workloads.TARGETS)
    try:
        recorder.enabled = True
        workloads.run_round(ctx, 0)
        recorder.enabled = False
    finally:
        recorder.uninstall()
    spans = recorder.spans
    steps = [s for s in spans if s.name == "autodiff.backward"
             and spans[s.parent].name == "training.mle_step"]
    assert steps
    for s in steps:
        assert sum(s.info["by_primitive"].values()) == s.info["nodes"]
        assert set(s.info["by_primitive"]) <= set(workloads.PRIMITIVES)


def test_counts_ignore_rounds_beyond_the_counted_ones(tmp_path):
    ctx = _context(tmp_path)
    recorder = _recorder(ctx)
    recorder.install("spi", workloads.TARGETS)
    try:
        recorder.enabled = True
        workloads.run_round(ctx, 0)
        counted = len(recorder.spans)
        workloads.run_round(ctx, 1)
        recorder.enabled = False
    finally:
        recorder.uninstall()
    first = workloads.per_layer(recorder.spans[:counted], counted, {}, [])
    both = workloads.per_layer(recorder.spans, counted, {}, [])
    for name, (value, unit) in first.items():
        if unit in ("count", "ratio") and name != "trace.overhead_ratio":
            assert both[name][0] == value, name


# --- metric names ----------------------------------------------------------


def test_benchmark_json_names_are_valid_and_unique():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert benchstats.valid_metric_name(name), name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert benchstats.valid_unit(m["unit"]), m


@pytest.mark.parametrize("name", ["", "-x", ".x", "a" * 65, "a b", "a/b", "ms\n"])
def test_invalid_metric_names_are_refused(name):
    assert not benchstats.valid_metric_name(name)


def test_workloads_match_benchmark_json():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why}
                                      for w in workloads.WORKLOADS.values()]


def test_emitted_metrics_match_benchmark_json(tmp_path):
    ctx = _context(tmp_path)
    rounds = [workloads.run_round(ctx, r) for r in range(2)]
    rounds[0].generate_ms = [float(i) for i in range(100)]  # enough for a p90
    rounds[0].generate_factors = [1.0] * 100
    e2e = workloads.end_to_end(TINY, rounds, [(0.1, 1.0), (0.2, 1.1), (0.3, 0.9)])
    assert [(k, u) for k, (_, u) in e2e.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert all(v > 0 for v, _ in e2e.values())
    layer = workloads.per_layer([], 0, rounds[0].quality, [0.01])
    assert [(k, u) for k, (_, u) in layer.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]


def test_speed_factor_divides_each_time():
    rounds = [workloads.Round(train_s=2.0, valid_s=1.0, generate_ms=[10.0] * 100,
                              eval_s=4.0, train_factor=2.0, generate_factors=[0.5] * 100,
                              eval_factor=4.0, quality={"validation_loss": 1.0,
                                                        "perplexity": 2.0})]
    setups = [(0.3, 3.0)]
    fixed = workloads.end_to_end(TINY, rounds, setups)
    plain = workloads.end_to_end(TINY, rounds, setups, corrected=False)
    assert plain["train_examples_per_s"][0] == TINY.train / 2.0
    assert fixed["train_examples_per_s"][0] == TINY.train / 2.0 * 2.0
    assert fixed["valid_examples_per_s"][0] == TINY.valid / 1.0 * 2.0
    assert fixed["generate_examples_per_s"][0] == pytest.approx(100.0 * 0.5)
    assert fixed["generate_ms_p50"][0] == pytest.approx(20.0)
    assert fixed["eval_examples_per_s"][0] == TINY.evaluate / 4.0 * 4.0
    assert fixed["setup_s"][0] == pytest.approx(0.1)
    assert fixed["validation_loss"] == plain["validation_loss"]


def test_speed_factor_is_one_at_the_nominal_probe_time():
    assert refspeed.factor(refspeed.NOMINAL_S, refspeed.NOMINAL_S) == 1.0
    assert refspeed.factor(refspeed.NOMINAL_S, 3 * refspeed.NOMINAL_S) == 2.0
    assert refspeed.probe() > 0.0


# --- same-seed quality -----------------------------------------------------


def test_bit_differences_sees_the_last_bit():
    a = {"loss": 1.0, "ppl": float("nan")}
    assert benchstats.bit_differences(a, dict(a)) == []
    assert benchstats.bit_differences(a, {"loss": np.nextafter(1.0, 2.0), "ppl": a["ppl"]}) == [
        "loss"]
    assert benchstats.bit_differences(a, {"loss": 1.0}) == ["ppl"]


def test_quality_fields_are_bit_identical_across_two_runs(tmp_path):
    first = workloads.run_round(_context(tmp_path / "a"), 1).quality
    second = workloads.run_round(_context(tmp_path / "b"), 1).quality
    assert set(first) == {"validation_loss", "selection_accuracy", "perplexity"}
    assert benchstats.bit_differences(first, second) == []


def test_output_check_passes_on_the_current_engine(tmp_path):
    ctx = _context(tmp_path)
    trained = workloads.run_round(ctx, 0).trained
    before = ctx.attempted
    workloads.check_outputs(ctx, 0, trained)
    assert ctx.attempted - before == 2 * 2 * workloads.CHECKS_PER_ROUND
    assert ctx.failed == 0, ctx.errors


def _context(scratch: Path) -> workloads.Context:
    scratch.mkdir(parents=True, exist_ok=True)
    corpus, config, params = workloads.setup(TINY, seed=3, scratch=scratch)
    return workloads.Context(TINY, corpus, config, params)


def _recorder(ctx: workloads.Context) -> Recorder:
    recorder = Recorder()
    corpus = ctx.corpus
    recorder.example_ids = {id(ex): i for i, ex in enumerate(
        corpus.train + corpus.valid + corpus.test)}
    return recorder
