"""The benchmark's workloads, their timed rounds, output checks and metrics.

Every workload goes through the same public calls of ``spi``: set-up
(corpus, weights, checkpoint round trip), then rounds of one
``train(..., epochs=1)`` call, per-example ``generate`` and one
``evaluate``. Workloads differ in the corpus and config they feed those
calls and in how a round divides its examples between them; see
``perfbench/README.md`` for why each one exists.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import spi
from spi import checkpoint, data, generation, inference, metrics, model, training, verify
from spi.errors import SpiError

import refspeed
from benchstats import (bit_differences, percentile, supported, tail_percentile,
                        valid_metric_name, valid_unit)
from spans import Recorder, self_times


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    history_len: int
    prior: str
    # examples per round given to each call
    train: int
    valid: int
    generate: int
    evaluate: int


WORKLOADS = {w.name: w for w in (
    Workload("train-desk",
             "desk-scale SPI training epoch: top-5 selection and T=5 Langevin dominate",
             history_len=8, prior="uniform", train=16, valid=8, generate=16, evaluate=16),
    Workload("eval-desk",
             "untaped generation and evaluation from checkpointed weights; no selection "
             "posterior, Langevin or backward on its generate and eval path",
             history_len=8, prior="uniform", train=16, valid=8, generate=48, evaluate=32),
    Workload("train-longctx-learnable",
             "history 32 and learnable prior: all 8 candidates scored and re-encoded on "
             "the tape, so encoding and autodiff dominate",
             history_len=32, prior="learnable", train=16, valid=8, generate=16, evaluate=16),
)}

SETUP_REPEATS = 11      # set-ups per run; setup_s is their median
POOL_ROUNDS = 8         # the corpus holds this many rounds of distinct examples
CHECKS_PER_ROUND = 2    # examples per round compared against the plain-numpy reference
GENERATE_CHUNK = 8      # generate calls between two speed probes
MIN_TAIL_SAMPLES = 92   # the fewest samples that support a p90 (benchstats.supported)
REL_TOL = 1e-10         # fast path against the reference, as the roadmap's gate


# ---------------------------------------------------------------------------
# environment


def git_sha(root: Path) -> str:
    """The commit of a git checkout at ``root``, read without running git;
    'unknown' outside one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas": blas, "blas_threads": {k: v for k, v in sorted(os.environ.items())
                                           if k.endswith("_NUM_THREADS")}}


# ---------------------------------------------------------------------------
# tracing targets: (span name, module, attribute, counts taken on return)


def primitive_of(vjp) -> str:
    """Primitive that recorded a tape node, from its adjoint's qualname
    (``matmul.<locals>.vjp`` -> ``matmul``)."""
    qualname = getattr(vjp, "__qualname__", type(vjp).__name__)
    return qualname.split(".<locals>")[0]


def _count_tape(info, parent, args, kwargs, result):
    tape = args[0]
    info["nodes"] = len(tape)
    # grouping walks every node, so it is done only for the surrogate step
    nodes = getattr(tape, "_nodes", None)
    if nodes is not None and parent == "training.mle_step":
        info["by_primitive"] = dict(Counter(primitive_of(node[-1]) for node in nodes))


def _count_selection(info, parent, args, kwargs, outcome):
    gold = args[1].gold_index
    if gold is not None:
        info["gold_in"] = gold in outcome.evaluated
        info["pick_gold"] = outcome.chosen == gold


def _count_batch(info, parent, args, kwargs, result):
    info["batch"] = len(args[1])


def _count_steps(info, parent, args, kwargs, result):
    info["steps"] = kwargs.get("steps", 0)


def _count_tokens(info, parent, args, kwargs, result):
    info["tokens"] = len(result.tokens)


TARGETS = (
    ("data.generate_corpus", "spi.data", "generate_corpus", None),
    ("checkpoint.save", "spi.checkpoint", "save_checkpoint", None),
    ("checkpoint.load", "spi.checkpoint", "load_checkpoint", None),
    ("model.encode_context", "spi.model", "encode_context", None),
    ("model.decode_logprob", "spi.model", "decode_logprob", None),
    ("inference.top_s", "spi.inference", "top_s_candidates", None),
    ("inference.select_knowledge", "spi.inference", "select_knowledge", _count_selection),
    ("inference.decoder_grad_z", "spi.inference", "decoder_grad_z", None),
    ("inference.langevin_infer_z", "spi.inference", "langevin_infer_z", _count_steps),
    ("inference.sequential_posterior_infer", "spi.inference",
     "sequential_posterior_infer", None),
    # training's private copy of the same two-step inference; the roadmap
    # plans to fold it into the public function, after which this is skipped
    ("inference.sequential_posterior_infer", "spi.training", "_infer_with_cache", None),
    ("training.train", "spi.training", "train", None),
    ("training.mle_step", "spi.training", "mle_step", _count_batch),
    ("training.surrogate_objective", "spi.training", "surrogate_objective", None),
    ("training.head_ce_step", "spi.training", "initializer_ce_step", _count_batch),
    ("training.head_ce_step", "spi.training", "prior_ce_step", _count_batch),
    ("training.validation_loss", "spi.training", "validation_loss", _count_batch),
    ("autodiff.backward", "spi.autodiff", "backward", _count_tape),
    ("generation.select_for_generation", "spi.generation", "select_for_generation", None),
    ("generation.generate", "spi.generation", "generate", _count_tokens),
    ("metrics.evaluate", "spi.metrics", "evaluate", _count_batch),
    ("metrics.perplexity", "spi.metrics", "perplexity", _count_batch),
    ("metrics.ngram", "spi.metrics", "bleu_corpus", None),
    ("metrics.ngram", "spi.metrics", "rouge_n", None),
    ("metrics.ngram", "spi.metrics", "distinct_n", None),
)

PRIMITIVES = ("matmul", "add", "multiply", "tanh", "softmax", "log", "gather_rows",
              "stack_rows", "concat", "reduce_mean", "squared_l2")


# ---------------------------------------------------------------------------
# one run


@dataclass
class Context:
    workload: Workload
    corpus: object
    config: spi.SpiConfig
    params: spi.ModelParams
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def take(self, split: str, r: int, k: int) -> list:
        pool = self.corpus.split(split)
        return [pool[(r * k + i) % len(pool)] for i in range(k)]

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)


def setup(workload: Workload, seed: int, scratch: Path):
    """Corpus, initial weights and their checkpoint round trip."""
    spec = data.SyntheticSpec(history_len=workload.history_len,
                              n_train=POOL_ROUNDS * workload.train,
                              n_valid=POOL_ROUNDS * workload.valid,
                              n_test=POOL_ROUNDS * (workload.generate + workload.evaluate),
                              seed=seed)
    corpus = data.generate_corpus(spec)
    config = spi.SpiConfig(model=spi.ModelConfig(vocab_size=corpus.vocab.size),
                           prior=workload.prior, epochs=1)
    params = model.ModelParams.init(config.model, seed=config.seed)
    path = scratch / "init.ckpt"
    checkpoint.save_checkpoint(path, params, config)
    return corpus, config, checkpoint.load_checkpoint(path, config)


@dataclass
class Round:
    """Wall times of one round, and the speed factor (``refspeed.factor``)
    measured around each of its three calls."""

    train_s: float | None = None
    valid_s: float | None = None
    generate_ms: list = field(default_factory=list)
    eval_s: float | None = None
    train_factor: float = 1.0
    generate_factors: list = field(default_factory=list)  # one per generate_ms
    eval_factor: float = 1.0
    quality: dict = field(default_factory=dict)
    trained: object = None

    @property
    def wall_s(self) -> float:
        return ((self.train_s or 0.0) + (self.valid_s or 0.0)
                + sum(self.generate_ms) / 1e3 + (self.eval_s or 0.0))


def run_round(ctx: Context, r: int) -> Round:
    """One timed pass through every call; a SpiError fails the call's examples."""
    w, cfg, clock = ctx.workload, ctx.config, time.perf_counter
    out = Round()
    train_ex, valid_ex = ctx.take("train", r, w.train), ctx.take("valid", r, w.valid)
    ctx.attempted += len(train_ex) + len(valid_ex)
    before = refspeed.probe()
    try:
        start = clock()
        result = training.train(train_ex, valid_ex, cfg, quiet=True)
        wall = clock() - start
    except SpiError as err:
        ctx.fail(f"round {r} train: {err}", len(train_ex) + len(valid_ex))
    else:
        out.train_s, out.valid_s = result.epoch_seconds[0], wall - result.epoch_seconds[0]
        out.trained = result.params
        out.quality["validation_loss"] = result.records[0]["validation_loss"]
        out.quality["selection_accuracy"] = result.records[0]["selection_accuracy"]
    between = refspeed.probe()
    out.train_factor, before = refspeed.factor(before, between), between
    tests = ctx.take("test", r, w.generate + w.evaluate)
    for lo in range(0, w.generate, GENERATE_CHUNK):
        timed = []
        for ex in tests[lo:min(lo + GENERATE_CHUNK, w.generate)]:
            ctx.attempted += 1
            try:
                start = clock()
                gen = generation.generate(ctx.params, ex, prior=cfg.prior,
                                          max_len=cfg.model.max_response)
                elapsed = clock() - start
            except SpiError as err:
                ctx.fail(f"round {r} generate: {err}")
                continue
            if (not gen.tokens or gen.tokens[-1] != model.EOS
                    or len(gen.tokens) > cfg.model.max_response):
                ctx.fail(f"round {r} generate: malformed output {gen.tokens}")
                continue
            timed.append(elapsed * 1e3)
        between = refspeed.probe()
        out.generate_ms += timed
        out.generate_factors += [refspeed.factor(before, between)] * len(timed)
        before = between
    eval_ex = tests[w.generate:]
    ctx.attempted += len(eval_ex)
    try:
        start = clock()
        report = metrics.evaluate(ctx.params, eval_ex, cfg)
        out.eval_s = clock() - start
    except SpiError as err:
        ctx.fail(f"round {r} evaluate: {err}", len(eval_ex))
    else:
        if report.n_examples != len(eval_ex) or not np.isfinite(report.perplexity):
            ctx.fail(f"round {r} evaluate: bad report {report.to_dict()}", len(eval_ex))
        out.quality["perplexity"] = report.perplexity
    out.eval_factor = refspeed.factor(before, refspeed.probe())
    return out


def check_outputs(ctx: Context, r: int, trained) -> None:
    """Compare the fast path with the plain-numpy reference in ``verify`` on a
    seeded sample of this round's examples, for the checkpointed and the
    trained weights."""
    rng = np.random.default_rng([ctx.corpus.spec.seed, r])
    w = ctx.workload
    pool = ctx.take("train", r, w.train) + ctx.take("test", r, w.generate + w.evaluate)
    picks = rng.choice(len(pool), size=CHECKS_PER_ROUND, replace=False)
    weights = [ctx.params] + ([trained] if trained is not None else [])
    top_s = min(ctx.config.top_s, ctx.corpus.spec.m_candidates)
    for params in weights:
        for i in picks:
            ex = pool[int(i)]
            s = ex.gold_index
            ctx.attempted += 2
            try:
                mu = model.latent_prior_mean(params, ex, s).data
                fast = float(model.decode_logprob(params, ex, s, mu).data)
                naive = verify.naive_response_logprob(
                    params, ex, s, verify.naive_latent_mean(params, ex, s))
                if not np.isclose(fast, naive, rtol=REL_TOL, atol=0.0):
                    ctx.fail(f"round {r}: decode_logprob {fast!r} != reference {naive!r}")
            except SpiError as err:
                ctx.fail(f"round {r}: decode_logprob raised {err}")
            try:
                got = inference.top_s_candidates(params, ex, top_s)
                want = verify.naive_top_s(params, ex, top_s)
                if got != want:
                    ctx.fail(f"round {r}: top_s {got} != reference {want}")
            except SpiError as err:
                ctx.fail(f"round {r}: top_s_candidates raised {err}")


def warm_up(ctx: Context) -> None:
    """Fill caches and finish lazy set-up before anything is timed."""
    train_ex = ctx.take("train", 0, 2)
    training.train(train_ex, train_ex[:1], ctx.config, quiet=True)
    test_ex = ctx.take("test", 0, 1)
    generation.generate(ctx.params, test_ex[0], prior=ctx.config.prior)
    metrics.evaluate(ctx.params, test_ex, ctx.config)


# ---------------------------------------------------------------------------
# metrics


def _median_rate(count: int, seconds, factors) -> float:
    rates = [count / s * f for s, f in zip(seconds, factors) if s]
    return statistics.median(rates) if rates else 0.0


def end_to_end(w: Workload, rounds: list[Round], setups: list[tuple[float, float]],
               corrected: bool = True) -> dict:
    """End-to-end metrics. Corrected, each time is divided by the speed
    factor measured around it, so that the VM's drift cancels; uncorrected
    values are the plain wall-clock ones."""
    def f(x):
        return x if corrected else 1.0

    gen_ms = [ms / f(k) for r in rounds for ms, k in zip(r.generate_ms, r.generate_factors)]
    return {
        "setup_s": (statistics.median(s / f(k) for s, k in setups), "s"),
        "train_examples_per_s": (_median_rate(
            w.train, [r.train_s for r in rounds], [f(r.train_factor) for r in rounds]), "1/s"),
        "valid_examples_per_s": (_median_rate(
            w.valid, [r.valid_s for r in rounds], [f(r.train_factor) for r in rounds]), "1/s"),
        "generate_examples_per_s": (statistics.median(
            len(r.generate_ms) * 1e3 / sum(ms / f(k) for ms, k in
                                           zip(r.generate_ms, r.generate_factors))
            for r in rounds if r.generate_ms), "1/s"),
        "generate_ms_p50": (percentile(gen_ms, 50), "ms"),
        "generate_ms_p90": (tail_percentile(gen_ms, 90), "ms"),
        "eval_examples_per_s": (_median_rate(
            w.evaluate, [r.eval_s for r in rounds], [f(r.eval_factor) for r in rounds]), "1/s"),
        "validation_loss": (rounds[0].quality.get("validation_loss", 0.0), "nats"),
        "perplexity": (rounds[0].quality.get("perplexity", 0.0), "ppl"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(spans, counted: int, first_round: dict, overhead: list[float]) -> dict:
    """Per-layer metrics from the traced rounds' spans.

    Times use every span. Counts and ratios use only ``spans[:counted]``,
    the spans of the fixed number of rounds every traced run makes, so
    that for a given seed they repeat exactly however many rounds fit.
    """
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def picked(name, under=None, counts=False):
        """Spans called ``name``; with ``under``, only those whose direct
        parent is called ``under``; with ``counts``, only the counted ones."""
        return [spans[i] for i in by_name.get(name, [])
                if (under is None or (spans[i].parent >= 0
                                      and spans[spans[i].parent].name == under))
                and (not counts or i < counted)]

    def mean_ms(name, under=None):
        got = picked(name, under)
        return 1e3 * sum(s.duration for s in got) / len(got) if got else 0.0

    def ms_per(name, key):
        got = picked(name)
        n = sum(s.info.get(key, 0) for s in got)
        return 1e3 * sum(s.duration for s in got) / n if n else 0.0

    def ratio(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def median_ms(name):
        got = picked(name)
        return 1e3 * statistics.median(s.duration for s in got) if got else 0.0

    selections = picked("inference.select_knowledge", counts=True)
    infer_ms = [1e3 * s.duration for s in picked("inference.sequential_posterior_infer")]
    steps = picked("autodiff.backward", under="training.mle_step", counts=True)
    selftime = self_times(spans)
    generates = by_name.get("generation.generate", [])
    counted_generates = picked("generation.generate", counts=True)
    tokens = sum(spans[i].info["tokens"] for i in generates)
    evaluated = sum(s.info["batch"] for s in picked("metrics.evaluate"))
    ngram_s = sum(s.duration for s in picked("metrics.ngram"))

    out = {
        "model.encode_context_ms": (mean_ms("model.encode_context"), "ms"),
        "model.decode_logprob_ms": (mean_ms("model.decode_logprob"), "ms"),
        "inference.top_s_ms": (mean_ms("inference.top_s"), "ms"),
        "inference.select_knowledge_ms": (mean_ms("inference.select_knowledge"), "ms"),
        "inference.selection_decodes": (
            len(picked("model.decode_logprob", under="inference.select_knowledge", counts=True))
            / len(selections) if selections else 0.0, "count"),
        "inference.gold_in_top_s": (
            ratio(s.info["gold_in"] for s in selections if "gold_in" in s.info), "ratio"),
        "inference.pick_is_gold": (
            ratio(s.info["pick_gold"] for s in selections if "pick_gold" in s.info), "ratio"),
        "inference.decoder_grad_z_ms": (mean_ms("inference.decoder_grad_z"), "ms"),
        "inference.langevin_step_ms": (ms_per("inference.langevin_infer_z", "steps"), "ms"),
        "inference.sequential_posterior_infer_ms_p50": (
            percentile(infer_ms, 50) if infer_ms else 0.0, "ms"),
        # 0 when too few calls support a p90, as when the program stops calling it
        "inference.sequential_posterior_infer_ms_p90": (
            percentile(infer_ms, 90) if supported(len(infer_ms), 90) else 0.0, "ms"),
        "training.surrogate_forward_ms": (
            mean_ms("training.surrogate_objective", under="training.mle_step"), "ms"),
        "autodiff.backward_ms": (mean_ms("autodiff.backward", under="training.mle_step"), "ms"),
        "training.mle_step_ms": (ms_per("training.mle_step", "batch"), "ms"),
        "training.head_ce_step_ms": (ms_per("training.head_ce_step", "batch"), "ms"),
        "autodiff.tape_nodes": (ratio(s.info["nodes"] for s in steps), "count"),
    }
    counts = Counter()
    for s in steps:
        counts.update(s.info.get("by_primitive", {"other": s.info["nodes"]}))
    for prim in PRIMITIVES:
        out[f"autodiff.nodes.{prim}"] = (counts.pop(prim, 0) / len(steps) if steps else 0.0,
                                         "count")
    out["autodiff.nodes.other"] = (sum(counts.values()) / len(steps) if steps else 0.0,
                                   "count")
    out.update({
        "training.validation_loss_ms": (ms_per("training.validation_loss", "batch"), "ms"),
        "generation.select_for_generation_ms": (
            mean_ms("generation.select_for_generation"), "ms"),
        "generation.ms_per_token": (
            1e3 * sum(selftime[i] for i in generates) / tokens if tokens else 0.0, "ms"),
        "generation.tokens_per_example": (
            sum(s.info["tokens"] for s in counted_generates) / len(counted_generates)
            if counted_generates else 0.0, "count"),
        "metrics.perplexity_ms": (ms_per("metrics.perplexity", "batch"), "ms"),
        "metrics.ngram_ms": (1e3 * ngram_s / evaluated if evaluated else 0.0, "ms"),
        "data.generate_corpus_s": (median_ms("data.generate_corpus") / 1e3, "s"),
        "checkpoint.save_ms": (median_ms("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (median_ms("checkpoint.load"), "ms"),
        "quality.selection_accuracy": (first_round.get("selection_accuracy", 0.0), "ratio"),
        "trace.overhead_ratio": (statistics.median(overhead) if overhead else 0.0, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# entry point


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record with environment)."""
    workload = WORKLOADS[name]
    out_dir = root / ".bench_out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    missing = recorder.install("spi", TARGETS) if trace else []
    try:
        setups = []  # (seconds, speed factor)
        before = refspeed.probe()
        for _ in range(SETUP_REPEATS):
            recorder.enabled = trace
            start = time.perf_counter()
            corpus, config, params = setup(workload, seed, scratch)
            elapsed = time.perf_counter() - start
            recorder.enabled = False
            after = refspeed.probe()
            setups.append((elapsed, refspeed.factor(before, after)))
            before = after
        ctx = Context(workload, corpus, config, params)
        recorder.example_ids = {id(ex): i for i, ex in enumerate(
            corpus.train + corpus.valid + corpus.test)}
        warm_up(ctx)

        # enough rounds for the p90 the run reports: of generate latency
        # untraced, of inference (one per train and valid example) traced
        per_round = workload.train + workload.valid if trace else workload.generate
        min_rounds = -(-MIN_TAIL_SAMPLES // per_round)
        rounds, overhead, uncorrected = [], [], {}
        counted = 0
        start = time.perf_counter()
        r = 0
        while r < min_rounds or time.perf_counter() - start < seconds:
            plain = run_round(ctx, r)
            rounds.append(plain)
            check_outputs(ctx, r, plain.trained)
            if trace:
                recorder.enabled = True
                again = run_round(ctx, r)
                recorder.enabled = False
                if plain.wall_s:
                    overhead.append(again.wall_s / plain.wall_s - 1.0)
                ctx.attempted += 1
                differ = bit_differences(plain.quality, again.quality)
                if differ:
                    ctx.fail(f"round {r}: traced run changed quality fields {differ}")
                if r < min_rounds:
                    counted = len(recorder.spans)
            r += 1
        if trace:
            metrics_out = per_layer(recorder.spans, counted, rounds[0].quality, overhead)
        else:
            metrics_out = end_to_end(workload, rounds, setups)
            uncorrected = end_to_end(workload, rounds, setups, corrected=False)
    finally:
        recorder.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    bad = [k for k, (_, unit) in metrics_out.items()
           if not (valid_metric_name(k) and valid_unit(unit))]
    if bad:
        raise ValueError(f"invalid metric names or units: {bad}")
    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "rounds": len(rounds), "environment": environment(root),
              "quality": {k: rounds[0].quality.get(k) for k in
                          ("validation_loss", "selection_accuracy", "perplexity")},
              "speed_factor": statistics.median(
                  [k for _, k in setups] + [r.train_factor for r in rounds]),
              "uncorrected": {k: v for k, (v, _) in uncorrected.items()},
              "skipped_targets": sorted(set(missing)), "errors": ctx.errors}
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if trace:
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps([asdict(s) for s in recorder.spans]) + "\n")
    return result, record

