"""Command line: corpus synthesis, training (with ablation sweeps),
evaluation, batch generation, and the self-check suites.

Flag values override config-file values, which override defaults; the
effective configuration is echoed into the output directory of every run.
Outputs are written atomically. Exit code 0 means all requested work
succeeded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig, SpiConfig, config_from_dict, with_overrides
from .data import SyntheticSpec, generate_corpus, load_corpus, save_corpus
from .errors import ContractError, SpiError
from .fsio import atomic_write_text, dump_json_line
from .generation import generate_batch, write_generations
from .metrics import evaluate
from .training import train
from .verify import run_all

log = logging.getLogger(__name__)

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# SpiConfig fields settable from the command line (None means "not given").
_RUN_FLAG_FIELDS = ("prior", "top_s", "langevin_steps", "step_size", "selection",
                    "temperature", "seed", "epochs", "batch_size",
                    "lr_model", "lr_head")


def _setup_logging() -> None:
    name = os.environ.get("SPI_LOG", "info")
    level = _LOG_LEVELS.get(name)
    if level is None:
        raise ContractError(
            f"SPI_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file; flags override its values")
    p.add_argument("--prior", choices=("uniform", "learnable"), default=None)
    p.add_argument("--top-s", dest="top_s", type=int, default=None)
    p.add_argument("--langevin-steps", dest="langevin_steps", type=int, default=None)
    p.add_argument("--step-size", dest="step_size", type=float, default=None)
    p.add_argument("--selection", choices=("greedy", "sampled"), default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr-model", dest="lr_model", type=float, default=None)
    p.add_argument("--lr-head", dest="lr_head", type=float, default=None)


def _read_config_file(path: Path) -> SpiConfig:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ContractError(f"{path}: cannot read the config file ({err.strerror})") from None
    except ValueError as err:
        raise ContractError(f"{path}: malformed JSON ({err})") from None
    if not isinstance(raw, dict):
        raise ContractError(f"{path}: a config file holds a JSON object, "
                            f"not {type(raw).__name__}")
    try:
        return config_from_dict(raw)
    except ContractError as err:
        raise ContractError(f"{path}: {err}") from None


def _build_config(args: argparse.Namespace, vocab_size: int) -> SpiConfig:
    if args.config is not None:
        base = _read_config_file(Path(args.config))
        if base.model.vocab_size != vocab_size:
            raise ContractError(
                f"config vocab_size {base.model.vocab_size} does not match "
                f"the corpus vocabulary of {vocab_size}")
    else:
        base = SpiConfig(model=ModelConfig(vocab_size=vocab_size))
    overrides = {name: getattr(args, name) for name in _RUN_FLAG_FIELDS
                 if getattr(args, name, None) is not None}
    return with_overrides(base, **overrides) if overrides else base


def _echo_config(out_dir: Path, config: SpiConfig) -> None:
    atomic_write_text(out_dir / "config.json",
                      dump_json_line(config.to_dict()) + "\n")


def _spec_fingerprint(spec: SyntheticSpec) -> str:
    blob = json.dumps(asdict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(vocab_size=args.vocab_size, m_candidates=args.candidates,
                         candidate_len=args.candidate_len, n_styles=args.styles,
                         rho=args.rho, n_train=args.train, n_valid=args.valid,
                         n_test=args.test, history_len=args.history_len,
                         seed=args.seed if args.seed is not None else 0)
    corpus = generate_corpus(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, out)
    print(f"corpus {spec.n_train}/{spec.n_valid}/{spec.n_test} examples, "
          f"vocab {corpus.vocab.size}, fingerprint {_spec_fingerprint(spec)}")
    return 0


def _train_once(corpus, config: SpiConfig, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(out, config)
    result = train(corpus.train, corpus.valid, config,
                   log_path=out / "metrics.jsonl")
    save_checkpoint(out / "checkpoint.bin", result.best_params, config)
    save_checkpoint(out / "final.bin", result.params, config)
    mean_epoch = (sum(result.epoch_seconds) / len(result.epoch_seconds)
                  if result.epoch_seconds else 0.0)
    return {"best_epoch": result.best_epoch,
            "best_validation_loss": result.best_validation_loss,
            "mean_epoch_seconds": mean_epoch}


def _parse_grid(text: str, what: str) -> list[int]:
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise ContractError(f"{what} sweep grid is empty")
    grid = []
    for v in values:
        try:
            grid.append(int(v))
        except ValueError:
            raise ContractError(f"--sweep-{what}: {v!r} is not an integer") from None
    return grid


def cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(Path(args.corpus))
    config = _build_config(args, corpus.vocab.size)
    out = Path(args.out)
    sweep_t = _parse_grid(args.sweep_langevin_steps, "langevin-steps") \
        if args.sweep_langevin_steps else None
    sweep_s = _parse_grid(args.sweep_top_s, "top-s") if args.sweep_top_s else None
    if sweep_t is None and sweep_s is None:
        summary = _train_once(corpus, config, out)
        print(f"best epoch {summary['best_epoch']} "
              f"validation loss {summary['best_validation_loss']:.4f}")
        return 0
    rows = []
    for t in (sweep_t if sweep_t is not None else [config.langevin_steps]):
        for s in (sweep_s if sweep_s is not None else [config.top_s]):
            point = with_overrides(config, langevin_steps=t, top_s=s)
            summary = _train_once(corpus, point, out / f"T{t}_S{s}")
            rows.append((t, s, summary))
            print(f"T={t} S={s}: best epoch {summary['best_epoch']} "
                  f"validation loss {summary['best_validation_loss']:.4f} "
                  f"({summary['mean_epoch_seconds']:.1f}s/epoch)")
    lines = ["langevin_steps\ttop_s\tbest_epoch\tbest_validation_loss\tmean_epoch_seconds"]
    lines += [f"{t}\t{s}\t{m['best_epoch']}\t{m['best_validation_loss']:.6f}"
              f"\t{m['mean_epoch_seconds']:.3f}" for t, s, m in rows]
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "sweep.tsv", "\n".join(lines) + "\n")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    corpus = load_corpus(Path(args.corpus))
    config = _build_config(args, corpus.vocab.size)
    params = load_checkpoint(Path(args.checkpoint), config)
    examples = corpus.split(args.split)
    if args.limit is not None:
        examples = examples[:args.limit]
    report = evaluate(params, examples, config,
                      oracle_knowledge=args.oracle_knowledge)
    payload = dict(report.to_dict())
    payload["config"] = config.to_dict()
    text = dump_json_line(payload) + "\n"
    if args.out is not None:
        atomic_write_text(Path(args.out), text)
    print(text, end="")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    corpus = load_corpus(Path(args.corpus))
    config = _build_config(args, corpus.vocab.size)
    params = load_checkpoint(Path(args.checkpoint), config)
    examples = corpus.split(args.split)
    if args.limit is not None:
        examples = examples[:args.limit]
    results = generate_batch(params, examples, prior=config.prior,
                             max_len=config.model.max_response)
    write_generations(Path(args.out), results)
    print(f"wrote {len(results)} generations to {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(fast=args.fast)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# wiring


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spi",
                                description="Latent-variable dialogue engine "
                                            "with posterior knowledge selection")
    sub = p.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--out", required=True)
    synth.add_argument("--vocab-size", dest="vocab_size", type=int, default=64)
    synth.add_argument("--candidates", type=int, default=8)
    synth.add_argument("--candidate-len", dest="candidate_len", type=int, default=8)
    synth.add_argument("--styles", type=int, default=3)
    synth.add_argument("--rho", type=float, default=0.5)
    synth.add_argument("--train", type=int, default=2000)
    synth.add_argument("--valid", type=int, default=250)
    synth.add_argument("--test", type=int, default=250)
    synth.add_argument("--history-len", dest="history_len", type=int, default=8)
    synth.add_argument("--seed", type=int, default=None)
    synth.set_defaults(func=cmd_synth)

    tr = sub.add_parser("train", help="train a model on a corpus directory")
    tr.add_argument("--corpus", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--sweep-langevin-steps", default=None,
                    help="comma-separated grid, one training run per value")
    tr.add_argument("--sweep-top-s", default=None,
                    help="comma-separated grid, one training run per value")
    _add_config_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--split", default="test")
    ev.add_argument("--limit", type=int, default=None)
    ev.add_argument("--oracle-knowledge", dest="oracle_knowledge",
                    action="store_true")
    ev.add_argument("--out", default=None)
    _add_config_flags(ev)
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("generate", help="greedy-decode responses to JSONL")
    gen.add_argument("--corpus", required=True)
    gen.add_argument("--checkpoint", required=True)
    gen.add_argument("--split", default="test")
    gen.add_argument("--limit", type=int, default=None)
    gen.add_argument("--out", required=True)
    _add_config_flags(gen)
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the self-check suites")
    ver.add_argument("--fast", action="store_true",
                     help="smaller suites for a quick pre-flight")
    ver.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except SpiError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
