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
from dataclasses import asdict, fields
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (PRIOR_MODES, SELECTION_MODES, ModelConfig, SpiConfig, config_from_dict,
                     with_overrides)
from .data import SyntheticSpec, generate_corpus, load_corpus, save_corpus
from .errors import ContractError, SpiError
from .fsio import atomic_write_text, dump_json_line, read_text
from .generation import generate_batch, write_generations
from .metrics import evaluate
from .training import train
from .verify import run_all

log = logging.getLogger(__name__)

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# SpiConfig fields settable from the command line, each one's type or its
# allowed values; a flag reads None when not given
_RUN_FLAGS = {"prior": PRIOR_MODES, "top_s": int, "langevin_steps": int, "step_size": float,
              "selection": SELECTION_MODES, "temperature": float, "seed": int, "epochs": int,
              "batch_size": int, "lr_model": float, "lr_head": float}


def _setup_logging() -> None:
    name = os.environ.get("SPI_LOG", "info")
    level = _LOG_LEVELS.get(name)
    if level is None:
        raise ContractError(
            f"SPI_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_config_flags(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file; flags override its values")
    for name in names:
        kind = _RUN_FLAGS[name]
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=None, **typed)


def _read_config_file(path: Path) -> SpiConfig:
    try:
        raw = json.loads(read_text(path, "the config file"))
    except (ValueError, RecursionError) as err:
        raise ContractError(f"{path}: malformed JSON ({err})") from None
    try:
        return config_from_dict(raw)
    except ContractError as err:
        raise ContractError(f"{path}: {err}") from None


def _limit(text: str) -> int:
    """``--limit``: how many examples of the split to use, from the first."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; it counts examples")
    return value


def _build_config(args: argparse.Namespace, vocab_size: int) -> SpiConfig:
    if args.config is not None:
        base = _read_config_file(Path(args.config))
        if base.model.vocab_size != vocab_size:
            raise ContractError(
                f"config vocab_size {base.model.vocab_size} does not match "
                f"the corpus vocabulary of {vocab_size}")
    else:
        base = SpiConfig(model=ModelConfig(vocab_size=vocab_size))
    overrides = {name: getattr(args, name) for name in _RUN_FLAGS
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


# each ``synth`` flag and the ``SyntheticSpec`` field it sets; the field
# gives the flag its type and default
SYNTH_FLAGS = {"--vocab-size": "vocab_size", "--candidates": "m_candidates",
               "--candidate-len": "candidate_len", "--styles": "n_styles", "--rho": "rho",
               "--train": "n_train", "--valid": "n_valid", "--test": "n_test",
               "--history-len": "history_len", "--seed": "seed"}


def _synth_spec(args: argparse.Namespace) -> SyntheticSpec:
    return SyntheticSpec(**{name: getattr(args, name) for name in SYNTH_FLAGS.values()})


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _synth_spec(args)
    corpus = generate_corpus(spec)
    save_corpus(corpus, Path(args.out))
    print(f"corpus {spec.n_train}/{spec.n_valid}/{spec.n_test} examples, "
          f"vocab {corpus.vocab.size}, fingerprint {_spec_fingerprint(spec)}")
    return 0


def _train_once(corpus, config: SpiConfig, out: Path) -> dict:
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
            value = int(v)
        except ValueError:
            raise ContractError(f"--sweep-{what}: {v!r} is not an integer") from None
        if value in grid:  # one point trained twice into one directory
            raise ContractError(f"--sweep-{what}: {value} is listed twice")
        grid.append(value)
    return grid


def cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(Path(args.corpus))
    config = _build_config(args, corpus.vocab.size)
    out = Path(args.out)
    sweep_t = _parse_grid(args.sweep_langevin_steps, "langevin-steps") \
        if args.sweep_langevin_steps is not None else None
    sweep_s = _parse_grid(args.sweep_top_s, "top-s") if args.sweep_top_s is not None else None
    if sweep_t is None and sweep_s is None:
        summary = _train_once(corpus, config, out)
        print(f"best epoch {summary['best_epoch']} "
              f"validation loss {summary['best_validation_loss']:.4f}")
        return 0
    if sweep_s is not None and config.prior == "learnable":
        raise ContractError("--sweep-top-s: the learnable prior scores every candidate "
                            "and reads no top_s, so each point would train the same run")
    # every point is validated before the first trains, so a bad one leaves no run
    points = []
    for t in (sweep_t if sweep_t is not None else [config.langevin_steps]):
        for s in (sweep_s if sweep_s is not None else [config.top_s]):
            try:
                points.append((t, s, with_overrides(config, langevin_steps=t, top_s=s)))
            except ContractError as err:
                raise ContractError(f"sweep point T={t} S={s}: {err}") from None
    rows = []
    for t, s, point in points:
        summary = _train_once(corpus, point, out / f"T{t}_S{s}")
        rows.append((t, s, summary))
        print(f"T={t} S={s}: best epoch {summary['best_epoch']} "
              f"validation loss {summary['best_validation_loss']:.4f} "
              f"({summary['mean_epoch_seconds']:.1f}s/epoch)")
    lines = ["langevin_steps\ttop_s\tbest_epoch\tbest_validation_loss\tmean_epoch_seconds"]
    lines += [f"{t}\t{s}\t{m['best_epoch']}\t{m['best_validation_loss']:.6f}"
              f"\t{m['mean_epoch_seconds']:.3f}" for t, s, m in rows]
    atomic_write_text(out / "sweep.tsv", "\n".join(lines) + "\n")
    return 0


def _load_checkpoint_and_split(args: argparse.Namespace):
    """``eval``'s and ``generate``'s config, weights and examples."""
    corpus = load_corpus(Path(args.corpus))
    config = _build_config(args, corpus.vocab.size)
    params = load_checkpoint(Path(args.checkpoint), config)
    examples = corpus.split(args.split)
    if args.limit is not None:
        examples = examples[:args.limit]
    return config, params, examples


def cmd_eval(args: argparse.Namespace) -> int:
    config, params, examples = _load_checkpoint_and_split(args)
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
    config, params, examples = _load_checkpoint_and_split(args)
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
    spec_fields = {f.name: f for f in fields(SyntheticSpec)}
    for flag, name in SYNTH_FLAGS.items():
        field = spec_fields[name]  # its type is a string: annotations are postponed
        synth.add_argument(flag, dest=name, type={"int": int, "float": float}[field.type],
                           default=field.default, metavar=flag[2:].upper().replace("-", "_"))
    synth.set_defaults(func=cmd_synth)

    tr = sub.add_parser("train", help="train a model on a corpus directory")
    tr.add_argument("--corpus", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--sweep-langevin-steps", default=None,
                    help="comma-separated grid, one training run per value")
    tr.add_argument("--sweep-top-s", default=None,
                    help="comma-separated grid, one training run per value")
    _add_config_flags(tr, tuple(_RUN_FLAGS))
    tr.set_defaults(func=cmd_train)

    # at test time there is no response to infer from: the prior picks the
    # knowledge and the decode starts at its mean, so no other run setting is read
    tested = argparse.ArgumentParser(add_help=False)
    tested.add_argument("--corpus", required=True)
    tested.add_argument("--checkpoint", required=True)
    tested.add_argument("--split", default="test")
    tested.add_argument("--limit", type=_limit, default=None)
    _add_config_flags(tested, ("prior",))

    ev = sub.add_parser("eval", parents=[tested], help="evaluate a checkpoint")
    ev.add_argument("--oracle-knowledge", dest="oracle_knowledge",
                    action="store_true")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("generate", parents=[tested],
                         help="greedy-decode responses to JSONL")
    gen.add_argument("--out", required=True)
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
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except SpiError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit; devnull takes it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
