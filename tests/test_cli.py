"""End-to-end command line: synth, train, eval and generate on a tiny corpus,
plus the exit codes for a removed flag, a malformed corpus and a reader
that closes standard output early."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spi import verify
from spi.cli import _parser, _synth_spec, main
from spi.config import config_from_dict
from spi.data import SyntheticSpec
from spi.errors import ContractError
from spi.fsio import atomic_write_bytes

VOCAB = 32


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_dir(workdir):
    out = workdir / "corpus"
    code = main(["synth", "--out", str(out), "--vocab-size", str(VOCAB),
                 "--candidates", "3", "--candidate-len", "4", "--styles", "2",
                 "--train", "8", "--valid", "4", "--test", "4",
                 "--history-len", "4", "--seed", "5"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def config_file(workdir):
    path = workdir / "config.json"
    path.write_text(json.dumps({
        "model": {"vocab_size": VOCAB, "embed_dim": 4, "hidden_dim": 5, "att_dim": 3,
                  "dec_hidden_dim": 5, "latent_dim": 2, "max_history": 8,
                  "max_candidate": 6, "max_response": 8},
        "top_s": 2, "langevin_steps": 2, "batch_size": 4, "seed": 3}))
    return path


@pytest.fixture(scope="module")
def run_dir(workdir, corpus_dir, config_file):
    out = workdir / "run"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), "--epochs", "1"])
    assert code == 0
    return out


def test_synth_writes_every_split(corpus_dir):
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.json", "spec.txt"):
        assert (corpus_dir / name).is_file(), name
    assert len((corpus_dir / "train.jsonl").read_text().splitlines()) == 8


def test_synth_flags_read_their_defaults_from_the_spec():
    assert _synth_spec(_parser().parse_args(["synth", "--out", "X"])) == SyntheticSpec()
    args = _parser().parse_args(["synth", "--out", "X", "--candidates", "3", "--rho", "0.25",
                                 "--history-len", "5", "--seed", "9"])
    assert _synth_spec(args) == SyntheticSpec(m_candidates=3, rho=0.25, history_len=5, seed=9)


def test_train_writes_config_log_and_checkpoints(run_dir):
    for name in ("config.json", "checkpoint.bin", "final.bin"):
        assert (run_dir / name).is_file(), name
    lines = (run_dir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["config"]["epochs"] == 1
    assert "threads" not in json.loads((run_dir / "config.json").read_text())


def test_eval_writes_a_report(workdir, corpus_dir, config_file, run_dir):
    out = workdir / "report.json"
    code = main(["eval", "--corpus", str(corpus_dir), "--config", str(config_file),
                 "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_examples"] == 4
    assert report["perplexity"] >= 1.0


def test_an_eval_report_echoes_its_config_file_but_for_the_prior(workdir, corpus_dir,
                                                                 config_file):
    run = workdir / "learnable-run"
    assert main(["train", "--corpus", str(corpus_dir), "--out", str(run), "--config",
                 str(config_file), "--epochs", "1", "--prior", "learnable"]) == 0
    out = workdir / "learnable-report.json"
    assert main(["eval", "--corpus", str(corpus_dir), "--config", str(config_file),
                 "--checkpoint", str(run / "checkpoint.bin"), "--prior", "learnable",
                 "--out", str(out)]) == 0
    echoed = json.loads(out.read_text())["config"]
    expected = config_from_dict(json.loads(config_file.read_text())).to_dict()
    assert echoed["prior"] == "learnable" and expected["prior"] == "uniform"
    assert echoed == dict(expected, prior="learnable")


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--temperature", "2"), ("eval", "--seed", "9"), ("eval", "--epochs", "1"),
    ("generate", "--top-s", "3"), ("generate", "--selection", "sampled"),
    ("generate", "--langevin-steps", "2")])
def test_eval_and_generate_refuse_a_setting_they_do_not_read(workdir, corpus_dir, config_file,
                                                             run_dir, capsys, command, flag,
                                                             value):
    # with no response at test time, only the prior and the model sizes are read
    out = workdir / f"{command}-unread.out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--corpus", str(corpus_dir), "--config", str(config_file),
              "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_an_unlabelled_split_reports_no_selection_accuracy(workdir, corpus_dir,
                                                                    config_file, run_dir):
    unlabelled = workdir / "unlabelled"
    unlabelled.mkdir()
    for name in ("train.jsonl", "valid.jsonl", "vocab.json", "spec.txt"):
        (unlabelled / name).write_bytes((corpus_dir / name).read_bytes())
    records = [json.loads(line) for line in (corpus_dir / "test.jsonl").read_text().splitlines()]
    (unlabelled / "test.jsonl").write_text(
        "".join(json.dumps(dict(r, gold_index=None)) + "\n" for r in records))
    reports = []
    for corpus in (corpus_dir, unlabelled):
        out = workdir / f"{corpus.name}-report.json"
        code = main(["eval", "--corpus", str(corpus), "--config", str(config_file),
                     "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(out)])
        assert code == 0
        reports.append(json.loads(out.read_text()))
    labelled, report = reports
    assert report.pop("selection_accuracy") is None
    labelled.pop("selection_accuracy")
    assert report == labelled


def test_generate_writes_one_line_per_example(workdir, corpus_dir, config_file, run_dir):
    out = workdir / "generations.jsonl"
    code = main(["generate", "--corpus", str(corpus_dir), "--config", str(config_file),
                 "--checkpoint", str(run_dir / "checkpoint.bin"), "--limit", "3",
                 "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in records] == [0, 1, 2]
    assert all(r["tokens"] and r["tokens"][-1] == 2 for r in records)


@pytest.mark.parametrize("command", ["eval", "generate"])
@pytest.mark.parametrize("limit", ["-5", "-1", "two"])
def test_a_limit_that_is_not_a_count_is_a_usage_error(workdir, corpus_dir, config_file,
                                                      run_dir, capsys, command, limit):
    out = workdir / f"{command}-limit.out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--corpus", str(corpus_dir), "--config", str(config_file),
              "--checkpoint", str(run_dir / "checkpoint.bin"), "--limit", limit,
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err
    assert not out.exists()


def test_eval_limit_counts_examples_from_the_first(workdir, corpus_dir, config_file, run_dir):
    out = workdir / "limited-report.json"
    code = main(["eval", "--corpus", str(corpus_dir), "--config", str(config_file),
                 "--checkpoint", str(run_dir / "checkpoint.bin"), "--limit", "2",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["n_examples"] == 2


@pytest.mark.parametrize("flag, field", [("--train", "n_train"), ("--valid", "n_valid"),
                                         ("--test", "n_test")])
def test_synth_rejects_a_negative_split_size(workdir, capsys, flag, field):
    out = workdir / f"negative{flag}"
    code = main(["synth", "--out", str(out), "--vocab-size", str(VOCAB),
                 "--candidates", "3", "--candidate-len", "4", "--styles", "2",
                 flag, "-5"])
    assert code == 1
    assert f"{field} must not be negative" in capsys.readouterr().err
    assert not out.exists()


def test_threads_flag_is_gone(workdir, corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(corpus_dir), "--out", str(workdir / "t"),
              "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_malformed_corpus_line_exits_1_with_file_and_line(workdir, corpus_dir,
                                                          config_file, capsys):
    broken = workdir / "broken"
    broken.mkdir()
    for path in corpus_dir.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    train_path = broken / "train.jsonl"
    lines = train_path.read_text().splitlines()
    lines[1] = "{not json"
    train_path.write_text("\n".join(lines) + "\n")
    code = main(["train", "--corpus", str(broken), "--out", str(workdir / "b"),
                 "--config", str(config_file), "--epochs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {train_path}:2:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [None, "{oops", "[1, 2]", '{"model": 5}'],
                         ids=["missing", "malformed-json", "not-an-object", "model-not-an-object"])
def test_bad_config_file_exits_1_naming_the_file(workdir, corpus_dir, tmp_path, capsys,
                                                 text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(workdir / "c"),
                 "--config", str(path), "--epochs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["spec.txt", "train.jsonl"])
def test_corpus_missing_a_file_exits_1_naming_it(workdir, corpus_dir, config_file,
                                                 capsys, name):
    partial = workdir / f"partial-{name}"
    partial.mkdir()
    for path in corpus_dir.iterdir():
        if path.name != name:
            (partial / path.name).write_bytes(path.read_bytes())
    code = main(["train", "--corpus", str(partial), "--out", str(workdir / "p"),
                 "--config", str(config_file), "--epochs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {partial / name}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--sweep-top-s", "--sweep-langevin-steps"])
def test_non_integer_sweep_grid_exits_1_naming_flag_and_value(workdir, corpus_dir,
                                                              config_file, capsys, flag):
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(workdir / "g"),
                 "--config", str(config_file), "--epochs", "1", flag, "1,x"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {flag}: 'x' is not an integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", ["", " , "])
@pytest.mark.parametrize("flag", ["--sweep-top-s", "--sweep-langevin-steps"])
def test_an_empty_sweep_grid_exits_1_before_any_training(workdir, corpus_dir, config_file,
                                                         capsys, flag, grid):
    # an empty grid is a sweep of no points, not one plain run
    out = workdir / "empty-grid"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), "--epochs", "1", flag, grid])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: {flag[len('--sweep-'):]} sweep grid is empty"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sweep-top-s", "--sweep-langevin-steps"])
def test_a_repeated_sweep_value_exits_1_naming_the_flag(workdir, corpus_dir, config_file,
                                                         capsys, flag):
    # a repeated value would train one point twice into one directory
    out = workdir / "repeated"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), "--epochs", "1", flag, "2,1,2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {flag}: 2 is listed twice")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, grid, bad", [("--sweep-top-s", "3,0", "T=2 S=0: top_s"),
                                             ("--sweep-langevin-steps", "1,-1",
                                              "T=-1 S=2: langevin_steps")])
def test_an_invalid_sweep_point_exits_1_before_any_training(workdir, corpus_dir, config_file,
                                                            capsys, flag, grid, bad):
    # the valid point listed first must not train either
    out = workdir / f"invalid{flag}"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), "--epochs", "1", flag, grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: sweep point {bad}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_a_top_s_sweep_under_the_learnable_prior_trains_one_run_per_point(
        workdir, corpus_dir, config_file, capsys):
    # the learnable prior weights the head's top-S as the uniform one does, so
    # a cut to 1 of the 3 candidates trains apart from full width
    out = workdir / "learnable-sweep"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), "--epochs", "1", "--prior", "learnable",
                 "--sweep-top-s", "1,5"])
    assert code == 0, capsys.readouterr().err
    logs = [(out / f"T2_S{s}" / "metrics.jsonl").read_text().splitlines() for s in (1, 5)]
    assert [json.loads(log[0])["config"]["top_s"] for log in logs] == [1, 5]
    assert len(logs[0]) == len(logs[1]) == 2 and logs[0][1] != logs[1][1]
    assert len((out / "sweep.tsv").read_text().splitlines()) == 3


def test_missing_checkpoint_exits_1_naming_it(workdir, corpus_dir, config_file, capsys):
    path = workdir / "no-such.bin"
    code = main(["eval", "--corpus", str(corpus_dir), "--config", str(config_file),
                 "--checkpoint", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["synth", "train", "eval", "generate"])
def test_an_output_path_under_a_regular_file_exits_1_naming_it(workdir, corpus_dir,
                                                               config_file, run_dir,
                                                               tmp_path, capsys, command):
    blocked = tmp_path / "file"
    blocked.write_text("not a directory\n")
    out = blocked / "x"
    args = {"synth": ["--vocab-size", str(VOCAB), "--train", "2", "--valid", "1",
                      "--test", "1"],
            "train": ["--corpus", str(corpus_dir), "--config", str(config_file),
                      "--epochs", "1"]}.get(command, [
        "--corpus", str(corpus_dir), "--config", str(config_file),
        "--checkpoint", str(run_dir / "checkpoint.bin"), "--limit", "1"])
    code = main([command, "--out", str(out), *args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(out) in err and "cannot write" in err
    assert blocked.read_text() == "not a directory\n"


def test_a_response_past_the_cap_exits_1_naming_its_example(workdir, config_file, run_dir,
                                                            capsys):
    # candidates of 12 tokens make responses of 14, past the config's cap of 8
    corpus = workdir / "long-responses"
    assert main(["synth", "--out", str(corpus), "--vocab-size", str(VOCAB),
                 "--candidates", "3", "--candidate-len", "12", "--styles", "2",
                 "--train", "2", "--valid", "1", "--test", "2", "--history-len", "4"]) == 0
    capsys.readouterr()
    common = ["--corpus", str(corpus), "--config", str(config_file)]
    assert main(["train", *common, "--out", str(workdir / "long-train"), "--epochs", "1"]) == 1
    assert capsys.readouterr().err == \
        "error: train example 0: response of length 14 exceeds the cap 8\n"
    assert main(["eval", *common, "--checkpoint", str(run_dir / "checkpoint.bin")]) == 1
    assert capsys.readouterr().err == \
        "error: example 0: response of length 14 exceeds the cap 8\n"


@pytest.mark.parametrize("flag, field", [("--lr-model", "lr_model"), ("--lr-head", "lr_head")])
def test_a_negative_learning_rate_exits_1_naming_the_field(workdir, corpus_dir, config_file,
                                                           capsys, flag, field):
    out = workdir / "negative-rate"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), "--epochs", "1", flag, "-0.05"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {field} must be non-negative, got -0.05")
    assert "Traceback" not in err
    assert not out.exists()


def test_a_negative_seed_exits_1_naming_the_field(workdir, corpus_dir, config_file, capsys):
    out = workdir / "negative-seed"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), "--epochs", "1", "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: seed must be non-negative, got -1")
    assert "Traceback" not in err
    assert not out.exists()
    code = main(["synth", "--out", str(out), "--vocab-size", str(VOCAB), "--candidates", "3",
                 "--candidate-len", "4", "--styles", "2", "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: seed must not be negative, got -1")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-size", "0", "batch_size must be at least 1, got 0"),
    ("--epochs", "-1", "epochs must be non-negative, got -1"),
])
def test_an_out_of_range_loop_setting_exits_1_naming_the_field(workdir, corpus_dir, config_file,
                                                               capsys, flag, value, message):
    out = workdir / "bad-loop-setting"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(config_file), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_verify_fast_passes_every_suite(capsys):
    assert main(["verify", "--fast"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.startswith("[PASS] ") for line in lines), lines


def test_verify_exits_1_when_a_suite_fails(monkeypatch, capsys):
    monkeypatch.setattr(verify, "check_selection",
                        lambda **kwargs: verify.CheckResult("selection", False, "forced"))
    assert main(["verify", "--fast"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] selection: forced" in lines
    assert sum(line.startswith("[PASS] ") for line in lines) == 4


def test_a_write_that_fails_after_its_temp_file_names_the_path_and_removes_it(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # the rename onto a directory fails
    with pytest.raises(ContractError, match=f"^{re.escape(str(target))}: cannot write"):
        atomic_write_bytes(target, b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, unbuffered):
    # as in ``spi ... | head -0``: the pipe closes before the first line, with
    # stdout unbuffered (the print fails) or buffered (the final flush fails)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "spi", "synth", "--out", str(tmp_path / "c"), "--train", "2",
         "--valid", "1", "--test", "1", "--candidates", "2", "--candidate-len", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
