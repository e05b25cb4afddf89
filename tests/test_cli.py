"""End-to-end command line: synth, train, eval and generate on a tiny corpus,
plus the exit codes for a removed flag and a malformed corpus."""
from __future__ import annotations

import json

import pytest

from spi.cli import main

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


def test_generate_writes_one_line_per_example(workdir, corpus_dir, config_file, run_dir):
    out = workdir / "generations.jsonl"
    code = main(["generate", "--corpus", str(corpus_dir), "--config", str(config_file),
                 "--checkpoint", str(run_dir / "checkpoint.bin"), "--limit", "3",
                 "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in records] == [0, 1, 2]
    assert all(r["tokens"] and r["tokens"][-1] == 2 for r in records)


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


def test_missing_checkpoint_exits_1_naming_it(workdir, corpus_dir, config_file, capsys):
    path = workdir / "no-such.bin"
    code = main(["eval", "--corpus", str(corpus_dir), "--config", str(config_file),
                 "--checkpoint", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ")
