"""The same-bytes check ``tools/same_bytes.py``: its pipeline's digests on a
tiny corpus, and the side-by-side comparison, with stubs in place of the
two commits' runs."""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_bytes  # noqa: E402

TINY = {"sizes": (4, 2, 3), "epochs": 1}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Two runs of the pipeline on the tiny corpus, and one of another seed."""
    runs = {}
    for name, seed in (("a", same_bytes.SEED), ("b", same_bytes.SEED), ("seed", 7)):
        out = tmp_path_factory.mktemp(name)
        runs[name] = (out, same_bytes.pipeline(out, seed=seed, **TINY))
    return runs


def test_the_pipeline_digests_every_artefact_it_writes(tiny_runs):
    out, digests = tiny_runs["a"]
    per_corpus = {"metrics.jsonl", "checkpoint.bin", "final.bin", "evaluate.json",
                  "evaluate-oracle.json", "evaluate-init.json", "generations.jsonl",
                  "generations-single.jsonl"}
    # desk-sampled shares desk-uniform's corpus and prior, and evaluate reads
    # no selection setting, so its init report would repeat desk-uniform's;
    # desk-ragged's trimmed corpus has one of its own
    assert set(digests) == {f"{name}/{file}" for name, *_ in same_bytes.CORPORA
                            for file in per_corpus} - {"desk-sampled/evaluate-init.json"}
    assert len(digests) == 8 * 4 - 1
    for name, value in digests.items():
        assert value == hashlib.sha256((out / name).read_bytes()).hexdigest()
    # the oracle flag changes the perplexity field, so the two reports differ
    for name, *_ in same_bytes.CORPORA:
        assert digests[f"{name}/evaluate.json"] != digests[f"{name}/evaluate-oracle.json"]


def test_the_init_report_scores_the_weights_training_starts_from(tiny_runs):
    import spi
    from spi import data, metrics
    from spi.fsio import dump_json_line
    out, digests = tiny_runs["a"]
    corpus = data.generate_corpus(data.SyntheticSpec(
        history_len=8, n_train=4, n_valid=2, n_test=3, seed=same_bytes.SEED))
    config = spi.SpiConfig(model=spi.ModelConfig(vocab_size=corpus.vocab.size),
                           epochs=1, seed=same_bytes.SEED, prior="uniform")
    report = metrics.evaluate(spi.ModelParams.init(config.model, seed=config.seed),
                              corpus.test, config)
    assert (out / "desk-uniform" / "evaluate-init.json").read_text() == \
        dump_json_line(report.to_dict()) + "\n"
    assert digests["desk-uniform/evaluate-init.json"] != digests["desk-uniform/evaluate.json"]


def test_the_pipeline_covers_sampled_selection_on_the_desk_corpus(tiny_runs):
    runs = {name: (history, trimmed, settings)
            for name, history, trimmed, settings in same_bytes.CORPORA}
    assert runs["desk-sampled"] == (*runs["desk-uniform"][:2], {
        "prior": "uniform", "selection": "sampled", "temperature": 2.0, "top_s": 3})
    # the same corpus, seed and checkpoint fingerprint: only the selection
    # settings move the sampled run's weights apart from the greedy run's
    out, digests = tiny_runs["a"]
    assert digests["desk-sampled/final.bin"] != digests["desk-uniform/final.bin"]
    head = json.loads((out / "desk-sampled" / "metrics.jsonl").read_text().splitlines()[0])
    assert (head["config"]["selection"], head["config"]["temperature"],
            head["config"]["top_s"]) == ("sampled", 2.0, 3)


def test_the_ragged_run_trims_the_desk_corpus_to_lanes_of_unequal_lengths(tiny_runs):
    from spi import data
    runs = {name: (history, trimmed, settings)
            for name, history, trimmed, settings in same_bytes.CORPORA}
    assert runs["desk-ragged"] == (runs["desk-uniform"][0], True, {"prior": "uniform"})
    corpus = data.generate_corpus(data.SyntheticSpec(n_train=4, n_valid=2, n_test=6,
                                                     seed=same_bytes.SEED))
    trimmed = same_bytes.ragged(corpus.test)
    for i, (ex, cut) in enumerate(zip(corpus.test, trimmed)):
        assert cut.history == ex.history[i % 5:]
        assert [len(c) for c in cut.candidates] == [
            len(c) - (i + j) % 4 for j, c in enumerate(ex.candidates)]
        assert (cut.gold_index, cut.response) == (ex.gold_index, ex.response)
    # every example's candidates have unequal lengths, and so do the histories
    assert all(len({len(c) for c in ex.candidates}) > 1 for ex in trimmed)
    assert len({len(ex.history) for ex in trimmed}) == 5
    out, digests = tiny_runs["a"]
    for file in ("evaluate-init.json", "generations.jsonl", "final.bin"):
        assert digests[f"desk-ragged/{file}"] != digests[f"desk-uniform/{file}"]


def test_the_pipeline_gives_the_same_bytes_twice_and_other_bytes_on_another_seed(tiny_runs):
    assert tiny_runs["a"][1] == tiny_runs["b"][1]
    other = tiny_runs["seed"][1]
    assert set(other) == set(tiny_runs["a"][1])
    assert same_bytes.differing({"parent": tiny_runs["a"][1], "change": other}) == sorted(other)


def test_the_comparison_names_each_artefact_that_differs(capsys):
    parent = {"x/a": "1" * 64, "x/b": "2" * 64, "y/c": "3" * 64}
    assert same_bytes.report({"parent": parent, "change": dict(parent)}) == 0
    assert "3 of 3 artefacts have the same bytes" in capsys.readouterr().out
    change = {"x/a": "1" * 64, "x/b": "f" * 64, "y/d": "3" * 64}
    assert same_bytes.differing({"parent": parent, "change": change}) == ["x/b", "y/c", "y/d"]
    assert same_bytes.report({"parent": parent, "change": change}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["artefact", "parent", "change"]
    assert lines[1].split() == ["x/a", "1" * 64, "1" * 64]  # side by side
    assert lines[2].split() == ["x/b", "2" * 64, "f" * 64]
    assert lines[3].split() == ["y/c", "3" * 64, "-"]  # one side lacks it
    assert [line for line in lines if line.startswith("differs:")] == [
        "differs: x/b", "differs: y/c", "differs: y/d"]


def test_the_largest_relative_difference_tells_noise_from_a_change(tmp_path):
    def write(name, *records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    base = write("a.jsonl", {"loss": 3.0, "tokens": [5, 6], "tag": "x", "ok": True},
                 {"loss": -2.0})
    same = write("b.jsonl", {"loss": 3.0, "tokens": [5, 6], "tag": "y", "ok": False},
                 {"loss": -2.0})
    noise = write("c.jsonl", {"loss": math.nextafter(3.0, 4.0), "tokens": [5, 6]},
                  {"loss": -2.0})
    moved = write("d.jsonl", {"loss": 3.0, "tokens": [5, 7]}, {"loss": -2.5})
    longer = write("e.jsonl", {"loss": 3.0, "tokens": [5, 6, 2]}, {"loss": -2.0})
    assert same_bytes.numeric_fields(base) == {
        "line 1.loss": 3.0, "line 1.tokens[0]": 5.0, "line 1.tokens[1]": 6.0,
        "line 2.loss": -2.0}  # strings and booleans are not numbers
    assert same_bytes.largest_relative_difference(base, same) == (0.0, None)
    gap, where = same_bytes.largest_relative_difference(base, noise)
    assert 0.0 < gap <= 2 ** -52 and where == "line 1.loss"
    assert same_bytes.largest_relative_difference(base, moved) == (0.2, "line 2.loss")
    assert same_bytes.largest_relative_difference(base, longer) == (math.inf,
                                                                    "line 1.tokens[2]")
    # a JSON file is one document, however many lines it spans
    doc = tmp_path / "r.json"
    doc.write_text(json.dumps({"ppl": 8.0, "n": 4}, indent=1))
    assert same_bytes.numeric_fields(doc) == {".ppl": 8.0, ".n": 4.0}


def test_the_comparison_prints_the_largest_relative_difference(capsys):
    parent = {"x/a.jsonl": "1" * 64, "x/b.bin": "2" * 64, "x/c.json": "3" * 64}
    change = {"x/a.jsonl": "4" * 64, "x/b.bin": "5" * 64, "x/c.json": "6" * 64}
    gaps = {"x/a.jsonl": (1.5e-16, "line 3.loss"), "x/c.json": (0.0, None)}
    assert same_bytes.report({"parent": parent, "change": change}, gaps) == 1
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("differs:")] == [
        "differs: x/a.jsonl (largest relative difference 1.5e-16 over its numbers, "
        "at line 3.loss)",
        "differs: x/b.bin",
        "differs: x/c.json (largest relative difference 0 over its numbers)"]


def test_main_runs_each_side_from_its_own_copy(monkeypatch, capsys):
    exported, ran = [], []
    monkeypatch.setattr(same_bytes, "_git", lambda *args: f"sha-of-{args[-1]}")
    monkeypatch.setattr(same_bytes, "_export", lambda sha, dest: exported.append((sha, dest.name)))

    def fake_side(root, out):
        ran.append((root.name, out.name))
        (out / "x").mkdir(parents=True)
        value = 4.0 if root.name == "parent" else 5.0
        (out / "x" / "b.jsonl").write_text(json.dumps({"loss": value}) + "\n")
        return {"x/a": ("1" if root.name == "parent" else "2") * 64,
                "x/b.jsonl": ("3" if root.name == "parent" else "4") * 64}

    monkeypatch.setattr(same_bytes, "side_digests", fake_side)
    assert same_bytes.main(["--parent", "p1", "--change", "c1"]) == 1
    assert exported == [("sha-of-p1", "parent"), ("sha-of-c1", "change")]
    assert ran == [("parent", "parent-out"), ("change", "change-out")]
    out = capsys.readouterr().out
    assert "parent sha-of-p1" in out and "differs: x/a\n" in out
    # the gap is read from the sides' own files, before they are removed
    assert "differs: x/b.jsonl (largest relative difference 0.2 over its numbers, " \
        "at line 1.loss)" in out
