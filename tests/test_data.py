"""Synthetic corpus construction, determinism, and the disk round trip."""
from __future__ import annotations

import re

import pytest

from spi.data import (SyntheticSpec, example_to_record, generate_corpus,
                      load_corpus, oracle_select, plan_vocab, save_corpus)
from spi.errors import ContractError
from spi.model import EOS


def small_spec(**kw):
    base = dict(vocab_size=48, m_candidates=4, candidate_len=6, n_styles=2,
                rho=0.5, n_train=30, n_valid=10, n_test=10, history_len=6,
                seed=11)
    base.update(kw)
    return SyntheticSpec(**base)


class TestPlanVocab:
    def test_partition_covers_vocab_exactly(self):
        spec = small_spec()
        vocab, layout = plan_vocab(spec)
        flat = [t for pair in layout.frame_ids for t in pair]
        flat += list(layout.name_ids) + list(layout.content_ids)
        assert sorted(flat) == list(range(4, spec.vocab_size))
        assert vocab.size == spec.vocab_size

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ContractError, match="too small"):
            plan_vocab(small_spec(vocab_size=4))

    def test_vocab_must_seat_all_candidates(self):
        with pytest.raises(ContractError):
            plan_vocab(small_spec(vocab_size=20, m_candidates=8))

    @pytest.mark.parametrize("kw", [
        {"rho": -0.1}, {"rho": 1.5}, {"n_styles": 0},
        {"candidate_len": 1}, {"history_len": 0},
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ContractError):
            plan_vocab(small_spec(**kw))


class TestGeneration:
    def test_same_spec_same_examples(self):
        a = generate_corpus(small_spec())
        b = generate_corpus(small_spec())
        for split in ("train", "valid", "test"):
            assert [vars(x) for x in a.split(split)] == [vars(x) for x in b.split(split)]

    def test_different_seed_different_examples(self):
        a = generate_corpus(small_spec(seed=11))
        b = generate_corpus(small_spec(seed=12))
        assert [vars(x) for x in a.train] != [vars(x) for x in b.train]

    def test_split_sizes(self):
        c = generate_corpus(small_spec())
        assert (len(c.train), len(c.valid), len(c.test)) == (30, 10, 10)

    def test_every_example_validates(self):
        c = generate_corpus(small_spec())
        for ex in c.train + c.valid + c.test:
            ex.validate(c.vocab.size)
            assert len(ex.candidates) == c.spec.m_candidates
            assert ex.response[-1] == EOS

    def test_history_ends_with_gold_name_token(self):
        c = generate_corpus(small_spec())
        for ex in c.train:
            gold = ex.candidates[ex.gold_index]
            assert ex.history[-1] == gold[0]
            assert gold[0] in c.layout.name_ids

    def test_response_wraps_gold_content_in_a_frame(self):
        c = generate_corpus(small_spec())
        for ex in c.train:
            gold_body = ex.candidates[ex.gold_index][1:]
            assert ex.response[1:-2] == gold_body
            assert (ex.response[0], ex.response[-2]) in c.layout.frame_ids

    def test_distractors_differ_from_gold(self):
        c = generate_corpus(small_spec())
        for ex in c.train:
            gold = ex.candidates[ex.gold_index]
            for i, cand in enumerate(ex.candidates):
                if i != ex.gold_index:
                    assert cand != gold

    def test_rho_zero_shares_no_content_position(self):
        c = generate_corpus(small_spec(rho=0.0))
        for ex in c.train[:10]:
            gold = ex.candidates[ex.gold_index][1:]
            for i, cand in enumerate(ex.candidates):
                if i == ex.gold_index:
                    continue
                assert all(a != b for a, b in zip(cand[1:], gold))

    def test_rho_half_keeps_half_the_positions(self):
        c = generate_corpus(small_spec(rho=0.5, candidate_len=9))
        for ex in c.train[:10]:
            gold = ex.candidates[ex.gold_index][1:]
            for i, cand in enumerate(ex.candidates):
                if i == ex.gold_index:
                    continue
                shared = sum(a == b for a, b in zip(cand[1:], gold))
                assert shared == 4  # round(0.5 * 8)

    def test_test_topics_disjoint_from_train(self):
        c = generate_corpus(small_spec())
        train_names = {ex.history[-1] for ex in c.train + c.valid}
        test_names = {ex.history[-1] for ex in c.test}
        assert train_names.isdisjoint(test_names)

    def test_gold_index_is_not_constant(self):
        c = generate_corpus(small_spec())
        assert len({ex.gold_index for ex in c.train}) > 1


class TestOracle:
    def test_oracle_recovers_gold_everywhere(self):
        c = generate_corpus(small_spec())
        for ex in c.train + c.valid + c.test:
            assert oracle_select(ex, c.spec, c.layout) == ex.gold_index

    def test_oracle_returns_minus_one_without_a_match(self):
        c = generate_corpus(small_spec())
        ex = c.train[0]
        ex = type(ex)(history=ex.history, candidates=ex.candidates,
                      gold_index=ex.gold_index,
                      response=[c.layout.content_ids[0], EOS])
        assert oracle_select(ex, c.spec, c.layout) == -1


class TestDiskRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        c = generate_corpus(small_spec())
        save_corpus(c, tmp_path)
        again = load_corpus(tmp_path)
        assert again.spec == c.spec
        assert again.vocab.tokens == c.vocab.tokens
        assert again.layout == c.layout
        for split in ("train", "valid", "test"):
            assert [vars(x) for x in again.split(split)] == \
                [vars(x) for x in c.split(split)]

    def test_save_twice_writes_identical_bytes(self, tmp_path):
        c = generate_corpus(small_spec())
        a, b = tmp_path / "a", tmp_path / "b"
        save_corpus(c, a)
        save_corpus(c, b)
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl",
                     "vocab.json", "spec.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="vocab.json"):
            load_corpus(tmp_path / "nowhere")

    def test_corrupt_example_names_file_and_line(self, tmp_path):
        c = generate_corpus(small_spec())
        save_corpus(c, tmp_path)
        path = tmp_path / "valid.jsonl"
        lines = path.read_text().splitlines()
        record = example_to_record(c.valid[1])
        record["gold_index"] = len(record["candidates"])  # out of range
        import json
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=r"valid\.jsonl:2"):
            load_corpus(tmp_path)

    def test_malformed_json_line_names_file_and_line(self, tmp_path):
        save_corpus(generate_corpus(small_spec()), tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-3]  # cut the closing brackets
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=re.escape(f"{path}:3: malformed JSON")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("text", ['["<pad>", "<bos>"]', '{"words": []}',
                                      '{"tokens": "abc"}', '{"tokens": [1, 2]}', "{oops"],
                             ids=["list", "no-tokens", "string-tokens",
                                  "non-string-tokens", "bad-json"])
    def test_malformed_vocab_names_the_file(self, tmp_path, text):
        save_corpus(generate_corpus(small_spec()), tmp_path)
        path = tmp_path / "vocab.json"
        path.write_text(text)
        with pytest.raises(ContractError, match=re.escape(str(path))):
            load_corpus(tmp_path)

    def test_non_numeric_spec_value_names_file_and_line(self, tmp_path):
        save_corpus(generate_corpus(small_spec()), tmp_path)
        path = tmp_path / "spec.txt"
        lines = path.read_text().splitlines()
        assert lines[4].startswith("rho = ")
        lines[4] = "rho = half"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=re.escape(f"{path}:5: rho")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("field, value", [("history", ["a"]), ("response", [4.0, EOS]),
                                              ("candidates", [[5, None]]), ("gold_index", "0")],
                             ids=["string-token", "float-token", "null-token", "string-gold"])
    def test_non_integer_field_names_file_and_line(self, tmp_path, field, value):
        import json
        c = generate_corpus(small_spec())
        save_corpus(c, tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=re.escape(f"{path}:3: ")):
            load_corpus(tmp_path)

    def test_unencodable_example_names_file_and_line(self, tmp_path):
        import json
        save_corpus(generate_corpus(small_spec()), tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["history"] = []
        record["candidates"][1] = []
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=re.escape(f"{path}:3: candidate 1 is empty")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("name", ["spec.txt", "valid.jsonl"])
    def test_missing_file_names_the_file(self, tmp_path, name):
        save_corpus(generate_corpus(small_spec()), tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(ContractError, match=re.escape(str(tmp_path / name))):
            load_corpus(tmp_path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        save_corpus(generate_corpus(small_spec()), tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "")
        lines[3] = '{"history": [4], "candidates": [[5]], "gold_index": 3, "response": [2]}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=re.escape(f"{path}:4: ")):
            load_corpus(tmp_path)

    def test_unknown_split_name_rejected(self):
        c = generate_corpus(small_spec())
        with pytest.raises(ContractError):
            c.split("dev")
