"""Ascent and cross-entropy steps, the loop, and the metrics log."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from spi import autodiff as ad
from spi import training, verify
from spi.autodiff import Tape, Tensor
from spi.checkpoint import checkpoint_bytes
from spi.config import ModelConfig, SpiConfig, derived_rng
from spi.errors import ContractError, NumericError
from spi.model import (EOS, DialogueExample, LatentPair, ModelParams, encode_batch,
                       latent_prior_log_density, latent_prior_mean)
from spi.training import (head_ce_loss, initializer_ce_step,
                          mle_step, multi_hot_labels, prior_ce_step,
                          surrogate_objective, train,
                          validation_loss)


def tiny_cfg(vocab_size=10):
    return ModelConfig(vocab_size=vocab_size, embed_dim=4, hidden_dim=5,
                       att_dim=3, dec_hidden_dim=5, latent_dim=2,
                       max_history=8, max_candidate=6, max_response=8)


def run_config(**kw):
    base = dict(model=tiny_cfg(), top_s=2, langevin_steps=2, batch_size=4,
                epochs=2, seed=3)
    base.update(kw)
    return SpiConfig(**base)


def make_example(cands=((6, 7), (7, 6)), hist=(4, 5), resp=(6, 7, EOS), gold=0):
    return DialogueExample(history=list(hist),
                           candidates=[list(c) for c in cands],
                           gold_index=gold, response=list(resp))


def objective_value(params, example, s, z, prior) -> float:
    """The surrogate objective's value, checked finite."""
    value = float(surrogate_objective(params, example, s, z, prior).data)
    ad.check_finite(value, "surrogate objective")
    return value


def snapshot(params):
    return {name: t.data.copy() for name, t in params.items()}


def changed_names(params, before):
    return {name for name, t in params.items()
            if not np.array_equal(t.data, before[name])}


class TestLabels:
    def test_selected_equals_gold_gives_one_hot(self):
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)), gold=1)
        np.testing.assert_array_equal(multi_hot_labels(ex, 1), [0.0, 1.0, 0.0])

    def test_disagreement_gives_two_ones(self):
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)), gold=1)
        np.testing.assert_array_equal(multi_hot_labels(ex, 2), [0.0, 1.0, 1.0])

    def test_unannotated_example_marks_only_the_pick(self):
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)), gold=None)
        np.testing.assert_array_equal(multi_hot_labels(ex, 2), [0.0, 0.0, 1.0])


class TestHeadCrossEntropy:
    @staticmethod
    def loss(p, batch, labels, head):
        """``head_ce_loss`` over the batch's pass under constant weights."""
        return head_ce_loss(p, batch, labels, head, encode_batch(p.constant(), batch))

    def test_indifferent_head_on_one_hot_pair_costs_two_log_two(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        p["init_w"].data[:] = 0.0
        p["init_b"].data[()] = 0.0
        ex = make_example()
        loss = self.loss(p, [ex], [np.array([1.0, 0.0])], "initializer")
        assert float(loss.data) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_saturated_correct_prediction_costs_nothing(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        p["init_w"].data[:] = 0.0
        p["init_b"].data[()] = 40.0
        ex = make_example()
        loss = self.loss(p, [ex], [np.array([1.0, 1.0])], "initializer")
        assert 0.0 <= float(loss.data) < 1e-10

    def test_batch_mean_scaling(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        p["init_w"].data[:] = 0.0
        p["init_b"].data[()] = 0.0
        ex = make_example()
        one = self.loss(p, [ex], [np.array([1.0, 0.0])], "initializer")
        two = self.loss(p, [ex, ex],
                           [np.array([1.0, 0.0]), np.array([1.0, 0.0])],
                           "initializer")
        assert float(one.data) == pytest.approx(float(two.data), abs=1e-12)

    @pytest.mark.parametrize("head", ["initializer", "knowledge_prior"])
    def test_matches_plain_numpy_on_a_ragged_batch(self, head):
        cfg = verify._tiny_model_config()
        p = ModelParams.init(cfg, seed=4)
        rng = derived_rng(31, 1)
        batch = [verify._ragged_example(rng, cfg, hist_len=n) for n in (1, 3, 10)]
        labels = [multi_hot_labels(ex, int(rng.integers(len(ex.candidates)))) for ex in batch]
        w_name, b_name = p.head_names(head)
        want = 0.0
        for ex, y in zip(batch, labels):
            x = np.array([verify._naive_pooled(p, ex, i) @ p[w_name].data + p[b_name].data
                          for i in range(len(ex.candidates))])
            sig = 1.0 / (1.0 + np.exp(-x))
            want -= float((y * np.log(sig) + (1.0 - y) * np.log(1.0 - sig)).sum())
        got = float(self.loss(p, batch, labels, head).data)
        assert got == pytest.approx(want / len(batch), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("head", ["initializer", "knowledge_prior"])
    def test_tape_does_not_grow_with_the_batch(self, head):
        p = ModelParams.init(tiny_cfg(), seed=1)
        examples = [make_example(), make_example(cands=((5, 4), (4, 5), (6, 6)), gold=2)]

        def nodes(n):
            batch = [examples[i % 2] for i in range(n)]
            labels = [multi_hot_labels(ex, 0) for ex in batch]
            with Tape() as tape:
                self.loss(p, batch, labels, head)
            return len(tape)

        assert nodes(1) == nodes(16)

    def test_label_length_mismatch_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        with pytest.raises(ContractError):
            self.loss(p, [make_example()], [np.array([1.0])], "initializer")

    def test_empty_batch_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=1)
        with pytest.raises(ContractError):
            self.loss(p, [], [], "initializer")

    def test_initializer_step_touches_only_its_head(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        before = snapshot(p)
        ex = make_example()
        initializer_ce_step(p, [ex], [np.array([1.0, 0.0])], 0.1, encode_batch(p, [ex]))
        assert changed_names(p, before) == {"init_w", "init_b"}

    def test_prior_step_touches_only_its_head(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        before = snapshot(p)
        ex = make_example()
        prior_ce_step(p, [ex], [np.array([1.0, 0.0])], 0.1, encode_batch(p, [ex]))
        assert changed_names(p, before) == {"kprior_w", "kprior_b"}

    def test_zero_rate_leaves_weights_bit_identical(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        before = snapshot(p)
        ex = make_example()
        loss = initializer_ce_step(p, [ex], [np.array([1.0, 0.0])], 0.0, encode_batch(p, [ex]))
        assert changed_names(p, before) == set()
        assert np.isfinite(loss)

    def test_descent_reduces_the_loss(self):
        p = ModelParams.init(tiny_cfg(), seed=2)
        ex = make_example()
        labels = [np.array([1.0, 0.0])]
        encs = encode_batch(p, [ex])
        first = initializer_ce_step(p, [ex], labels, 0.5, encs)
        for _ in range(20):
            last = initializer_ce_step(p, [ex], labels, 0.5, encs)
        assert last < first


class TestSurrogateObjective:
    def test_learnable_adds_exactly_the_prior_logprob(self):
        p = ModelParams.init(tiny_cfg(), seed=4)
        ex = make_example(cands=((6, 7), (7, 6), (5, 4)))
        z = np.full(2, 0.3)
        plain = objective_value(p, ex, 1, z, "uniform")
        tilted = objective_value(p, ex, 1, z, "learnable")
        from spi.model import encode_context, prior_scores
        logits = prior_scores(p, [encode_context(p, ex)], prior="learnable")[0]
        expected = logits[1] - math.log(np.exp(logits).sum())
        assert tilted - plain == pytest.approx(expected, abs=1e-10)

    def test_unknown_prior_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=4)
        with pytest.raises(ContractError):
            surrogate_objective(p, make_example(), 0, np.zeros(2), "flat")

    def test_latent_at_prior_mean_zeroes_the_mean_head_gradient(self):
        p = ModelParams.init(tiny_cfg(), seed=4)
        ex = make_example()
        mu_value = latent_prior_mean(p, ex, 0).data
        with Tape() as tape:
            mu = latent_prior_mean(p, ex, 0)
            out = latent_prior_log_density(mu, Tensor(mu_value))
            grads = ad.backward(tape, out)
        np.testing.assert_array_equal(grads["zprior_w"], np.zeros_like(grads["zprior_w"]))
        np.testing.assert_array_equal(grads["zprior_b"], np.zeros_like(grads["zprior_b"]))


class TestMleStep:
    def batch_and_latents(self, p):
        batch = [make_example(),
                 make_example(cands=((5, 4), (4, 5)), resp=(5, 4, EOS), gold=1),
                 make_example(cands=((7, 5), (6, 6)), resp=(7, EOS))]
        rng = np.random.default_rng(8)
        latents = [LatentPair(s=ex.gold_index, z=rng.normal(size=2)) for ex in batch]
        return batch, latents

    def test_zero_rate_leaves_weights_bit_identical(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        batch, latents = self.batch_and_latents(p)
        before = snapshot(p)
        loss = mle_step(p, batch, run_config(lr_model=0.0), latents=latents)
        assert changed_names(p, before) == set()
        assert np.isfinite(loss)

    def test_uniform_mode_never_moves_selection_heads(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        batch, latents = self.batch_and_latents(p)
        before = snapshot(p)
        mle_step(p, batch, run_config(), latents=latents)
        untouched = {"init_w", "init_b", "kprior_w", "kprior_b"}
        assert changed_names(p, before).isdisjoint(untouched)
        assert "dec_wx" in changed_names(p, before)

    def test_learnable_mode_moves_the_prior_head_but_not_the_initializer(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        batch, latents = self.batch_and_latents(p)
        before = snapshot(p)
        mle_step(p, batch, run_config(prior="learnable"), latents=latents)
        moved = changed_names(p, before)
        assert {"kprior_w", "kprior_b"} <= moved
        assert {"init_w", "init_b"}.isdisjoint(moved)

    def test_loss_is_negative_mean_objective(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        batch, latents = self.batch_and_latents(p)
        want = -np.mean([objective_value(p, ex, lat.s, lat.z, "uniform")
                         for ex, lat in zip(batch, latents)])
        got = mle_step(p, batch, run_config(lr_model=0.0), latents=latents)
        assert got == pytest.approx(want, abs=1e-12)

    def test_applied_update_matches_finite_differences(self):
        cfg = run_config(lr_model=0.05)
        p = ModelParams.init(tiny_cfg(), seed=5)
        batch, latents = self.batch_and_latents(p)

        def mean_objective(pp):
            return np.mean([objective_value(pp, ex, lat.s, lat.z, "uniform")
                            for ex, lat in zip(batch, latents)])

        before = snapshot(p)
        mle_step(p, batch, cfg, latents=latents)
        h = 1e-5
        for name in ("zprior_w", "out_b"):
            applied = (p[name].data - before[name]) / cfg.lr_model
            probe = ModelParams.init(tiny_cfg(), seed=5)
            flat = probe[name].data.reshape(-1)
            fd = np.zeros(flat.size)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + h
                hi = mean_objective(probe)
                flat[j] = keep - h
                lo = mean_objective(probe)
                flat[j] = keep
                fd[j] = (hi - lo) / (2 * h)
            np.testing.assert_allclose(applied.reshape(-1), fd, rtol=1e-4, atol=1e-8)

    def test_empty_batch_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        with pytest.raises(ContractError):
            mle_step(p, [], run_config(), latents=[])

    def test_misaligned_latents_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=5)
        with pytest.raises(ContractError):
            mle_step(p, [make_example()], run_config(),
                     latents=[LatentPair(0, np.zeros(2)), LatentPair(0, np.zeros(2))])


class TestValidationLoss:
    def test_fixed_epoch_seed_makes_it_repeatable(self):
        p = ModelParams.init(tiny_cfg(), seed=6)
        examples = [make_example(), make_example(cands=((5, 4), (4, 5)), gold=1)]
        cfg = run_config()
        a = validation_loss(p, examples, cfg, epoch=0)
        b = validation_loss(p, examples, cfg, epoch=0)
        assert a == b

    def test_empty_validation_set_rejected(self):
        p = ModelParams.init(tiny_cfg(), seed=6)
        with pytest.raises(ContractError):
            validation_loss(p, [], run_config(), epoch=0)


class TestTrainLoop:
    def corpus_config(self, tiny_corpus, **kw):
        base = dict(model=ModelConfig(
            vocab_size=tiny_corpus.vocab.size, embed_dim=4, hidden_dim=5,
            att_dim=3, dec_hidden_dim=5, latent_dim=2, max_history=8,
            max_candidate=6, max_response=8),
            top_s=2, langevin_steps=2, batch_size=4, epochs=2, seed=3)
        base.update(kw)
        return SpiConfig(**base)

    def test_records_and_timings_line_up(self, tiny_corpus):
        cfg = self.corpus_config(tiny_corpus)
        result = train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True)
        assert len(result.records) == cfg.epochs
        assert len(result.epoch_seconds) == cfg.epochs
        for epoch, record in enumerate(result.records):
            assert record["epoch"] == epoch
            assert set(record) == {"epoch", "surrogate_loss", "ce_loss",
                                   "validation_loss", "selection_accuracy"}

    def test_best_epoch_minimizes_validation_loss(self, tiny_corpus):
        cfg = self.corpus_config(tiny_corpus, epochs=3)
        result = train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True)
        losses = [r["validation_loss"] for r in result.records]
        assert result.best_epoch == int(np.argmin(losses))
        assert result.best_validation_loss == min(losses)

    def test_zero_epochs_returns_the_initialization(self, tiny_corpus):
        cfg = self.corpus_config(tiny_corpus, epochs=0)
        result = train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True)
        init = ModelParams.init(cfg.model, seed=cfg.seed)
        for name in init.names():
            assert np.array_equal(result.best_params[name].data, init[name].data)
        assert result.best_epoch == 0
        assert math.isnan(result.best_validation_loss)
        assert result.records == []

    def test_same_seed_trains_bit_identically(self, tiny_corpus):
        cfg = self.corpus_config(tiny_corpus)
        a = train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True)
        b = train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True)
        assert a.records == b.records
        for name in a.params.names():
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_sampled_selection_trains_bit_identically_and_apart_from_greedy(self, tiny_corpus):
        cfg = self.corpus_config(tiny_corpus, selection="sampled", temperature=5.0)
        a, b = (train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True) for _ in range(2))
        for got, want in ((a.params, b.params), (a.best_params, b.best_params)):
            assert (checkpoint_bytes(got, cfg.fingerprint())
                    == checkpoint_bytes(want, cfg.fingerprint()))
        assert a.records == b.records and a.batch_losses == b.batch_losses
        # the picks are drawn, so the run moves apart from the greedy one
        greedy = train(tiny_corpus.train, tiny_corpus.valid, self.corpus_config(tiny_corpus),
                       quiet=True)
        assert a.batch_losses != greedy.batch_losses

    def test_metrics_log_is_seed_stable_and_parseable(self, tiny_corpus, tmp_path):
        cfg = self.corpus_config(tiny_corpus)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        train(tiny_corpus.train, tiny_corpus.valid, cfg, log_path=first, quiet=True)
        train(tiny_corpus.train, tiny_corpus.valid, cfg, log_path=second, quiet=True)
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert len(lines) == 1 + cfg.epochs
        head = json.loads(lines[0])
        assert head["config"]["seed"] == cfg.seed
        assert json.loads(lines[1])["epoch"] == 0

    def test_empty_training_set_rejected(self, tiny_corpus):
        with pytest.raises(ContractError):
            train([], tiny_corpus.valid, self.corpus_config(tiny_corpus), quiet=True)

    def test_numeric_failure_carries_epoch_and_batch(self, tiny_corpus, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericError("synthetic blowup")

        monkeypatch.setattr(training, "mle_step", boom)
        cfg = self.corpus_config(tiny_corpus)
        with pytest.raises(NumericError, match=r"epoch 0, batch 0: synthetic"):
            train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True)

    def test_result_exposes_batch_losses_per_epoch(self, tiny_corpus):
        cfg = self.corpus_config(tiny_corpus)
        result = train(tiny_corpus.train, tiny_corpus.valid, cfg, quiet=True)
        n_batches = math.ceil(len(tiny_corpus.train) / cfg.batch_size)
        assert [len(b) for b in result.batch_losses] == [n_batches] * cfg.epochs


@pytest.mark.parametrize("split", ["train", "valid"])
def test_a_response_past_the_cap_names_its_split_and_example_before_epoch_0(tiny_corpus,
                                                                           split, monkeypatch):
    from dataclasses import replace
    splits = {"train": list(tiny_corpus.train), "valid": list(tiny_corpus.valid)}
    splits[split][1] = replace(splits[split][1], response=[5] * 40 + [EOS])
    config = SpiConfig(model=ModelConfig(vocab_size=tiny_corpus.vocab.size), epochs=1)

    def encoded(*args, **kwargs):
        raise AssertionError("epoch 0 began before the responses were checked")

    monkeypatch.setattr(training, "encode_batch", encoded)
    with pytest.raises(ContractError, match=rf"^{split} example 1: response of length 41 "
                                            r"exceeds the cap 32$"):
        training.train(splits["train"], splits["valid"], config, quiet=True)
