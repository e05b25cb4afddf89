"""Encoder, heads, latent prior, and decoder contracts with frozen values."""
from __future__ import annotations

import math

import numpy as np
import pytest

from spi import autodiff as ad
from spi.config import ModelConfig
from spi.errors import ContractError
from spi import model, verify
from spi.model import (BOS, EOS, PAD, SEP, DialogueExample, ModelParams, Vocab,
                       _decoder_inputs, _decoder_step, decode_logprob, decoder_lanes,
                       decoder_start, encode_batch, encode_context, head_logits,
                       latent_prior_log_density, latent_prior_mean, output_logits,
                       param_shapes, prior_scores)


def tiny_cfg(vocab_size=8, **kw):
    base = dict(embed_dim=4, hidden_dim=5, att_dim=3, dec_hidden_dim=5,
                latent_dim=2, max_history=8, max_candidate=6, max_response=8)
    base.update(kw)
    return ModelConfig(vocab_size=vocab_size, **base)


def zero_params(cfg):
    arrays = {name: np.zeros(shape) for name, shape in param_shapes(cfg)}
    return ModelParams.from_arrays(cfg, arrays)


def random_params(cfg, seed=0):
    return ModelParams.init(cfg, seed=seed)


def make_example(hist=(4, 5), cands=((6, 7), (5, 4)), gold=0, resp=(6, 7, EOS)):
    return DialogueExample(history=list(hist),
                           candidates=[list(c) for c in cands],
                           gold_index=gold, response=list(resp))


class TestVocab:
    def test_reserved_ids_come_first(self):
        v = Vocab.build(["alpha", "beta"])
        assert v.size == 6
        assert v.tokens[:4] == ("<pad>", "<bos>", "<eos>", "<sep>")
        assert (PAD, BOS, EOS, SEP) == (0, 1, 2, 3)

    def test_duplicate_word_rejected(self):
        with pytest.raises(ContractError):
            Vocab.build(["alpha", "alpha"])

    def test_word_clashing_with_reserved_rejected(self):
        with pytest.raises(ContractError):
            Vocab.build(["<pad>"])


class TestExampleValidation:
    def test_valid_example_passes(self):
        make_example().validate(8)

    def test_no_candidates_rejected(self):
        with pytest.raises(ContractError):
            make_example(cands=()).validate(8)

    def test_gold_index_out_of_range(self):
        with pytest.raises(ContractError, match="gold_index"):
            make_example(gold=2).validate(8)

    def test_gold_may_be_none(self):
        make_example(gold=None).validate(8)

    def test_response_must_end_with_eos(self):
        with pytest.raises(ContractError):
            make_example(resp=(6, 7)).validate(8)

    def test_token_out_of_vocab_named(self):
        with pytest.raises(ContractError, match="history"):
            make_example(hist=(9,)).validate(8)

    def test_empty_history_with_an_empty_candidate_rejected(self):
        # the encoder would have no token to read for that candidate
        with pytest.raises(ContractError, match="candidate 1 is empty"):
            make_example(hist=(), cands=((6, 7), ())).validate(8)

    def test_one_of_history_and_candidate_may_be_empty(self):
        make_example(hist=()).validate(8)
        make_example(cands=((6, 7), ())).validate(8)


class TestParams:
    def test_biases_start_at_zero(self):
        p = random_params(tiny_cfg())
        assert np.all(p["enc_b"].data == 0.0)
        assert np.all(p["out_b"].data == 0.0)
        assert not np.all(p["enc_wx"].data == 0.0)

    def test_init_is_seed_deterministic(self):
        a = random_params(tiny_cfg(), seed=3)
        b = random_params(tiny_cfg(), seed=3)
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_from_arrays_missing_tensor_rejected(self):
        cfg = tiny_cfg()
        arrays = {name: np.zeros(shape) for name, shape in param_shapes(cfg)}
        del arrays["out_w"]
        with pytest.raises(ContractError, match="out_w"):
            ModelParams.from_arrays(cfg, arrays)

    def test_from_arrays_wrong_shape_rejected(self):
        cfg = tiny_cfg()
        arrays = {name: np.zeros(shape) for name, shape in param_shapes(cfg)}
        arrays["embed"] = np.zeros((3, 3))
        with pytest.raises(ContractError, match="embed"):
            ModelParams.from_arrays(cfg, arrays)

    def test_from_arrays_extra_tensor_rejected(self):
        cfg = tiny_cfg()
        arrays = {name: np.zeros(shape) for name, shape in param_shapes(cfg)}
        arrays["stray"] = np.zeros(2)
        with pytest.raises(ContractError, match="stray"):
            ModelParams.from_arrays(cfg, arrays)

    def test_copy_is_deep(self):
        p = random_params(tiny_cfg())
        q = p.copy()
        q["embed"].data[0, 0] += 1.0
        assert p["embed"].data[0, 0] != q["embed"].data[0, 0]

    def test_one_selection_head_in_23_tensors(self):
        names = [name for name, _ in param_shapes(tiny_cfg())]
        assert len(names) == len(set(names)) == 23
        assert "init_w" in names and not any(name.startswith("kprior") for name in names)


class TestEncoder:
    def test_zero_weights_give_zero_states(self):
        p = zero_params(tiny_cfg())
        enc = encode_context(p, make_example(), [0])[0]
        assert np.all(enc.states.data == 0.0)
        assert np.all(enc.pooled.data == 0.0)

    def test_state_count_covers_history_sep_candidate(self):
        p = random_params(tiny_cfg())
        ex = make_example(hist=(4, 5, 6), cands=((7, 4),))
        enc = encode_context(p, ex, [0])[0]
        assert enc.states.shape == (3 + 1 + 2, 5)

    def test_repeated_encode_is_bit_identical(self):
        p = random_params(tiny_cfg())
        a = encode_context(p, make_example(), [1])[0]
        b = encode_context(p, make_example(), [1])[0]
        assert np.array_equal(a.pooled.data, b.pooled.data)

    def test_perturbing_candidate_token_changes_pooled(self):
        p = random_params(tiny_cfg())
        a = encode_context(p, make_example(cands=((6, 7),)), [0])[0]
        b = encode_context(p, make_example(cands=((6, 5),)), [0])[0]
        assert not np.array_equal(a.pooled.data, b.pooled.data)

    def test_history_keeps_most_recent_tokens(self):
        p = random_params(tiny_cfg(max_history=3))
        long = make_example(hist=(7, 6, 4, 5, 6))
        short = make_example(hist=(4, 5, 6))
        a = encode_context(p, long, [0])[0]
        b = encode_context(p, short, [0])[0]
        assert np.array_equal(a.pooled.data, b.pooled.data)

    def test_candidate_keeps_its_head(self):
        p = random_params(tiny_cfg(max_candidate=2))
        a = encode_context(p, make_example(cands=((6, 7, 4, 5),)), [0])[0]
        b = encode_context(p, make_example(cands=((6, 7),)), [0])[0]
        assert np.array_equal(a.pooled.data, b.pooled.data)

    def test_candidate_index_out_of_range(self):
        p = random_params(tiny_cfg())
        with pytest.raises(ContractError):
            encode_context(p, make_example(), [2])

    def test_empty_history_with_candidate_is_fine(self):
        p = random_params(tiny_cfg())
        enc = encode_context(p, make_example(hist=()), [0])[0]
        assert enc.states.shape[0] == 3

    def test_empty_history_and_empty_candidate_rejected(self):
        p = random_params(tiny_cfg())
        with pytest.raises(ContractError):
            encode_context(p, make_example(hist=(), cands=((),)), [0])

    def test_token_outside_vocab_rejected(self):
        p = random_params(tiny_cfg())
        with pytest.raises(ContractError):
            encode_context(p, make_example(hist=(11,)), [0])

    @pytest.mark.parametrize("token", ["a", 4.0, None, True])
    def test_non_integer_token_rejected(self, token):
        p = random_params(tiny_cfg())
        with pytest.raises(ContractError, match="not an integer"):
            encode_context(p, make_example(hist=(4, token)), [0])


def initializer_scores(params, example):
    """The ``prior_scores`` of one example's candidates: the head's logits."""
    return prior_scores(params, [encode_context(params, example)])[0]


class TestHeads:
    def test_zero_head_scores_zero(self):
        p = random_params(tiny_cfg())
        p["init_w"].data[:] = 0.0
        p["init_b"].data[()] = 0.0
        scores = initializer_scores(p, make_example())
        np.testing.assert_allclose(scores, [0.0, 0.0], atol=1e-15)

    def test_prior_softmax_sums_to_one(self):
        p = random_params(tiny_cfg(), seed=4)
        logits = head_logits(p, encode_context(p, make_example()))
        weights = ad.softmax(logits)
        assert abs(float(weights.data.sum()) - 1.0) <= 1e-12

    def test_single_candidate_takes_full_mass(self):
        p = random_params(tiny_cfg())
        ex = make_example(cands=((6, 7),), gold=0)
        weights = ad.softmax(head_logits(p, encode_context(p, ex)))
        np.testing.assert_allclose(weights.data, [1.0], atol=1e-15)

    def test_equal_candidates_get_equal_logits(self):
        # at hidden 8 a matrix product over three rows rounds rows 0 and 2
        # apart, though equal, unless they are one shared row
        p = random_params(tiny_cfg(hidden_dim=8), seed=4)
        ex = make_example(cands=((6, 7), (5, 4), (6, 7)))
        logits = head_logits(p, encode_context(p, ex)).data
        assert logits[0] == logits[2]
        want = [verify._naive_pooled(p, ex, i) @ p["init_w"].data + p["init_b"].data
                for i in range(3)]
        np.testing.assert_allclose(logits, want, rtol=1e-12, atol=0.0)

    def test_logits_follow_the_requested_order(self):
        p = random_params(tiny_cfg(), seed=2)
        encs = encode_context(p, make_example(cands=((6, 7), (5, 4), (6, 7))))
        logits = head_logits(p, encs).data
        reordered = head_logits(p, [encs[2], encs[1], encs[2], encs[0]]).data
        np.testing.assert_array_equal(reordered, logits[[2, 1, 2, 0]])

    def test_saturated_scores_are_exact_and_warn_nothing(self):
        # a bias that saturates a sigmoid is a plain logit: the scores are it
        p = random_params(tiny_cfg())
        p["init_w"].data[:] = 0.0
        for bias in (1e4, -1e4):
            p["init_b"].data[()] = bias
            np.testing.assert_array_equal(initializer_scores(p, make_example()), [bias, bias])

    def test_prior_scores_split_one_head_product_by_example(self, monkeypatch):
        p = random_params(tiny_cfg(), seed=5)
        exs = [make_example(cands=((6, 7), (5, 4))), make_example(cands=((4,), (7, 6), (6,)))]
        encodings = encode_batch(p, exs)
        calls = []
        real = model.head_logits

        def counted(params, encs):
            calls.append(len(encs))
            return real(params, encs)

        monkeypatch.setattr(model, "head_logits", counted)
        flat = [enc for encs in encodings for enc in encs]
        scores = prior_scores(p, encodings)
        assert calls == [5]
        x = real(p, flat).data
        assert [list(s) for s in scores] == [list(x[:2]), list(x[2:])]
        assert prior_scores(p, []) == []


class TestLatentPrior:
    def test_zero_weights_give_zero_mean(self):
        p = zero_params(tiny_cfg())
        mu = latent_prior_mean(p, make_example(), 0)
        assert np.all(mu.data == 0.0)

    def test_log_density_peaks_at_mean(self):
        p = random_params(tiny_cfg())
        mu = latent_prior_mean(p, make_example(), 0)
        at_mu = latent_prior_log_density(mu, mu.data.copy())
        assert float(at_mu.data) == 0.0

    def test_unit_offset_costs_exactly_half(self):
        p = random_params(tiny_cfg())
        mu = latent_prior_mean(p, make_example(), 0)
        shifted = mu.data.copy()
        shifted[0] += 1.0
        at_mu = float(latent_prior_log_density(mu, mu.data.copy()).data)
        off = float(latent_prior_log_density(mu, shifted).data)
        assert at_mu - off == pytest.approx(0.5, abs=1e-12)

    def test_gradient_wrt_latent_is_mean_minus_z(self):
        p = random_params(tiny_cfg())
        rng = np.random.default_rng(3)
        z = rng.normal(size=2)
        with ad.Tape() as tape:
            mu = latent_prior_mean(p, make_example(), 0)
            zt = ad.Tensor(z, name="z", trainable=True)
            out = latent_prior_log_density(mu, zt)
            grads = ad.backward(tape, out)
        np.testing.assert_allclose(grads["z"], mu.data - z, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        p = random_params(tiny_cfg())
        mu = latent_prior_mean(p, make_example(), 0)
        with pytest.raises(ContractError):
            latent_prior_log_density(mu, np.zeros(3))


class TestDecoder:
    def test_zero_weights_score_uniformly(self):
        cfg = tiny_cfg(vocab_size=8)
        p = zero_params(cfg)
        ex = make_example(resp=(4, 5, EOS))
        lp = decode_logprob(p, ex, 0, np.zeros(cfg.latent_dim))
        assert float(lp.data) == pytest.approx(-3.0 * math.log(8.0), abs=1e-12)

    def test_step_and_logprob_agree(self):
        cfg = tiny_cfg()
        p = random_params(cfg, seed=5)
        ex = make_example(resp=(6, 4, 7, EOS))
        rng = np.random.default_rng(1)
        z = rng.normal(size=cfg.latent_dim)
        cur = decoder_start(p, decoder_lanes(p, encode_context(p, ex, [0])), z[None])
        total = 0.0
        prev = BOS
        for target in ex.response:
            # a lone lane steps on its int id, as a greedy decode's does
            cur = _decoder_step(p, cur, _decoder_inputs(p, prev))
            logits = output_logits(p, cur.state, cur.ctx).data
            logits = logits - logits.max()
            total += float(logits[target] - np.log(np.exp(logits).sum()))
            prev = target
        lp = float(decode_logprob(p, ex, 0, z).data)
        assert abs(total - lp) <= 1e-10

    def test_logprob_is_negative(self):
        cfg = tiny_cfg()
        p = random_params(cfg, seed=2)
        lp = decode_logprob(p, make_example(), 0, np.zeros(cfg.latent_dim))
        assert float(lp.data) < 0.0

    def test_appending_a_token_cannot_raise_logprob(self):
        cfg = tiny_cfg()
        p = random_params(cfg, seed=8)
        z = np.zeros(cfg.latent_dim)
        short = make_example(resp=(6, 4))
        longer = make_example(resp=(6, 4, 7))
        assert float(decode_logprob(p, longer, 0, z).data) <= \
            float(decode_logprob(p, short, 0, z).data)

    def test_padding_after_eos_is_ignored(self):
        cfg = tiny_cfg()
        p = random_params(cfg, seed=6)
        z = np.full(cfg.latent_dim, 0.3)
        bare = make_example(resp=(6, 7, EOS))
        padded = make_example(resp=(6, 7, EOS, PAD, PAD))
        a = float(decode_logprob(p, bare, 0, z).data)
        b = float(decode_logprob(p, padded, 0, z).data)
        assert a == b

    def test_latent_moves_the_distribution(self):
        cfg = tiny_cfg()
        p = random_params(cfg, seed=7)
        ex = make_example()
        a = float(decode_logprob(p, ex, 0, np.zeros(cfg.latent_dim)).data)
        b = float(decode_logprob(p, ex, 0, np.full(cfg.latent_dim, 2.0)).data)
        assert a != b

    def test_latent_shape_checked(self):
        cfg = tiny_cfg()
        p = random_params(cfg)
        with pytest.raises(ContractError):
            decode_logprob(p, make_example(), 0, np.zeros(cfg.latent_dim + 1))

    def test_response_over_cap_rejected(self):
        cfg = tiny_cfg(max_response=3)
        p = random_params(cfg)
        ex = make_example(resp=(4, 5, 6, 7, EOS))
        with pytest.raises(ContractError, match="cap"):
            decode_logprob(p, ex, 0, np.zeros(cfg.latent_dim))

    def test_padding_does_not_trip_the_cap(self):
        cfg = tiny_cfg(max_response=3)
        p = random_params(cfg)
        ex = make_example(resp=(4, 5, EOS, PAD, PAD, PAD, PAD))
        lp = decode_logprob(p, ex, 0, np.zeros(cfg.latent_dim))
        assert np.isfinite(lp.data)

    def test_decoder_token_out_of_vocab(self):
        # a teacher-forced target is checked once, before the decoder reads it
        cfg = tiny_cfg()
        p = random_params(cfg)
        ex = make_example(resp=(4, cfg.vocab_size, EOS))
        with pytest.raises(ContractError,
                           match=f"^response token id {cfg.vocab_size} outside vocabulary"):
            decode_logprob(p, ex, 0, np.zeros(cfg.latent_dim))
