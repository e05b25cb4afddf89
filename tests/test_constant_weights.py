"""The Langevin chain asks the decoder only for its gradient in the latent,
so it runs against a constant view of the weights: the same arrays, none of
them trainable. The z-gradient through that view is the full-tape one,
exactly, on ragged examples (empty and over-cap histories, empty, capped
and repeated candidates)."""
from __future__ import annotations

import numpy as np

from spi import autodiff as ad
from spi import verify
from spi.config import derived_rng
from spi.inference import decoder_grad_z, langevin_chain, langevin_infer_z
from spi.model import (ModelParams, decode_logprob, decode_plan, encode_context,
                       latent_prior_means)

CFG = verify._tiny_model_config()


def ragged_cases(n_seeds: int = 6):
    """(params, example, candidate index) over ragged examples; an empty
    history skips the empty candidate, which the encoder rejects alone."""
    for seed in range(n_seeds):
        rng = derived_rng(700 + seed, 1)
        params = ModelParams.init(CFG, seed=seed)
        for hist_len in (0, CFG.max_history + 3):
            example = verify._ragged_example(rng, CFG, hist_len)
            for s, cand in enumerate(example.candidates):
                if hist_len or cand:
                    yield params, example, s


def test_constant_view_shares_the_arrays_and_needs_no_gradient():
    params = ModelParams.init(CFG, seed=0)
    view = params.constant()
    assert view.names() == params.names()
    for name, t in view.items():
        assert t.data is params[name].data
        assert not t.trainable and not t.requires_grad
    assert all(t.trainable for _, t in params.items())


def test_z_gradient_through_the_constant_view_equals_the_full_tape():
    checked = 0
    for params, example, s in ragged_cases():
        z = derived_rng(checked, 2).normal(size=(1, CFG.latent_dim))
        view = params.constant()
        full = decoder_grad_z(params, decode_plan(params, [example], [s],
                                                  encode_context(params, example, [s])), z)
        lean = decoder_grad_z(view, decode_plan(view, [example], [s],
                                                encode_context(view, example, [s])), z)
        assert np.array_equal(lean, full)
        checked += 1
    assert checked >= 40


def test_lockstep_z_gradient_through_the_constant_view_equals_the_full_tape():
    def grad(params, example, indices, z, coeffs):
        with ad.Tape() as tape:
            zt = ad.Tensor(z, name="z", trainable=True)
            # encoded on the tape, so the full tape runs from the encoder on
            lanes = encode_context(params, example, indices)
            out = ad.matmul(decode_logprob(params, [example] * len(indices), indices, zt,
                                           encoded=lanes), ad.Tensor(coeffs))
            return ad.backward(tape, out)["z"]

    for seed in range(4):
        rng = derived_rng(800 + seed, 1)
        params = ModelParams.init(CFG, seed=seed)
        example = verify._ragged_example(rng, CFG, hist_len=CFG.max_history + 3)
        indices = [int(i) for i in rng.permutation(len(example.candidates))]
        # one latent per distinct candidate, so the repeated one shares its lane
        by_cand: dict[tuple, np.ndarray] = {}
        z = np.stack([by_cand.setdefault(tuple(example.candidates[s][:CFG.max_candidate]),
                                         rng.normal(size=CFG.latent_dim))
                      for s in indices])
        coeffs = rng.normal(size=len(indices))
        assert np.array_equal(grad(params.constant(), example, indices, z, coeffs),
                              grad(params, example, indices, z, coeffs))


def test_z_gradient_tape_holds_only_z_dependent_nodes():
    params = ModelParams.init(CFG, seed=3)
    example = verify._ragged_example(derived_rng(5, 1), CFG, hist_len=4)
    view = params.constant()
    enc = encode_context(params, example, [1])
    with ad.Tape() as tape:
        z = ad.Tensor(np.zeros((1, CFG.latent_dim)), name="z", trainable=True)
        grads = ad.backward(tape, ad.reduce_sum(decode_logprob(view, [example], [1], z,
                                                               encoded=enc)))
    with ad.Tape() as full:
        decode_logprob(params, [example], [1], np.zeros((1, CFG.latent_dim)), encoded=enc)
    assert set(grads) == {"z"}
    # the embedding lookups and the initial state do not depend on z
    assert not any(t is view["embed"] or t is view["dec_init_w"]
                   for _, inputs, _, _ in tape._nodes for t in inputs)
    assert 0 < len(tape) < len(full)


def test_langevin_chain_equals_the_full_tape_chain():
    for params, example, s in list(ragged_cases(n_seeds=2))[::3]:
        enc = encode_context(params, example, [s])
        mu = latent_prior_means(params, enc).data
        lean = langevin_infer_z(params, [example], [s], steps=4, step_size=0.1,
                                rng=[derived_rng(s, 3)], encoded=enc)
        plan = decode_plan(params, [example], [s], encoded=enc)
        full = langevin_chain(mu, lambda z: decoder_grad_z(params, plan, z),
                              steps=4, step_size=0.1, rng=[derived_rng(s, 3)])
        assert all(np.array_equal(a, b) for a, b in zip(lean.states, full.states))


def test_each_chain_makes_its_own_view(monkeypatch):
    made = []
    constant = ModelParams.constant

    def counting(self):
        made.append(self)
        return constant(self)

    monkeypatch.setattr(ModelParams, "constant", counting)
    params = ModelParams.init(CFG, seed=4)
    example = verify._ragged_example(derived_rng(6, 1), CFG, hist_len=3)
    enc = encode_context(params, example, [0])
    first = langevin_infer_z(params, [example], [0], steps=2, step_size=0.1, noise=False,
                             encoded=enc)
    # an in-place update between chains reaches the next chain's view
    params["zslot_w"].data[:] = 0.0
    second = langevin_infer_z(params, [example], [0], steps=2, step_size=0.1, noise=False,
                              encoded=enc)
    assert made == [params, params]
    mu = latent_prior_means(params, enc).data
    # with the latent detached from the decoder only the prior pulls z
    assert np.array_equal(second.states[1], mu)
    assert not np.array_equal(first.states[1], second.states[1])

