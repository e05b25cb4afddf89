"""Self-check suites: gradient checking, Langevin moment matching against an
analytic Gaussian posterior, brute-force selection equivalence, lockstep
inference against batches of one, and determinism. The reference
computations here are written in plain numpy, independent of the autodiff
engine, so the two paths can disagree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tape, Tensor, backward, gradcheck, matmul, multiply, reduce_sum, tanh
from .checkpoint import checkpoint_bytes
from .config import ModelConfig, SpiConfig, derived_rng
from .data import SyntheticSpec, generate_corpus
from .errors import ContractError
from .inference import langevin_chain, select_knowledge_batch, sequential_posterior_infer
from .model import (BOS, EOS, DialogueExample, ModelParams, decode_logprob, encode_batch,
                    encode_context, latent_prior_log_density, latent_prior_mean,
                    latent_prior_means)
from .training import (head_ce_loss, multi_hot_labels, surrogate_objective,
                       surrogate_objectives, train)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# independent reference model (plain numpy, no tapes)


def _np_softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - np.max(v))
    return e / e.sum()


def _np_logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    return float(m + np.log(np.exp(v - m).sum()))


def _naive_states(params: ModelParams, example: DialogueExample, s: int) -> np.ndarray:
    """Reference encoder states, one row per token read: the history's most
    recent tokens, the separator, then the head of candidate ``s``."""
    cfg = params.cfg
    w = {k: t.data for k, t in params.tensors.items()}
    tokens = (list(example.history)[-cfg.max_history:] + [3]  # separator id
              + list(example.candidates[s])[:cfg.max_candidate])
    h = np.zeros(cfg.hidden_dim)
    states = []
    for tok in tokens:
        h = np.tanh(w["embed"][tok] @ w["enc_wx"] + h @ w["enc_wh"] + w["enc_b"])
        states.append(h)
    return np.array(states)


def _naive_pooled(params: ModelParams, example: DialogueExample, s: int) -> np.ndarray:
    return _naive_states(params, example, s).mean(axis=0)


def naive_response_logprob(params: ModelParams, example: DialogueExample,
                           s: int, z: np.ndarray) -> float:
    """Reference teacher-forced response log-probability, over the response
    up to and including its first EOS; what follows it is padding."""
    w = {k: t.data for k, t in params.tensors.items()}
    mat = _naive_states(params, example, s)
    slots = np.vstack([mat, np.asarray(z) @ w["zslot_w"] + w["zslot_b"]])
    proj = slots @ w["att_enc"]
    state = np.tanh(mat.mean(axis=0) @ w["dec_init_w"] + w["dec_init_b"])
    prev = BOS
    total = 0.0
    for target in example.response:
        q = state @ w["att_dec"] + w["att_b"]
        weights = _np_softmax(np.tanh(proj + q) @ w["att_v"])
        ctx = weights @ slots
        state = np.tanh(w["embed"][prev] @ w["dec_wx"] + ctx @ w["dec_wc"]
                        + state @ w["dec_wh"] + w["dec_b"])
        logits = state @ w["out_w"] + ctx @ w["out_c"] + w["out_b"]
        total += float(logits[target] - _np_logsumexp(logits))
        if target == EOS:
            break
        prev = int(target)
    return total


def naive_latent_mean(params: ModelParams, example: DialogueExample, s: int) -> np.ndarray:
    return _naive_pooled(params, example, s) @ params["zprior_w"].data + params["zprior_b"].data


def naive_prior_logits(params: ModelParams, example: DialogueExample) -> np.ndarray:
    """Reference selection-head logits, one per candidate."""
    w = params.tensors
    return np.array([
        _naive_pooled(params, example, i) @ w["init_w"].data + w["init_b"].data
        for i in range(len(example.candidates))])


def naive_top_s(params: ModelParams, example: DialogueExample, top_s: int) -> list[int]:
    """Reference top-S: the ``top_s`` highest head logits, ascending, the
    lowest index winning a tie."""
    keep = np.argsort(-naive_prior_logits(params, example), kind="stable")[:top_s]
    return sorted(int(i) for i in keep)


def naive_select(params: ModelParams, example: DialogueExample, prior: str,
                 top_s: int | None = None) -> int:
    """Brute-force posterior pick at the prior-mean latent over the
    reference top-S (``naive_top_s`` of min(``top_s``, M)), or over every
    candidate when ``top_s`` is None; the lowest index wins a tie."""
    m = len(example.candidates)
    subset = list(range(m)) if top_s is None else naive_top_s(params, example, min(top_s, m))
    extra = naive_prior_logits(params, example) if prior == "learnable" else np.zeros(m)
    raw = [extra[i] + naive_response_logprob(params, example, i,
                                             naive_latent_mean(params, example, i))
           for i in subset]
    return subset[int(np.argmax(raw))]


# ---------------------------------------------------------------------------
# gradient suite


def _tiny_model_config(vocab_size: int = 12) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, embed_dim=4, hidden_dim=5,
                       att_dim=3, dec_hidden_dim=5, latent_dim=2,
                       max_history=8, max_candidate=6, max_response=8)


def _random_example(rng: np.random.Generator, vocab_size: int, m: int = 3,
                    resp_len: int = 4, hist_len: int = 3,
                    cand_len: int = 3) -> DialogueExample:
    def draw(k: int) -> list[int]:
        return [int(t) for t in rng.integers(4, vocab_size, size=k)]

    return DialogueExample(history=draw(hist_len),
                           candidates=[draw(cand_len) for _ in range(m)],
                           gold_index=int(rng.integers(m)),
                           response=draw(max(resp_len - 1, 1)) + [EOS])


def _ragged_example(rng: np.random.Generator, cfg: ModelConfig,
                    hist_len: int) -> DialogueExample:
    """Candidates of ragged lengths, from empty to past the cap, one of them
    repeated, so the encoder's padded lanes and shared encodings are used."""
    def draw(k: int) -> list[int]:
        return [int(t) for t in rng.integers(4, cfg.vocab_size, size=k)]

    lengths = [0, 1, int(rng.integers(2, cfg.max_candidate + 1)), cfg.max_candidate + 2]
    candidates = [draw(k) for k in rng.permutation(lengths)]
    repeat = list(candidates[int(rng.integers(len(candidates)))])
    candidates.insert(int(rng.integers(len(candidates) + 1)), repeat)
    return DialogueExample(history=draw(hist_len), candidates=candidates,
                           gold_index=int(rng.integers(len(candidates))),
                           response=draw(int(rng.integers(1, 5))) + [EOS])


def _swap(params: ModelParams, name: str, tensor: Tensor) -> ModelParams:
    merged = dict(params.tensors)
    merged[name] = tensor
    return ModelParams(params.cfg, merged)


# (a, b, addend) shapes of a product with its tanh: no addend, one of the
# product's shape, a row bias, a 0-d one, and the rows an (m,) product is
# broadcast over; matrix and vector products
_FUSED_TANH_SHAPES = (((3, 4), (4, 2), None), ((4,), (4, 2), None), ((3, 4), (4,), None),
                      ((4,), (4,), None), ((3, 4), (4, 2), (3, 2)), ((4,), (4, 2), (2,)),
                      ((3, 4), (4, 2), (2,)), ((3, 4), (4, 2), ()), ((4,), (4,), ()),
                      ((4,), (4, 2), (3, 2)))


def _fused_tanh_failure(seed: int, tol: float) -> tuple[float, str | None]:
    """``matmul(a, b, plus, tanh=True)`` in every mode of
    ``_FUSED_TANH_SHAPES``: gradcheck in each input, and its value and every
    input gradient ``==`` those of ``tanh(matmul(a, b, plus))``. Returns the
    worst relative error and what failed, or None."""
    rng = derived_rng(9000 + seed, 7)
    worst = 0.0
    for shapes in _FUSED_TANH_SHAPES:
        points = [rng.normal(size=shape) for shape in shapes if shape is not None]
        # uneven weights on the node's entries, so each entry's adjoint counts
        out = np.dot(points[0], points[1]) + (points[2] if len(points) == 3 else 0.0)
        mix = Tensor(rng.normal(size=np.shape(out)))

        def node(xs, fused):
            plus = xs[2] if len(xs) == 3 else None
            y = (matmul(xs[0], xs[1], plus=plus, tanh=True) if fused
                 else tanh(matmul(xs[0], xs[1], plus=plus)))
            return y, reduce_sum(multiply(y, mix))

        for i in range(len(points)):
            def fn(x: Tensor, _i=i) -> Tensor:
                xs = [Tensor(p) for p in points]
                xs[_i] = x
                return node(xs, True)[1]

            report = gradcheck(fn, points[i], tol=tol)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                return worst, f"fused tanh {shapes} input {i} seed {seed}: {report}"
        runs = []
        for fused in (True, False):
            with Tape() as tape:
                xs = [Tensor(p, name=str(j), trainable=True) for j, p in enumerate(points)]
                y, root = node(xs, fused)
                grads = backward(tape, root)
            runs.append([y.data] + [grads[str(j)] for j in range(len(points))])
        if not all(np.array_equal(a, b) for a, b in zip(*runs)):
            return worst, (f"fused tanh {shapes} seed {seed}: value or gradient differs "
                           f"from the tanh of the product")
    return worst, None


def check_gradients(n_seeds: int = 3, tol: float = 1e-4,
                    priors: Sequence[str] = ("uniform", "learnable")) -> CheckResult:
    """Finite-difference check of the full parameter gradient of the training
    objective (on a plain and a ragged-candidate example), the head
    cross-entropy gradient (also on a ragged example, whose repeated
    candidate is one row of the head pass), the two latent-gradient terms
    driving the Langevin drift, a lockstep decode of a ragged example's
    candidates in ``att_v``, the latent log-likelihood gradient through
    the constant weights the Langevin chain runs on (the tape
    ``decoder_grad_z`` records), a decode whose lanes come from two
    examples, in the latents under constant weights and in ``att_v``, and
    the objectives of a pass of two examples (``surrogate_objectives``) in
    every parameter, whose decode runs ``segment_attention`` in all four of
    its inputs. Each seed ends with a product and its tanh as one node
    (``_fused_tanh_failure``), the node of every recurrent step."""
    cfg = _tiny_model_config()
    worst = 0.0
    for seed in range(n_seeds):
        rng = derived_rng(9000 + seed, 1)
        params = ModelParams.init(cfg, seed=seed)
        example = _random_example(rng, cfg.vocab_size)
        s = int(rng.integers(len(example.candidates)))
        z = rng.normal(size=cfg.latent_dim)
        ragged_rng = derived_rng(9000 + seed, 2)
        ragged = _ragged_example(ragged_rng, cfg, hist_len=cfg.max_history + 2)
        cases = [("", example, s),
                 ("ragged/", ragged, int(ragged_rng.integers(len(ragged.candidates))))]
        for label, ex, pick in cases:
            for prior in priors:
                for name in params.names():
                    def obj(x: Tensor, _name=name, _prior=prior, _ex=ex, _s=pick) -> Tensor:
                        return surrogate_objective(_swap(params, _name, x), _ex,
                                                   _s, z, _prior)

                    # h tuned to the objective's O(10) magnitude: truncation stays
                    # ~1e-8 while roundoff drops an order versus the 1e-5 default
                    report = gradcheck(obj, params.tensors[name].data, tol=tol, h=1e-4)
                    worst = max(worst, report.max_rel_error)
                    if not report.passed:
                        return CheckResult(
                            "gradients", False,
                            f"objective/{label}{prior}/{name} seed {seed}: {report}")
        # a ragged example's repeated candidate is one row of the head pass;
        # drawn from its own stream, so every other draw stays as it was
        head_rng = derived_rng(9000 + seed, 5)
        shared = _ragged_example(head_rng, cfg,
                                 hist_len=int(head_rng.integers(1, cfg.max_history + 3)))
        shared_pick = int(head_rng.integers(len(shared.candidates)))
        for label, ex, pick in (("", example, s), ("shared-rows/", shared, shared_pick)):
            labels = [multi_hot_labels(ex, pick)]
            encs = encode_batch(params, [ex])  # off the tape: the head's constant inputs
            for name in ("init_w", "init_b"):
                def ce(x: Tensor, _name=name, _ex=ex, _y=labels, _encs=encs) -> Tensor:
                    return head_ce_loss(_swap(params, _name, x), [_ex], _y, _encs)

                report = gradcheck(ce, params.tensors[name].data, tol=tol, h=1e-4)
                worst = max(worst, report.max_rel_error)
                if not report.passed:
                    return CheckResult("gradients", False,
                                       f"cross-entropy/{label}{name} seed {seed}: {report}")
        # the drift's two terms at a lone chain's (1, latent) state
        lane = encode_context(params, example, [s])
        mu_const = latent_prior_means(params, lane).data

        def prior_term(x: Tensor) -> Tensor:
            return reduce_sum(latent_prior_log_density(Tensor(mu_const), x))

        def loglik_term(x: Tensor) -> Tensor:
            return reduce_sum(decode_logprob(params, [example], [s], x, encoded=lane))

        for label, fn in (("latent-prior", prior_term), ("latent-loglik", loglik_term)):
            report = gradcheck(fn, z[None], tol=tol, h=1e-4)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                return CheckResult("gradients", False,
                                   f"{label} grad wrt z seed {seed}: {report}")
        # its own stream, so the draws above stay as they were
        lock_rng = derived_rng(9000 + seed, 3)
        lockstep = _ragged_example(lock_rng, cfg,
                                   hist_len=int(lock_rng.integers(1, cfg.max_history + 3)))
        order = [int(i) for i in lock_rng.permutation(len(lockstep.candidates))]
        # prior means, so the repeated candidate shares its lane
        mus = np.stack([latent_prior_mean(params, lockstep, i).data for i in order])
        coeffs = Tensor(lock_rng.normal(size=len(order)))
        lock_lanes = encode_context(params, lockstep, order)

        def lockstep_term(x: Tensor) -> Tensor:
            return matmul(decode_logprob(_swap(params, "att_v", x), [lockstep] * len(order),
                                         order, mus, encoded=lock_lanes), coeffs)

        report = gradcheck(lockstep_term, params.tensors["att_v"].data, tol=tol, h=1e-4)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            return CheckResult("gradients", False,
                               f"lockstep decode grad wrt att_v seed {seed}: {report}")
        # the chain's own path, from its own stream as well
        chain_rng = derived_rng(9000 + seed, 4)
        chained = _ragged_example(chain_rng, cfg,
                                  hist_len=int(chain_rng.integers(1, cfg.max_history + 3)))
        pick = int(chain_rng.integers(len(chained.candidates)))
        z0 = chain_rng.normal(size=cfg.latent_dim)
        weights = params.constant()
        chain_lane = encode_context(weights, chained, [pick])
        report = gradcheck(lambda x: reduce_sum(decode_logprob(weights, [chained], [pick], x,
                                                               encoded=chain_lane)),
                           z0[None], tol=tol, h=1e-4)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            return CheckResult("gradients", False, f"latent-loglik grad wrt z under "
                               f"constant weights seed {seed}: {report}")
        # lanes of two examples in one decode, each teacher-forcing its own
        # response (the second ends later), from its own stream as well
        cross_rng = derived_rng(9000 + seed, 6)
        first, second = (_ragged_example(cross_rng, cfg, int(cross_rng.integers(
            1, cfg.max_history + 3))) for _ in range(2))
        second.response = _random_example(cross_rng, cfg.vocab_size,
                                          resp_len=len(first.response) + 2).response
        owners = [first, second, second, first]
        picks = [int(cross_rng.integers(len(ex.candidates))) for ex in owners]
        zs, mix = cross_rng.normal(size=(4, cfg.latent_dim)), Tensor(cross_rng.normal(size=4))
        (a, d), (b, c) = encode_batch(params, [first, second], [picks[::3], picks[1:3]])
        cross = [a, b, c, d]
        for label, fn, point in (
                ("z under constant weights",
                 lambda x: matmul(decode_logprob(weights, owners, picks, x, cross), mix), zs),
                ("att_v", lambda x: matmul(decode_logprob(_swap(params, "att_v", x), owners,
                                                          picks, zs, cross), mix),
                 params["att_v"].data)):
            report = gradcheck(fn, point, tol=tol, h=1e-4)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                return CheckResult("gradients", False, f"cross-example decode grad wrt "
                                   f"{label} seed {seed}: {report}")
        # the objectives of a pass of two examples, on the tape from the
        # encoder on: their decode's segment attention in every input
        pass_picks, pass_zs = [s, cases[1][2]], np.stack([z, z[::-1]])
        # weights of total magnitude 1 keep the value at one objective's O(10)
        pass_mix = Tensor(mix.data[:2] / np.abs(mix.data[:2]).sum())
        for prior in priors:
            for name in params.names():
                def pass_obj(x: Tensor, _name=name, _prior=prior) -> Tensor:
                    swapped = _swap(params, _name, x)
                    encs = encode_batch(swapped, [example, ragged], None if _prior == "learnable"
                                        else [[i] for i in pass_picks])
                    return matmul(surrogate_objectives(swapped, [example, ragged], pass_picks,
                                                       pass_zs, _prior, encs), pass_mix)

                report = gradcheck(pass_obj, params.tensors[name].data, tol=tol, h=1e-4)
                worst = max(worst, report.max_rel_error)
                if not report.passed:
                    return CheckResult("gradients", False,
                                       f"objective/pass/{prior}/{name} seed {seed}: {report}")
        fused_worst, failure = _fused_tanh_failure(seed, tol)
        worst = max(worst, fused_worst)
        if failure is not None:
            return CheckResult("gradients", False, failure)
    return CheckResult("gradients", True,
                       f"max rel err {worst:.2e} over {n_seeds} seeds (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# Langevin suite


def check_langevin(n_seeds: int = 10, steps: int = 10_000, burn_in: int = 2_000,
                   step_size: float = 0.01, min_passes: int | None = None) -> CheckResult:
    """Long-chain moment test on a linear-Gaussian observation model whose
    posterior mean is known in closed form: the empirical post-burn-in mean
    must sit within 3 batch-means standard errors componentwise. Each seed
    runs one chain, a batch of one of ``langevin_chain``'s rows."""
    if burn_in >= steps:
        raise ContractError("burn-in must be smaller than the chain length")
    d, k = 3, 4
    sigma2 = 0.5
    need = n_seeds - 1 if min_passes is None else min_passes
    passes = 0
    details = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(7_700 + seed)
        design = rng.normal(size=(k, d)) * 0.8
        obs = rng.normal(size=k)
        mu0 = rng.normal(size=d)
        cov = np.linalg.inv(np.eye(d) + design.T @ design / sigma2)
        target_mean = cov @ (mu0 + design.T @ obs / sigma2)

        def grad_loglik(z: np.ndarray) -> np.ndarray:
            return (obs - z @ design.T) @ design / sigma2

        trace = langevin_chain(mu0[None], grad_loglik, steps=steps, step_size=step_size,
                               rng=[rng], noise=True)
        samples = np.asarray(trace.states[burn_in + 1:])[:, 0]
        n_batches = 40
        usable = (len(samples) // n_batches) * n_batches
        batches = samples[:usable].reshape(n_batches, -1, d).mean(axis=1)
        se = batches.std(axis=0, ddof=1) / np.sqrt(n_batches)
        err = np.abs(samples.mean(axis=0) - target_mean)
        if np.all(err <= 3.0 * se):
            passes += 1
        else:
            details.append(f"seed {seed}: |err|/se = {np.max(err / se):.2f}")
    detail = f"{passes}/{n_seeds} chains within 3 SE of the analytic mean"
    if details:
        detail += "; " + "; ".join(details[:3])
    return CheckResult("langevin", passes >= need, detail)


# ---------------------------------------------------------------------------
# selection suite


def check_selection(n_instances: int = 100, seed: int = 0) -> CheckResult:
    """Greedy posterior selection versus the brute-force reference above, on
    random tiny instances plus constructed all-tied instances (duplicate
    candidates), ragged-candidate instances and wide all-tied instances, whose
    equal rows a matrix product can round apart, in both prior modes, each
    through a config whose top-S covers every candidate and one that cuts
    it to half the widest example's M (at least 1), against the reference's
    pick over its own top-S; also pins the reference's top-S at S=M to every
    candidate. Every instance goes through ``select_knowledge_batch`` as a
    pass of one; passes of several examples
    (a random, a tied and a ragged one; a random and two wide tied ones) go
    through it as one pass, each pick against the reference."""
    rng = derived_rng(4_400 + seed, 1)
    mismatches: list[str] = []

    def configs(params: ModelParams, examples: list[DialogueExample]):
        m = max(len(example.candidates) for example in examples)
        return [SpiConfig(model=params.cfg, prior=prior, top_s=top_s)
                for prior in ("uniform", "learnable") for top_s in (m, max(1, m // 2))]

    def compare(label: str, params: ModelParams, example: DialogueExample) -> None:
        m = len(example.candidates)
        compare_pass(label, params, [example])
        if naive_top_s(params, example, m) != list(range(m)):
            mismatches.append(f"{label}: top-S at S=M lost a candidate")

    def compare_pass(label: str, params: ModelParams,
                     examples: list[DialogueExample]) -> None:
        encodings = encode_batch(params, examples)
        for config in configs(params, examples):
            picks = select_knowledge_batch(params, examples, config,
                                           encodings_batch=encodings)
            for j, (example, got) in enumerate(zip(examples, picks)):
                want = naive_select(params, example, config.prior, config.top_s)
                if got.chosen != want:
                    where = label if len(examples) == 1 else f"{label} example {j}"
                    mismatches.append(f"{where} prior={config.prior} top_s={config.top_s}: "
                                      f"{got.chosen} != {want}")

    ties = 0
    for i in range(n_instances):
        vocab = int(rng.integers(6, 9))
        cfg = _tiny_model_config(vocab_size=vocab)
        params = ModelParams.init(cfg, seed=int(rng.integers(1_000_000)))
        m = int(rng.integers(2, 5))
        example = _random_example(rng, vocab, m=m,
                                  resp_len=int(rng.integers(2, 6)),
                                  hist_len=2, cand_len=2)
        if i % 10 == 9:
            # all candidates identical: every posterior weight ties exactly
            example.candidates = [list(example.candidates[0]) for _ in range(m)]
            ties += 1
        compare(f"instance {i}", params, example)
    # drawn from their own stream, so the instances above stay as they were
    ragged_rng = derived_rng(4_400 + seed, 2)
    n_ragged = max(1, n_instances // 5)
    for i in range(n_ragged):
        cfg = _tiny_model_config(vocab_size=int(ragged_rng.integers(6, 9)))
        params = ModelParams.init(cfg, seed=int(ragged_rng.integers(1_000_000)))
        hist_len = int(ragged_rng.choice([1, cfg.max_history + 2]))
        compare(f"ragged instance {i}", params, _ragged_example(ragged_rng, cfg, hist_len))
    wide_rng = derived_rng(4_400 + seed, 3)  # a stream of their own as well
    n_wide = max(2, n_instances // 10)
    for i in range(n_wide):
        cfg = ModelConfig(vocab_size=int(wide_rng.integers(6, 9)), hidden_dim=32, latent_dim=10)
        params = ModelParams.init(cfg, seed=int(wide_rng.integers(1_000_000)), scale=0.3)
        example = _random_example(wide_rng, cfg.vocab_size, m=6,
                                  resp_len=int(wide_rng.integers(2, 6)), hist_len=2, cand_len=2)
        example.candidates = [example.candidates[0]] * 6
        compare(f"wide tied instance {i}", params, example)
    # passes of several examples through the batch selection, each pick
    # against the reference; drawn from a stream of their own as well
    batch_rng = derived_rng(4_400 + seed, 4)
    n_passes = max(2, n_instances // 10)
    for i in range(n_passes):
        cfg = _tiny_model_config(vocab_size=int(batch_rng.integers(6, 9)))
        params = ModelParams.init(cfg, seed=int(batch_rng.integers(1_000_000)))
        plain, tied = (_random_example(batch_rng, cfg.vocab_size, m=int(batch_rng.integers(2, 5)),
                                       resp_len=int(batch_rng.integers(2, 6)))
                       for _ in range(2))
        tied.candidates = [list(tied.candidates[0]) for _ in tied.candidates]
        ragged = _ragged_example(batch_rng, cfg, int(batch_rng.choice([1, cfg.max_history + 2])))
        compare_pass(f"pass {i}", params, [plain, tied, ragged])
        cfg = ModelConfig(vocab_size=cfg.vocab_size, hidden_dim=32, latent_dim=10)
        params = ModelParams.init(cfg, seed=int(batch_rng.integers(1_000_000)), scale=0.3)
        wide = [_random_example(batch_rng, cfg.vocab_size, m=6, hist_len=2, cand_len=2,
                                resp_len=int(batch_rng.integers(2, 6))) for _ in range(3)]
        for example in wide[1:]:
            example.candidates = [example.candidates[0]] * 6
        compare_pass(f"wide pass {i}", params, wide)
    if mismatches:
        return CheckResult("selection", False,
                           f"{len(mismatches)} mismatches: " + "; ".join(mismatches[:3]))
    return CheckResult("selection", True,
                       f"0 mismatches over {n_instances} instances ({ties} tied), "
                       f"{n_ragged} ragged ones, {n_wide} wide tied ones and "
                       f"{2 * n_passes} passes of three examples, each prior at full "
                       f"and half top-S")


# ---------------------------------------------------------------------------
# lockstep inference suite


def check_lockstep(n_passes: int = 3, tol: float = 1e-10) -> CheckResult:
    """Posterior inference for a pass of examples (``sequential_posterior_infer``)
    against each example's draw as a batch of one from the same encodings,
    on the tiny config, in both prior modes and in greedy and sampled
    selection, with noise on and off: each pick must agree, each final
    latent within ``tol``, and each generator must be left where its
    example alone leaves it."""
    cfg = _tiny_model_config()
    worst = 0.0
    runs = 0
    for i in range(n_passes):
        rng = derived_rng(9_100 + i, 1)
        params = ModelParams.init(cfg, seed=i, scale=0.5)
        examples = [_random_example(rng, cfg.vocab_size, m=int(rng.integers(2, 5)),
                                    resp_len=int(rng.integers(2, 7))) for _ in range(4)]
        examples.append(_ragged_example(rng, cfg, int(rng.integers(1, cfg.max_history + 3))))
        encodings = encode_batch(params, examples)
        for prior in ("uniform", "learnable"):
            for selection in ("greedy", "sampled"):
                for noise in (True, False):
                    config = SpiConfig(model=cfg, prior=prior, top_s=2, selection=selection,
                                       temperature=3.0, langevin_noise=noise, seed=i)
                    label = f"pass {i} {prior}/{selection} noise={noise}"
                    gens = [derived_rng(9_100 + i, 2, j) for j in range(len(examples))]
                    alone = [derived_rng(9_100 + i, 2, j) for j in range(len(examples))]
                    batch = sequential_posterior_infer(params, examples, config, gens,
                                                       encodings)
                    for j, (example, encs, got) in enumerate(zip(examples, encodings, batch)):
                        [want] = sequential_posterior_infer(params, [example], config,
                                                            [alone[j]], [encs])
                        if got.s != want.s:
                            return CheckResult("lockstep", False, f"{label} example {j}: "
                                               f"pick {got.s} != {want.s}")
                        err = float(np.max(np.abs(got.z - want.z)))
                        worst = max(worst, err)
                        if not err <= tol:
                            return CheckResult("lockstep", False, f"{label} example {j}: "
                                               f"|z_T difference| {err:.2e} > {tol:.0e}")
                        if gens[j].random() != alone[j].random():
                            return CheckResult("lockstep", False, f"{label} example {j}: "
                                               f"its generator drew another stream")
                    runs += 1
    return CheckResult("lockstep", True,
                       f"max |z_T difference| {worst:.1e} over {runs} passes of "
                       f"{len(examples)} examples (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# determinism suite


def check_determinism() -> CheckResult:
    """Same-seed corpus, inference, and training runs must agree bit for bit."""
    spec = SyntheticSpec(vocab_size=32, m_candidates=3, candidate_len=4,
                         n_styles=2, n_train=12, n_valid=4, n_test=4,
                         history_len=4, seed=5)
    first = generate_corpus(spec)
    second = generate_corpus(spec)
    for split in ("train", "valid", "test"):
        a, b = getattr(first, split), getattr(second, split)
        if [vars(x) for x in a] != [vars(x) for x in b]:
            return CheckResult("determinism", False, f"corpus split {split} differs")

    config = SpiConfig(model=ModelConfig(vocab_size=first.vocab.size, embed_dim=8,
                                         hidden_dim=10, att_dim=5, dec_hidden_dim=10,
                                         latent_dim=4),
                       top_s=2, langevin_steps=2, batch_size=4, epochs=2, seed=3)
    params = ModelParams.init(config.model, seed=1)
    example = first.train[0]
    [pair_a], [pair_b] = (sequential_posterior_infer(params, [example], config,
                                                     [derived_rng(11, 1)],
                                                     [encode_context(params, example)])
                          for _ in range(2))
    if pair_a.s != pair_b.s or not np.array_equal(pair_a.z, pair_b.z):
        return CheckResult("determinism", False, "repeated seeded inference differs")

    runs = []
    for _ in range(2):
        result = train(first.train, first.valid, config, quiet=True)
        runs.append((checkpoint_bytes(result.params, config.fingerprint()),
                     result.records))
    if runs[0] != runs[1]:
        return CheckResult("determinism", False, "same-seed training runs differ")
    return CheckResult("determinism", True,
                       "corpus, inference, and training are bit-stable across repeats")


def run_all(fast: bool = False) -> list[CheckResult]:
    """Every suite, sized for a routine pre-flight run."""
    if fast:
        return [check_gradients(n_seeds=1),
                check_langevin(n_seeds=3, steps=4_000, burn_in=1_000, min_passes=3),
                check_selection(n_instances=20),
                check_lockstep(n_passes=1),
                check_determinism()]
    return [check_gradients(),
            check_langevin(),
            check_selection(),
            check_lockstep(),
            check_determinism()]
