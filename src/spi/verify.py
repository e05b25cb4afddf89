"""Self-check suites: gradient checking, Langevin moment matching against an
analytic Gaussian posterior, brute-force selection equivalence, and
determinism. The reference computations here are written in plain numpy,
independent of the autodiff engine, so the two paths can disagree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, gradcheck, matmul
from .checkpoint import checkpoint_bytes
from .config import ModelConfig, SpiConfig, derived_rng
from .data import SyntheticSpec, generate_corpus
from .errors import ContractError
from .inference import langevin_chain, select_knowledge, sequential_posterior_infer
from .model import (BOS, EOS, DialogueExample, ModelParams, decode_logprob,
                    latent_prior_log_density, latent_prior_mean)
from .training import head_ce_loss, multi_hot_labels, surrogate_objective, train


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


def naive_response_logprob(params: ModelParams, example: DialogueExample,
                           s: int, z: np.ndarray) -> float:
    """Reference teacher-forced response log-probability."""
    cfg = params.cfg
    w = {k: t.data for k, t in params.tensors.items()}
    hist = list(example.history)[-cfg.max_history:]
    cand = list(example.candidates[s])[:cfg.max_candidate]
    tokens = hist + [3] + cand  # separator id
    h = np.zeros(cfg.hidden_dim)
    states = []
    for tok in tokens:
        h = np.tanh(w["embed"][tok] @ w["enc_wx"] + h @ w["enc_wh"] + w["enc_b"])
        states.append(h)
    mat = np.array(states)
    pooled = mat.mean(axis=0)
    zrow = np.asarray(z) @ w["zslot_w"] + w["zslot_b"]
    slots = np.vstack([mat, zrow])
    proj = slots @ w["att_enc"]
    state = np.tanh(pooled @ w["dec_init_w"] + w["dec_init_b"])
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
        prev = int(target)
    return total


def _naive_pooled(params: ModelParams, example: DialogueExample, s: int) -> np.ndarray:
    cfg = params.cfg
    w = {k: t.data for k, t in params.tensors.items()}
    tokens = (list(example.history)[-cfg.max_history:] + [3]
              + list(example.candidates[s])[:cfg.max_candidate])
    h = np.zeros(cfg.hidden_dim)
    acc = np.zeros(cfg.hidden_dim)
    for tok in tokens:
        h = np.tanh(w["embed"][tok] @ w["enc_wx"] + h @ w["enc_wh"] + w["enc_b"])
        acc += h
    return acc / len(tokens)


def naive_latent_mean(params: ModelParams, example: DialogueExample, s: int) -> np.ndarray:
    w = params.tensors
    pooled = _naive_pooled(params, example, s)
    return pooled @ w["zprior_w"].data + w["zprior_b"].data


def naive_initializer_scores(params: ModelParams, example: DialogueExample) -> np.ndarray:
    w = params.tensors
    out = np.zeros(len(example.candidates))
    for i in range(len(example.candidates)):
        logit = _naive_pooled(params, example, i) @ w["init_w"].data + w["init_b"].data
        out[i] = 1.0 / (1.0 + np.exp(-logit))
    return out


def naive_prior_logits(params: ModelParams, example: DialogueExample) -> np.ndarray:
    w = params.tensors
    return np.array([
        _naive_pooled(params, example, i) @ w["kprior_w"].data + w["kprior_b"].data
        for i in range(len(example.candidates))])


def naive_select(params: ModelParams, example: DialogueExample, prior: str) -> int:
    """Brute-force posterior pick over all candidates at the prior-mean latent."""
    m = len(example.candidates)
    raw = np.zeros(m)
    extra = naive_prior_logits(params, example) if prior == "learnable" else np.zeros(m)
    for i in range(m):
        mu = naive_latent_mean(params, example, i)
        raw[i] = extra[i] + naive_response_logprob(params, example, i, mu)
    return int(np.argmax(raw))


def naive_top_s(params: ModelParams, example: DialogueExample, top_s: int) -> list[int]:
    scores = naive_initializer_scores(params, example)
    keep = np.argsort(-scores, kind="stable")[:top_s]
    return sorted(int(i) for i in keep)


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


def check_gradients(n_seeds: int = 3, tol: float = 1e-4,
                    priors: Sequence[str] = ("uniform", "learnable")) -> CheckResult:
    """Finite-difference check of the full parameter gradient of the training
    objective (on a plain and a ragged-candidate example), the head
    cross-entropy gradient (also on a ragged example, whose repeated
    candidate is one row of the head pass), the two latent-gradient terms
    driving the Langevin drift, a lockstep decode of a ragged example's
    candidates in ``att_v``, and the latent log-likelihood gradient through
    the constant weights the Langevin chain runs on (the tape
    ``decoder_grad_z`` records)."""
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
            for head in ("initializer", "knowledge_prior"):
                for name in params.head_names(head):
                    def ce(x: Tensor, _name=name, _head=head, _ex=ex, _y=labels) -> Tensor:
                        return head_ce_loss(_swap(params, _name, x), [_ex], _y, _head)

                    report = gradcheck(ce, params.tensors[name].data, tol=tol, h=1e-4)
                    worst = max(worst, report.max_rel_error)
                    if not report.passed:
                        return CheckResult("gradients", False,
                                           f"cross-entropy/{label}{name} seed {seed}: {report}")
        mu_const = latent_prior_mean(params, example, s).data

        def prior_term(x: Tensor) -> Tensor:
            return latent_prior_log_density(Tensor(mu_const), x)

        def loglik_term(x: Tensor) -> Tensor:
            return decode_logprob(params, example, s, x)

        for label, fn in (("latent-prior", prior_term), ("latent-loglik", loglik_term)):
            report = gradcheck(fn, z, tol=tol, h=1e-4)
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

        def lockstep_term(x: Tensor) -> Tensor:
            return matmul(decode_logprob(_swap(params, "att_v", x), lockstep, order, mus),
                          coeffs)

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
        report = gradcheck(lambda x: decode_logprob(weights, chained, pick, x), z0,
                           tol=tol, h=1e-4)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            return CheckResult("gradients", False, f"latent-loglik grad wrt z under "
                               f"constant weights seed {seed}: {report}")
    return CheckResult("gradients", True,
                       f"max rel err {worst:.2e} over {n_seeds} seeds (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# Langevin suite


def check_langevin(n_seeds: int = 10, steps: int = 10_000, burn_in: int = 2_000,
                   step_size: float = 0.01, min_passes: int | None = None) -> CheckResult:
    """Long-chain moment test on a linear-Gaussian observation model whose
    posterior mean is known in closed form: the empirical post-burn-in mean
    must sit within 3 batch-means standard errors componentwise."""
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
            return design.T @ (obs - design @ z) / sigma2

        trace = langevin_chain(mu0, grad_loglik, steps=steps, step_size=step_size,
                               rng=rng, noise=True)
        samples = np.asarray(trace.states[burn_in + 1:])
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


def check_selection(n_instances: int = 100, seed: int = 0,
                    select_fn: Callable[..., object] | None = None) -> CheckResult:
    """Greedy posterior selection versus the brute-force reference above, on
    random tiny instances plus constructed all-tied instances (duplicate
    candidates) and ragged-candidate instances, in both prior modes; also
    pins top-S at S=M to exhaustive."""
    fn = select_fn if select_fn is not None else select_knowledge
    rng = derived_rng(4_400 + seed, 1)
    mismatches: list[str] = []

    def compare(label: str, params: ModelParams, example: DialogueExample) -> None:
        m = len(example.candidates)
        for prior in ("uniform", "learnable"):
            got = fn(params, example, prior=prior, mode="greedy").chosen
            want = naive_select(params, example, prior)
            if got != want:
                mismatches.append(f"{label} prior={prior}: {got} != {want}")
        full = fn(params, example, prior="uniform", mode="greedy", top_s=m).chosen
        exhaustive = fn(params, example, prior="uniform", mode="greedy").chosen
        if full != exhaustive:
            mismatches.append(f"{label} top-S=M: {full} != {exhaustive}")
        if naive_top_s(params, example, m) != list(range(m)):
            mismatches.append(f"{label}: top-S at S=M lost a candidate")

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
    if mismatches:
        return CheckResult("selection", False,
                           f"{len(mismatches)} mismatches: " + "; ".join(mismatches[:3]))
    return CheckResult("selection", True,
                       f"0 mismatches over {n_instances} instances ({ties} tied) "
                       f"and {n_ragged} ragged ones")


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
    pair_a = sequential_posterior_infer(params, first.train[0], config,
                                        rng=derived_rng(11, 1))
    pair_b = sequential_posterior_infer(params, first.train[0], config,
                                        rng=derived_rng(11, 1))
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
                check_determinism()]
    return [check_gradients(),
            check_langevin(),
            check_selection(),
            check_determinism()]
