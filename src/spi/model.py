"""Conditional sequence model: shared recurrent encoder, knowledge heads,
latent-prior head, and an attention decoder conditioned on a continuous
latent injected as one extra attended slot.

Every forward function takes the parameter set explicitly and records on the
active autodiff tape when one is open, so the same code path serves
inference (no tape) and learning (taped).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import SEED_INIT, ModelConfig, derived_rng
from .errors import ContractError

PAD, BOS, EOS, SEP = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<sep>")


@dataclass(frozen=True)
class Vocab:
    """Token strings with dense ids; the first four ids are reserved."""

    tokens: tuple[str, ...]

    @staticmethod
    def build(words: Sequence[str]) -> "Vocab":
        tokens = RESERVED_TOKENS + tuple(words)
        if len(set(tokens)) != len(tokens):
            raise ContractError("vocabulary contains duplicate tokens")
        return Vocab(tokens)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def to_text(self, ids: Iterable[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)


@dataclass
class DialogueExample:
    """One grounded dialogue turn: history, candidate knowledge, response.

    ``gold_index`` may be None for unannotated data; the response always ends
    with the end-of-sequence token.
    """

    history: list[int]
    candidates: list[list[int]]
    gold_index: int | None
    response: list[int]

    def validate(self, vocab_size: int) -> None:
        if len(self.candidates) < 1:
            raise ContractError("example needs at least one knowledge candidate")
        if self.gold_index is not None:
            if not _is_index(self.gold_index):
                raise ContractError(f"gold_index {self.gold_index!r} is not an integer")
            if not 0 <= self.gold_index < len(self.candidates):
                raise ContractError(f"gold_index {self.gold_index} out of range for "
                                    f"{len(self.candidates)} candidates")
        if not self.response:
            raise ContractError("example response is empty")
        if self.response[-1] != EOS:
            raise ContractError("example response must end with the end-of-sequence token")
        for name, seq in (("history", self.history), ("response", self.response),
                          *((f"candidate {i}", c) for i, c in enumerate(self.candidates))):
            _check_tokens(seq, vocab_size, name)


@dataclass
class LatentPair:
    """A posterior draw: discrete knowledge index and continuous latent."""

    s: int
    z: np.ndarray


# ---------------------------------------------------------------------------
# parameters

INITIALIZER_HEAD = ("init_w", "init_b")
KNOWLEDGE_PRIOR_HEAD = ("kprior_w", "kprior_b")


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    v, e, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim
    a, hd, d = cfg.att_dim, cfg.dec_hidden_dim, cfg.latent_dim
    return [
        ("embed", (v, e)),
        ("enc_wx", (e, h)),
        ("enc_wh", (h, h)),
        ("enc_b", (h,)),
        ("init_w", (h,)),
        ("init_b", ()),
        ("kprior_w", (h,)),
        ("kprior_b", ()),
        ("zprior_w", (h, d)),
        ("zprior_b", (d,)),
        ("zslot_w", (d, h)),
        ("zslot_b", (h,)),
        ("att_enc", (h, a)),
        ("att_dec", (hd, a)),
        ("att_b", (a,)),
        ("att_v", (a,)),
        ("dec_init_w", (h, hd)),
        ("dec_init_b", (hd,)),
        ("dec_wx", (e, hd)),
        ("dec_wc", (h, hd)),
        ("dec_wh", (hd, hd)),
        ("dec_b", (hd,)),
        ("out_w", (hd, v)),
        ("out_c", (h, v)),
        ("out_b", (v,)),
    ]


class ModelParams:
    """Named trainable tensors in a fixed order (the checkpoint order)."""

    def __init__(self, cfg: ModelConfig, tensors: dict[str, Tensor]):
        self.cfg = cfg
        self.tensors = tensors

    @staticmethod
    def init(cfg: ModelConfig, seed: int = 0, scale: float = 0.1) -> "ModelParams":
        cfg.validate()
        rng = derived_rng(seed, SEED_INIT)
        tensors: dict[str, Tensor] = {}
        for name, shape in param_shapes(cfg):
            if name.endswith("_b"):
                data = np.zeros(shape)
            else:
                data = rng.normal(size=shape) * scale
            tensors[name] = Tensor(data, name=name, trainable=True)
        return ModelParams(cfg, tensors)

    @staticmethod
    def from_arrays(cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        tensors: dict[str, Tensor] = {}
        for name, shape in param_shapes(cfg):
            if name not in arrays:
                raise ContractError(f"missing parameter {name!r}")
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ContractError(
                    f"parameter {name!r} has shape {arr.shape}, expected {shape}")
            tensors[name] = Tensor(arr, name=name, trainable=True)
        extra = set(arrays) - set(tensors)
        if extra:
            raise ContractError(f"unknown parameters in checkpoint: {sorted(extra)}")
        return ModelParams(cfg, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def names(self):
        return list(self.tensors.keys())

    def num_params(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, {
            name: Tensor(t.data.copy(), name=name, trainable=True)
            for name, t in self.tensors.items()})

    def constant(self) -> "ModelParams":
        """The same arrays as constants: a tape records only the nodes that
        depend on some other input, and forms no weight gradient."""
        return ModelParams(self.cfg, {
            name: Tensor(t.data, name=name, _validate=False)
            for name, t in self.tensors.items()})

    def head_names(self, head: str) -> tuple[str, ...]:
        if head == "initializer":
            return INITIALIZER_HEAD
        if head == "knowledge_prior":
            return KNOWLEDGE_PRIOR_HEAD
        raise ContractError(f"unknown head {head!r}")


# ---------------------------------------------------------------------------
# encoder


@dataclass
class EncodedContext:
    """Per-token encoder states and their mean-pooled summary."""

    states: Tensor  # (L, hidden)
    pooled: Tensor  # (hidden,)


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_tokens(tokens: Sequence[int], vocab_size: int, what: str) -> None:
    for tok in tokens:
        # a plain int in range passes on the first test; it runs per token
        if type(tok) is not int or not 0 <= tok < vocab_size:
            if not _is_index(tok):
                raise ContractError(f"{what} token id {tok!r} is not an integer")
            if not 0 <= tok < vocab_size:
                raise ContractError(f"{what} token id {tok} outside vocabulary of {vocab_size}")


def encode_context(params: ModelParams, example: DialogueExample,
                   indices: Sequence[int] | None = None) -> list[EncodedContext]:
    """Encode the history joined by the separator token to each requested
    candidate (every candidate by default), in one pass.

    History longer than the cap keeps its most recent tokens; a candidate
    keeps its head. The shared prefix runs once; the distinct truncated
    candidates then advance from its last state in lockstep, as rows of one
    (k, hidden) state padded to the longest. Equal truncated candidates share
    one encoding, so their scores tie exactly: a matrix product may round
    two equal rows differently.
    """
    cfg = params.cfg
    m = len(example.candidates)
    hist = list(example.history[-cfg.max_history:])
    lanes: dict[tuple[int, ...], int] = {}
    lane_of = []
    for s in (range(m) if indices is None else indices):
        if not 0 <= s < m:
            raise ContractError(f"candidate index {s} out of range")
        cand = tuple(example.candidates[s][:cfg.max_candidate])
        if not hist and not cand:
            raise ContractError("cannot encode an empty history with an empty candidate")
        lane_of.append(lanes.setdefault(cand, len(lanes)))
    cands = list(lanes)
    k = len(cands)
    width = max(map(len, cands), default=0)
    prefix = hist + [SEP]
    n = len(prefix)
    # row n + i*k + j holds token i of lane j (PAD past the lane's end)
    tokens = prefix + [c[i] if i < len(c) else PAD for i in range(width) for c in cands]
    _check_tokens(tokens, cfg.vocab_size, "context")
    t = params.tensors
    emb = ad.gather_rows(t["embed"], np.asarray(tokens, dtype=np.int64))
    wx, wh, b = t["enc_wx"], t["enc_wh"], t["enc_b"]
    # a step reads one row of ``emb``, or k rows once the lanes split; a lone
    # lane stays a vector like the prefix
    steps = list(range(n)) + [n + i if k == 1 else np.arange(n + i * k, n + (i + 1) * k)
                              for i in range(width)]
    state = Tensor(np.zeros(cfg.hidden_dim))
    rows = []
    for step in steps:
        x = ad.gather_rows(emb, step)
        # the prefix's last state enters the first lockstep step as a row-wise bias
        state = ad.tanh(ad.add(ad.add(ad.matmul(x, wx), ad.matmul(state, wh)), b))
        rows.append(state)
    flat = ad.concat(rows, axis=0)  # rows laid out as ``tokens``
    encoded = []
    for j, cand in enumerate(cands):
        idx = list(range(n)) + [n + i * k + j for i in range(len(cand))]
        states = flat if len(idx) == len(tokens) else ad.gather_rows(flat, np.asarray(idx))
        encoded.append(EncodedContext(states=states, pooled=ad.reduce_mean(states, axis=0)))
    return [encoded[lane] for lane in lane_of]


# ---------------------------------------------------------------------------
# heads


def _sigmoid_and_logs(logit: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """sigmoid(x), log sigmoid(x), log(1 - sigmoid(x)) via a stable pairing."""
    pair = ad.softmax(ad.stack_rows([logit, Tensor(0.0)]))
    logs = ad.log(pair)
    return ad.gather_rows(pair, 0), ad.gather_rows(logs, 0), ad.gather_rows(logs, 1)


def initializer_score_logit(params: ModelParams, pooled: Tensor) -> Tensor:
    t = params.tensors
    return ad.add(ad.matmul(pooled, t["init_w"]), t["init_b"])


def initializer_scores(params: ModelParams, example: DialogueExample, *,
                       prior: str, encodings: Sequence[EncodedContext] | None = None) -> Tensor:
    """Per-candidate relevance scores in (0, 1) from the selection head.

    Only defined for the uniform-prior configuration; the learnable prior
    replaces this head entirely.
    """
    if prior != "uniform":
        raise ContractError("initializer scores are only defined in uniform-prior mode")
    if encodings is None:
        encodings = encode_context(params, example)
    scores = []
    for enc in encodings:
        sig, _, _ = _sigmoid_and_logs(initializer_score_logit(params, enc.pooled))
        scores.append(sig)
    return ad.stack_rows(scores)


def knowledge_prior_logits(params: ModelParams, example: DialogueExample, *,
                           prior: str, encodings: Sequence[EncodedContext] | None = None) -> Tensor:
    """Per-candidate logits of the learnable knowledge prior (softmax weights).

    With one candidate the softmax puts mass 1 on it. Calling this under the
    uniform prior is a contract error.
    """
    if prior != "learnable":
        raise ContractError("knowledge prior logits are only defined in learnable-prior mode")
    if encodings is None:
        encodings = encode_context(params, example)
    t = params.tensors
    logits = []
    for enc in encodings:
        logits.append(ad.add(ad.matmul(enc.pooled, t["kprior_w"]), t["kprior_b"]))
    return ad.stack_rows(logits)


def latent_prior_mean(params: ModelParams, example: DialogueExample, s: int,
                      encoded: EncodedContext | None = None) -> Tensor:
    """Mean of the unit-variance Gaussian prior over the response latent."""
    enc = encoded if encoded is not None else encode_context(params, example, [s])[0]
    t = params.tensors
    return ad.add(ad.matmul(enc.pooled, t["zprior_w"]), t["zprior_b"])


def latent_prior_log_density(mu: Tensor, z) -> Tensor:
    """log N(z; mu, I) up to the additive constant: -||z - mu||^2 / 2."""
    zt = z if isinstance(z, Tensor) else Tensor(z)
    if zt.shape != mu.shape:
        raise ContractError(f"latent shape {zt.shape} does not match mean {mu.shape}")
    return ad.scale(ad.squared_l2(ad.sub(zt, mu)), -0.5)


# ---------------------------------------------------------------------------
# decoder


@dataclass
class DecoderCursor:
    """Incremental decoding state of one lane, or of k lanes in lockstep:
    attended slots, their projections, the recurrent state after the
    consumed prefix, the attention context of its last step and, for k
    lanes, the lane each slot belongs to."""

    slots: Tensor       # (N, hidden): the lanes' encoder states, then their latent slots
    proj: Tensor        # (N, att)
    state: Tensor       # (dec_hidden,) for one lane, (k, dec_hidden) for k
    seg: np.ndarray | None = None  # (N,) lane of each slot; None for one lane
    ctx: Tensor | None = None      # (hidden,) or (k, hidden); None before the first token


def decoder_start(params: ModelParams, encoded: EncodedContext | Sequence[EncodedContext],
                  z) -> DecoderCursor:
    """Cursor before the first token: one encoding with ``z`` of shape
    (latent,), or a sequence of k encodings with ``z`` of shape (k, latent)
    for k lanes decoded in lockstep."""
    t = params.tensors
    d = params.cfg.latent_dim
    zt = z if isinstance(z, Tensor) else Tensor(z)
    lanes = [encoded] if isinstance(encoded, EncodedContext) else list(encoded)
    if not lanes:
        raise ContractError("decoder_start needs at least one encoding")
    want = (d,) if isinstance(encoded, EncodedContext) else (len(lanes), d)
    if zt.shape != want:
        raise ContractError(f"latent has shape {zt.shape}, expected {want}")
    zrow = ad.add(ad.matmul(zt, t["zslot_w"]), t["zslot_b"])
    slots = ad.concat([enc.states for enc in lanes] + [zrow], axis=0)
    proj = ad.matmul(slots, t["att_enc"])
    if isinstance(encoded, EncodedContext):
        pooled, seg = encoded.pooled, None
    else:
        pooled = ad.stack_rows([enc.pooled for enc in lanes])
        seg = np.concatenate([np.full(enc.states.shape[0], j) for j, enc in enumerate(lanes)]
                             + [np.arange(len(lanes))])
    state = ad.tanh(ad.add(ad.matmul(pooled, t["dec_init_w"]), t["dec_init_b"]))
    return DecoderCursor(slots=slots, proj=proj, state=state, seg=seg)


def decoder_advance(params: ModelParams, cur: DecoderCursor, token: int) -> DecoderCursor:
    """Consume one token in every lane: the attention and recurrent step.
    ``output_logits`` of the new cursor's state and context gives the
    next-token logits."""
    t = params.tensors
    if not 0 <= token < params.cfg.vocab_size:
        raise ContractError(f"decoder input token {token} outside vocabulary")
    e = ad.gather_rows(t["embed"], int(token))
    q = ad.add(ad.matmul(cur.state, t["att_dec"]), t["att_b"])
    if cur.seg is not None:
        q = ad.gather_rows(q, cur.seg)  # each slot meets its own lane's query
    scores = ad.matmul(ad.tanh(ad.add(cur.proj, q)), t["att_v"])
    if cur.seg is None:
        weights = ad.softmax(scores)
    else:
        weights = ad.segment_softmax(scores, cur.seg, cur.state.shape[0])
    ctx = ad.matmul(weights, cur.slots)
    # the context term comes first: the engine broadcasts only a second operand
    pre = ad.add(ad.add(ad.matmul(ctx, t["dec_wc"]), ad.matmul(e, t["dec_wx"])),
                 ad.add(ad.matmul(cur.state, t["dec_wh"]), t["dec_b"]))
    return DecoderCursor(slots=cur.slots, proj=cur.proj, state=ad.tanh(pre), seg=cur.seg,
                         ctx=ctx)


def output_logits(params: ModelParams, state: Tensor, ctx: Tensor) -> Tensor:
    """The output head: next-token logits of decoder states and their
    attention contexts, (V,) for one row or (n, V) for n rows."""
    t = params.tensors
    return ad.add(ad.add(ad.matmul(state, t["out_w"]), ad.matmul(ctx, t["out_c"])),
                  t["out_b"])


def _lockstep_start(params: ModelParams, example: DialogueExample, indices: Sequence[int],
                    z, encoded: Sequence[EncodedContext] | None) -> tuple[DecoderCursor, np.ndarray]:
    """Cursor over the distinct (truncated candidate, latent) pairs of
    ``indices``, and the lane of each index."""
    cfg = params.cfg
    indices = list(indices)
    if not indices:
        raise ContractError("a lockstep decode needs at least one candidate index")
    m = len(example.candidates)
    for s in indices:
        if not _is_index(s) or not 0 <= s < m:
            raise ContractError(f"candidate index {s!r} out of range")
    zt = z if isinstance(z, Tensor) else Tensor(z)
    if zt.shape != (len(indices), cfg.latent_dim):
        raise ContractError(f"latents have shape {zt.shape}, expected "
                            f"({len(indices)}, {cfg.latent_dim})")
    encs = encode_context(params, example, indices) if encoded is None else list(encoded)
    if len(encs) != len(indices):
        raise ContractError(f"{len(encs)} encodings for {len(indices)} candidate indices")
    lanes: dict[tuple, int] = {}
    firsts, lane_of = [], []
    for pos, s in enumerate(indices):
        key = (tuple(example.candidates[s][:cfg.max_candidate]), zt.data[pos].tobytes())
        if key not in lanes:
            lanes[key] = len(firsts)
            firsts.append(pos)
        lane_of.append(lanes[key])
    if len(firsts) == 1:
        cur = decoder_start(params, encs[firsts[0]], ad.gather_rows(zt, firsts[0]))
    else:
        cur = decoder_start(params, [encs[pos] for pos in firsts],
                            ad.gather_rows(zt, np.asarray(firsts)))
    return cur, np.asarray(lane_of)


def decode_logprob(params: ModelParams, example: DialogueExample, s: int | Sequence[int], z,
                   encoded: EncodedContext | Sequence[EncodedContext] | None = None) -> Tensor:
    """Teacher-forced log-probability of the full response under candidate
    ``s`` and latent ``z``. Tokens after the first end-of-sequence token are
    padding and do not contribute.

    An int ``s`` gives a scalar tensor. A sequence of k indices, with ``z``
    of shape (k, latent) and ``encoded`` (if given) one encoding per index,
    gives a (k,) tensor from one lockstep pass. Its lanes are the distinct
    pairs of truncated candidate and latent row: a repeated pair shares its
    first occurrence's lane, so the two tie exactly (a matrix product may
    round equal rows differently), and its gradient in ``z`` reaches that
    first row. A lone lane runs the one-candidate ops.

    The recurrence steps token by token; the output head then runs once
    over every step's rows. Each token's log-probability is taken as
    (x_t - x_top) + log softmax(x)_top, where x_top is its row's largest
    logit: the softmax there is at least 1/V, so the log stays finite
    however confident the model is.
    """
    cfg = params.cfg
    response = list(example.response)
    if EOS in response:
        response = response[:response.index(EOS) + 1]
    if not response:
        raise ContractError("cannot score an empty response")
    if len(response) > cfg.max_response:
        raise ContractError(
            f"response of length {len(response)} exceeds the cap {cfg.max_response}")
    _check_tokens(response, cfg.vocab_size, "response")
    if _is_index(s):
        enc = encoded if encoded is not None else encode_context(params, example, [s])[0]
        cur, lane_of = decoder_start(params, enc, z), None
    else:
        cur, lane_of = _lockstep_start(params, example, s, z, encoded)
    states, ctxs = [], []
    prev = BOS
    for target in response:
        cur = decoder_advance(params, cur, prev)
        states.append(cur.state)
        ctxs.append(cur.ctx)
        prev = int(target)
    # row t*k + j holds step t of lane j
    k = 1 if cur.seg is None else cur.state.shape[0]
    logits = output_logits(params, ad.concat(states, axis=0), ad.concat(ctxs, axis=0))
    rows = np.arange(len(response) * k)
    top = np.zeros(logits.shape)
    top[rows, logits.data.argmax(axis=1)] = 1.0
    pick = np.zeros(logits.shape)
    pick[rows, np.repeat(response, k)] = 1.0
    # one-hot and 0/1 products pick entries and sum each lane's rows exactly
    ones = Tensor(np.ones(cfg.vocab_size))
    gap = ad.matmul(ad.multiply(logits, Tensor(pick - top)), ones)
    log_top = ad.log(ad.matmul(ad.multiply(ad.softmax(logits), Tensor(top)), ones))
    lanes = Tensor((rows % k == np.arange(k)[:, None]).astype(np.float64))
    total = ad.matmul(lanes, ad.add(gap, log_top))
    return ad.gather_rows(total, 0 if lane_of is None else lane_of)
