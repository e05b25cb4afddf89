"""Conditional sequence model: shared recurrent encoder, knowledge heads,
latent-prior head, and an attention decoder conditioned on a continuous
latent injected as one extra attended slot.

Every forward function takes the parameter set explicitly and records on the
active autodiff tape when one is open, so the same code path serves
inference (no tape) and learning (taped).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
        if not self.history and [] in self.candidates:
            raise ContractError(f"candidate {self.candidates.index([])} is empty and so is "
                                f"the history: the encoder has nothing to read")


@dataclass
class LatentPair:
    """A posterior draw: discrete knowledge index and continuous latent."""

    s: int
    z: np.ndarray


# ---------------------------------------------------------------------------
# parameters

# the (weight, bias) of each selection head
HEADS = {"initializer": ("init_w", "init_b"), "knowledge_prior": ("kprior_w", "kprior_b")}


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

    def head_names(self, head: str) -> tuple[str, str]:
        if head not in HEADS:
            raise ContractError(f"unknown head {head!r}")
        return HEADS[head]


# ---------------------------------------------------------------------------
# encoder


class EncodedContext:
    """Per-token encoder states of one lane and their mean-pooled summary.

    A lane made off the tape keeps only its row indices into its pass's row
    matrix, and ``states`` gathers them on each read, so a pass over many
    lanes holds its rows once, not once per lane. On a tape the gathered
    rows are kept, since the tape holds them anyway."""

    __slots__ = ("pooled", "_rows", "_idx", "_states")

    def __init__(self, rows: Tensor, idx: np.ndarray | None):
        states = rows if idx is None else ad.gather_rows(rows, idx)
        self.pooled = ad.reduce_mean(states, axis=0)  # (hidden,)
        self._rows, self._idx = rows, idx
        self._states = states if idx is None or states.requires_grad else None

    @property
    def states(self) -> Tensor:  # (L, hidden)
        if self._states is not None:
            return self._states
        return ad.gather_rows(self._rows, self._idx)

    def own_states(self) -> EncodedContext:
        """Gather this lane's rows once and let go of its pass's row matrix,
        so the pass can be freed while the lane lives on."""
        self._states = self.states
        self._rows = self._idx = None
        return self


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


def _encoder_steps(params: ModelParams, emb: Tensor, state: Tensor, steps) -> list[Tensor]:
    """The recurrent states after each step, a step reading its rows of ``emb``."""
    t = params.tensors
    wx, wh, b = t["enc_wx"], t["enc_wh"], t["enc_b"]
    rows = []
    for step in steps:
        state = ad.tanh(ad.add(ad.add(ad.matmul(ad.gather_rows(emb, step), wx),
                                      ad.matmul(state, wh)), b))
        rows.append(state)
    return rows


def encode_context(params: ModelParams, example: DialogueExample,
                   indices: Sequence[int] | None = None) -> list[EncodedContext]:
    """Encode the history joined by the separator token to each requested
    candidate (every candidate by default): ``encode_batch`` of one example."""
    return encode_batch(params, [example], [indices])[0]


def encode_batch(params: ModelParams, examples: Sequence[DialogueExample],
                 indices: Sequence[Sequence[int] | None] | None = None
                 ) -> list[list[EncodedContext]]:
    """Encode each example's history joined by the separator token to each
    of its requested candidates (``indices[e]``; every candidate by
    default), for the whole batch in one lockstep pass.

    History longer than the cap keeps its most recent tokens; a candidate
    keeps its head. The E prefixes advance first as the rows of one
    (E, hidden) state, left-aligned with padding past each one's end. Each
    lane, a distinct truncated candidate of one example, then starts from
    its own example's last prefix state, and the lanes of every example
    advance in lockstep as the rows of one (K, hidden) state padded to the
    longest. Equal truncated candidates of one example share one encoding,
    so their scores tie exactly: a matrix product may round two equal rows
    differently. Lanes of different examples never share.
    """
    cfg = params.cfg
    if indices is None:
        indices = [None] * len(examples)
    elif len(indices) != len(examples):
        raise ContractError(f"{len(indices)} index lists for {len(examples)} examples")
    prefixes = []
    lanes: dict[tuple[int, tuple[int, ...]], int] = {}  # (example, candidate) -> lane
    lane_of = []
    for e, (example, wanted) in enumerate(zip(examples, indices)):
        m = len(example.candidates)
        hist = list(example.history[-cfg.max_history:])
        prefixes.append(hist + [SEP])
        mine = []
        for s in (range(m) if wanted is None else wanted):
            if not 0 <= s < m:
                raise ContractError(f"candidate index {s} out of range")
            cand = tuple(example.candidates[s][:cfg.max_candidate])
            if not hist and not cand:
                raise ContractError("cannot encode an empty history with an empty candidate")
            mine.append(lanes.setdefault((e, cand), len(lanes)))
        lane_of.append(mine)
    n_ex, k = len(examples), len(lanes)
    n = max(map(len, prefixes), default=0)
    width = max((len(c) for _, c in lanes), default=0)
    # row i*E + e holds prefix token i of example e, then row E*n + i*k + j
    # holds token i of lane j (PAD past either's end)
    base = n_ex * n
    tokens = [p[i] if i < len(p) else PAD for i in range(n) for p in prefixes]
    tokens += [c[i] if i < len(c) else PAD for i in range(width) for _, c in lanes]
    _check_tokens(tokens, cfg.vocab_size, "context")
    if not lanes:
        return [[] for _ in examples]
    emb = ad.gather_rows(params.tensors["embed"], np.asarray(tokens, dtype=np.int64))
    # a lone example's prefix steps read one row each, so its last state is a
    # vector, which enters the first lockstep step as a row-wise bias: two
    # tape nodes fewer, and less time, than a (1, hidden) row state with its
    # concat and gather
    one = n_ex == 1
    rows = _encoder_steps(params, emb, Tensor(np.zeros(cfg.hidden_dim)),
                          range(n) if one else [slice(i * n_ex, (i + 1) * n_ex)
                                                for i in range(n)])
    if one:
        start = rows[-1]
    else:  # each lane starts from its own example's last prefix row
        ends = sorted({len(p) for p in prefixes})
        # row a*E + e of ``last`` is example e's state after ends[a] prefix tokens
        last = ad.concat([rows[end - 1] for end in ends])
        start = ad.gather_rows(last, np.asarray(
            [ends.index(len(prefixes[e])) * n_ex + e for e, _ in lanes]))
    rows += _encoder_steps(params, emb, start,
                           [slice(base + i * k, base + (i + 1) * k) for i in range(width)])
    # the concatenation holds every row twice, the pass's peak memory: drop
    # what is done with before it, and the step rows after it
    del emb, start
    flat = ad.concat(rows)  # rows laid out as ``tokens``
    del rows
    encoded = []
    for j, (e, cand) in enumerate(lanes):
        idx = [*range(e, len(prefixes[e]) * n_ex, n_ex),
               *range(base + j, base + len(cand) * k, k)]
        encoded.append(EncodedContext(flat, None if len(idx) == len(tokens) else np.asarray(idx)))
    return [[encoded[lane] for lane in mine] for mine in lane_of]


# ---------------------------------------------------------------------------
# heads


def head_logits(params: ModelParams, head: str,
                encodings: Sequence[EncodedContext]) -> Tensor:
    """Logits pooled . w + b of a selection head, one per encoding; the only
    code that applies a head. Each distinct encoding is one row of a single
    matrix product, so equal candidates, which share an encoding, tie
    exactly: a matrix product may round two equal rows differently.
    Non-finite logits raise ``NumericError``."""
    w_name, b_name = params.head_names(head)
    pooled = {id(enc): enc.pooled for enc in encodings}  # first occurrence order
    row = {key: i for i, key in enumerate(pooled)}
    t = params.tensors
    # the engine broadcasts only row biases, so the scalar bias meets a ones vector
    logits = ad.add(ad.matmul(ad.concat(list(pooled.values())), t[w_name]),
                    ad.multiply(Tensor(np.ones(len(pooled))), t[b_name]))
    ad.check_finite(logits.data, f"{head} head output")
    return ad.gather_rows(logits, np.asarray([row[id(enc)] for enc in encodings]))


def initializer_scores(params: ModelParams, example: DialogueExample,
                       *, encodings: Sequence[EncodedContext] | None = None) -> np.ndarray:
    """Per-candidate relevance scores in [0, 1] of the initializer head, the
    sigmoid of its logits, as plain values. The learnable prior replaces
    this head entirely."""
    if encodings is None:
        encodings = encode_context(params, example)
    x = head_logits(params, "initializer", encodings).data
    # the two forms a softmax over (x, 0) takes; exp(-|x|) cannot overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (e + 1.0))


def knowledge_prior_logits(params: ModelParams, example: DialogueExample,
                           *, encodings: Sequence[EncodedContext] | None = None) -> Tensor:
    """Per-candidate logits of the learnable knowledge prior (softmax
    weights). With one candidate the softmax puts mass 1 on it."""
    if encodings is None:
        encodings = encode_context(params, example)
    return head_logits(params, "knowledge_prior", encodings)


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
    lanes, the lane each slot belongs to. A lane's slots are contiguous:
    its encoder states, then its latent slot."""

    slots: Tensor       # (N, hidden)
    proj: Tensor        # (N, att)
    state: Tensor       # (dec_hidden,) for one lane, (k, dec_hidden) for k
    seg: np.ndarray | None = None  # (N,) lane of each slot, ascending; None for one lane
    ctx: Tensor | None = None      # (hidden,) or (k, hidden); None before the first token


def decoder_start(params: ModelParams, encoded: Sequence[EncodedContext], z) -> DecoderCursor:
    """Cursor before the first token of k lanes decoded in lockstep, from k
    encodings and ``z`` of shape (k, latent).

    The only code that picks the decoder ops: a lone lane gets the one-lane
    cursor (vectors, ``seg`` None), which runs faster than a one-lane
    segment layout, and ``decoder_advance`` follows the cursor."""
    t = params.tensors
    lanes = list(encoded)
    if not lanes:
        raise ContractError("decoder_start needs at least one encoding")
    zt = z if isinstance(z, Tensor) else Tensor(z)
    want = (len(lanes), params.cfg.latent_dim)
    if zt.shape != want:
        raise ContractError(f"latent has shape {zt.shape}, expected {want}")
    zrow = ad.add(ad.matmul(zt, t["zslot_w"]), t["zslot_b"])
    states = [enc.states for enc in lanes]
    slots = ad.concat(states + [zrow])
    if len(lanes) == 1:
        pooled, seg = lanes[0].pooled, None
    else:
        lengths = [rows.shape[0] for rows in states]
        n, order, start = sum(lengths), [], 0
        for j, length in enumerate(lengths):  # lane j's encoder rows, then its latent row
            order += [*range(start, start + length), n + j]
            start += length
        slots = ad.gather_rows(slots, np.asarray(order))
        pooled = ad.concat([enc.pooled for enc in lanes])
        seg = np.repeat(np.arange(len(lanes)), np.add(lengths, 1))
    proj = ad.matmul(slots, t["att_enc"])
    state = ad.tanh(ad.add(ad.matmul(pooled, t["dec_init_w"]), t["dec_init_b"]))
    return DecoderCursor(slots=slots, proj=proj, state=state, seg=seg)


def decoder_advance(params: ModelParams, cur: DecoderCursor, tokens) -> DecoderCursor:
    """Consume one token in every lane: ``tokens`` holds one id per lane, or
    one id that every lane reads. ``output_logits`` of the new cursor's
    state and context gives the next-token logits."""
    t = params.tensors
    ids = [tokens] if _is_index(tokens) else np.asarray(tokens).reshape(-1).tolist()
    if len(ids) != 1 and (cur.seg is None or len(ids) != cur.state.shape[0]):
        raise ContractError(f"decoder input {ids} is not one token id per lane")
    _check_tokens(ids, params.cfg.vocab_size, "decoder input")
    # an id that every lane reads enters as one row, broadcast as a row bias
    e = ad.gather_rows(t["embed"], ids[0] if len(ids) == 1 else np.asarray(ids))
    q = ad.add(ad.matmul(cur.state, t["att_dec"]), t["att_b"])
    if cur.seg is not None:
        q = ad.gather_rows(q, cur.seg)  # each slot meets its own lane's query
    scores = ad.matmul(ad.tanh(ad.add(cur.proj, q)), t["att_v"])
    if cur.seg is None:
        ctx = ad.matmul(ad.softmax(scores), cur.slots)
    else:
        ctx = ad.segment_attention(scores, cur.slots, cur.seg)
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


def _scored_response(cfg: ModelConfig, example: DialogueExample) -> list[int]:
    """The response up to its first end-of-sequence token; the rest is padding."""
    response = list(example.response)
    if EOS in response:
        response = response[:response.index(EOS) + 1]
    if not response:
        raise ContractError("cannot score an empty response")
    if len(response) > cfg.max_response:
        raise ContractError(
            f"response of length {len(response)} exceeds the cap {cfg.max_response}")
    _check_tokens(response, cfg.vocab_size, "response")
    return response


def _lockstep_start(params: ModelParams, examples: Sequence[DialogueExample],
                    indices: Sequence[int], z,
                    encoded: Sequence[EncodedContext] | None
                    ) -> tuple[DecoderCursor, list[int], np.ndarray]:
    """Cursor over the distinct (example, truncated candidate, latent row)
    lanes of the k (example, index) pairs, the first pair of each lane and
    the lane of each pair."""
    cfg = params.cfg
    if not indices:
        raise ContractError("a lockstep decode needs at least one candidate index")
    if len(examples) != len(indices):
        raise ContractError(f"{len(examples)} examples for {len(indices)} candidate indices")
    for ex, s in zip(examples, indices):
        if not _is_index(s) or not 0 <= s < len(ex.candidates):
            raise ContractError(f"candidate index {s!r} out of range")
    zt = z if isinstance(z, Tensor) else Tensor(z)
    if zt.shape != (len(indices), cfg.latent_dim):
        raise ContractError(f"latents have shape {zt.shape}, expected "
                            f"({len(indices)}, {cfg.latent_dim})")
    if encoded is None:
        # one encoder pass: each distinct example with the indices its lanes ask for
        mine: dict[int, list[int]] = {}
        for pos, ex in enumerate(examples):
            mine.setdefault(id(ex), []).append(pos)
        encoded = [None] * len(indices)
        batch = encode_batch(params, [examples[ps[0]] for ps in mine.values()],
                             [[indices[p] for p in ps] for ps in mine.values()])
        for ps, encs in zip(mine.values(), batch):
            for pos, enc in zip(ps, encs):
                encoded[pos] = enc
    encs = list(encoded)
    if len(encs) != len(indices):
        raise ContractError(f"{len(encs)} encodings for {len(indices)} candidate indices")
    # lanes of different examples never merge: their histories and responses differ
    lanes: dict[tuple, int] = {}
    firsts, lane_of = [], []
    for pos, (ex, s) in enumerate(zip(examples, indices)):
        key = (id(ex), tuple(ex.candidates[s][:cfg.max_candidate]), zt.data[pos].tobytes())
        if key not in lanes:
            lanes[key] = len(firsts)
            firsts.append(pos)
        lane_of.append(lanes[key])
    cur = decoder_start(params, [encs[pos] for pos in firsts],
                        ad.gather_rows(zt, np.asarray(firsts)))
    return cur, firsts, np.asarray(lane_of)


def decode_logprob(params: ModelParams, example: DialogueExample | Sequence[DialogueExample],
                   s: int | Sequence[int], z,
                   encoded: EncodedContext | Sequence[EncodedContext] | None = None) -> Tensor:
    """Teacher-forced log-probability of the full response under candidate
    ``s`` and latent ``z``. Tokens after the first end-of-sequence token are
    padding and do not contribute.

    An int ``s`` gives a scalar tensor. A sequence of k indices, with ``z``
    of shape (k, latent) and ``encoded`` (if given) one encoding per index,
    gives a (k,) tensor from one lockstep pass; entry j scores candidate
    ``s[j]`` of ``example``, or of ``example[j]`` for a sequence of k
    examples, against that example's own response. The lanes are the
    distinct (example, truncated candidate, latent row) triples: a repeated
    triple shares its first occurrence's lane, so the two tie exactly (a
    matrix product may round equal rows differently), and its gradient in
    ``z`` reaches that first row.

    The recurrence steps every lane token by token; a live mask drops the
    steps past a lane's end. The output head then runs once over every
    step's rows. Each token's log-probability is taken as (x_t - x_top) +
    log softmax(x)_top, where x_top is its row's largest logit: the softmax
    there is at least 1/V, so the log stays finite however confident the
    model is. A non-finite total (an overflow in the weights) raises
    ``NumericError``.
    """
    cfg = params.cfg
    one = _is_index(s)
    if one:  # lane 0 of a one-index lockstep, returned as a scalar
        if not isinstance(example, DialogueExample):
            raise ContractError("one candidate index scores one example")
        s, z = [s], ad.concat([z]) if isinstance(z, Tensor) else np.asarray(z)[None]
        encoded = None if encoded is None else [encoded]
    indices = list(s)
    examples = ([example] * len(indices) if isinstance(example, DialogueExample)
                else list(example))
    scored = {id(ex): _scored_response(cfg, ex) for ex in examples}
    cur, firsts, lane_of = _lockstep_start(params, examples, indices, z, encoded)
    responses = [scored[id(examples[pos])] for pos in firsts]
    k = len(responses)
    lengths = np.array([len(r) for r in responses])
    width = int(lengths.max())
    # targets[t, j] is lane j's step-t target; past the lane's end, padding
    targets = np.array([r + [PAD] * (width - len(r)) for r in responses]).T
    # step t reads the step t-1 targets, one id for all when the lanes agree
    shared = (targets == targets[:, :1]).all()
    feed = [BOS] + (targets[:-1, 0].tolist() if shared else list(targets[:-1]))
    states, ctxs = [], []
    for step in range(width):
        cur = decoder_advance(params, cur, feed[step])
        states.append(cur.state)
        ctxs.append(cur.ctx)
    # row t*k + j holds step t of lane j
    logits = output_logits(params, ad.concat(states), ad.concat(ctxs))
    rows = np.arange(width * k)
    top = np.zeros(logits.shape)
    top[rows, logits.data.argmax(axis=1)] = 1.0
    pick = np.zeros(logits.shape)
    pick[rows, targets.reshape(-1)] = 1.0
    # one-hot and 0/1 products pick entries and sum each lane's live rows exactly
    ones = Tensor(np.ones(cfg.vocab_size))
    gap = ad.matmul(ad.multiply(logits, Tensor(pick - top)), ones)
    log_top = ad.log(ad.matmul(ad.multiply(ad.softmax(logits), Tensor(top)), ones))
    live = (rows % k == np.arange(k)[:, None]) & (rows // k < lengths[:, None])
    total = ad.matmul(Tensor(live.astype(np.float64)), ad.add(gap, log_top))
    ad.check_finite(total.data, "response log-probability")
    return ad.gather_rows(total, 0 if one else lane_of)
