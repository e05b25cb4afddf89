"""Conditional sequence model: shared recurrent encoder, one knowledge
selection head, latent-prior head, and an attention decoder conditioned on a
continuous latent injected as one extra attended slot.

Every forward function takes the parameter set explicitly and records on the
active autodiff tape when one is open, so the same code path serves
inference (no tape) and learning (taped).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

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


# ---------------------------------------------------------------------------
# encoder


class _Pass:
    """The rows of one encoder pass, (R, hidden), its lanes' mean-pooled
    rows, (K, hidden), and where each lane's states lie: lane j's are rows
    ``windows.index[j, :windows.lengths[j]]``, in order."""

    __slots__ = ("rows", "pooled", "windows")

    def __init__(self, rows: Tensor, windows: ad.Windows, pooled: Tensor | None = None):
        self.rows, self.windows = rows, windows
        # every lane of the pass pooled in one call, with no copy of its rows
        self.pooled = ad.reduce_mean(rows, windows=windows) if pooled is None else pooled


class EncodedContext:
    """One lane of an encoder pass: its per-token encoder states, (L,
    hidden), and their mean-pooled summary, (hidden,).

    A lane holds only its pass and its row in it. ``pooled`` takes the
    lane's row of the pass's pooled matrix, which ``encode_batch`` makes for
    every lane at once. ``states`` gathers the lane's rows on each read, so
    a pass over many lanes holds its rows once, not once per lane; on a tape
    the gathered rows are kept, since the tape holds them anyway. Code that
    reads many lanes at once (``_pooled_product``, ``decoder_start``,
    ``keep_lanes``) takes them through ``_lane_pooled`` and
    ``_lane_states``, the only code that reads lane sets out of a pass
    (``states`` reads its lane through the second), and the lanes read
    together must be lanes of one pass. ``keep_lanes``
    gathers lanes into a pass of their own, so the pass they came from can
    be freed while they live on.

    A lane also records what it encodes: its ``example`` and the candidate
    ``indices`` of it that asked for this lane (equal candidates share one),
    so a decode can check that it is handed the right encodings."""

    __slots__ = ("_pass", "lane", "example", "indices", "_states", "_pooled")

    def __init__(self, pass_: _Pass, lane: int, example: "DialogueExample",
                 indices: tuple[int, ...]):
        self._pass, self.lane = pass_, lane
        self.example, self.indices = example, indices
        self._states = self._pooled = None

    @property
    def pooled(self) -> Tensor:  # (hidden,)
        if self._pooled is None:
            self._pooled = ad.gather_rows(self._pass.pooled, self.lane)
        return self._pooled

    @property
    def states(self) -> Tensor:  # (L, hidden)
        if self._states is not None:
            return self._states
        states = _lane_states([self])[0]
        if states.requires_grad or states is self._pass.rows:
            self._states = states
        return states


def distinct_lanes(keys: Iterable[Hashable]) -> tuple[list[int], np.ndarray | None]:
    """Which entries are one lane: the first position of each distinct key,
    ascending, and each entry's index among them, or None when every key is
    distinct. A product over lanes runs once per distinct lane, so equal
    lanes get equal bits (a matrix product may round equal rows apart)."""
    first: dict = {}
    at = [first.setdefault(key, pos) for pos, key in enumerate(keys)]
    firsts = list(first.values())
    return firsts, None if len(firsts) == len(at) else np.searchsorted(firsts, at)


def _one_pass(encodings: Sequence[EncodedContext]) -> tuple[_Pass, list[int], bool]:
    """The pass the encodings are lanes of, their lanes, and whether they
    are every lane of it in order; no lanes, or lanes of several passes,
    raise ``ContractError``."""
    if not encodings:
        raise ContractError("no encodings to read")
    pass_ = encodings[0]._pass
    if any(enc._pass is not pass_ for enc in encodings):
        raise ContractError("encodings read together must be lanes of one encoder pass")
    lanes, k = [enc.lane for enc in encodings], pass_.windows.lengths.shape[0]
    return pass_, lanes, len(lanes) == k and lanes == list(range(k))


def _lane_pooled(encodings: Sequence[EncodedContext]) -> Tensor:
    """The encodings' pooled rows, (n, hidden): one gather from their pass,
    none when they are every lane of it in order. A lone lane of a wider
    pass reads its own row (``EncodedContext.pooled``), so its prior mean
    and a one-lane decode of it share one gather."""
    pass_, lanes, every = _one_pass(encodings)
    if every:
        return pass_.pooled
    if len(lanes) == 1:
        return ad.concat([encodings[0].pooled])
    return ad.gather_rows(pass_.pooled, np.asarray(lanes))


def _lane_states(encodings: Sequence[EncodedContext]) -> tuple[Tensor, np.ndarray]:
    """The encodings' states end to end and their lengths: one gather from
    their pass, none when they are every lane of it in order and its rows
    are theirs alone, in order (a pass of ``keep_lanes``, or of one lane)."""
    pass_, lanes, every = _one_pass(encodings)
    windows = pass_.windows
    if every and windows.segments and windows.span == pass_.rows.shape[0]:
        return pass_.rows, windows.lengths
    return (ad.gather_rows(pass_.rows, windows.index[lanes][windows.live[lanes]]),
            windows.lengths[lanes])


def keep_lanes(encodings: Sequence[EncodedContext]) -> list[EncodedContext]:
    """The encodings, lanes of one pass, gathered into a pass of their own
    (one gather of states and one of pooled rows), so the pass they came
    from can be freed while they live on."""
    rows, lengths = _lane_states(encodings)
    kept = _Pass(rows, ad.Windows.of_segments(lengths), _lane_pooled(encodings))
    return [EncodedContext(kept, j, enc.example, enc.indices)
            for j, enc in enumerate(encodings)]


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


def _encoder_steps(params: ModelParams, inputs: Tensor, state: Tensor, steps) -> list[Tensor]:
    """The recurrent states after each step, a step reading its rows of
    ``inputs``, the tokens' input projections."""
    wh = params.tensors["enc_wh"]
    rows = []
    for step in steps:
        state = ad.matmul(state, wh, plus=ad.gather_rows(inputs, step), tanh=True)
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
    so they tie exactly in every product over lanes (``distinct_lanes``).
    Lanes of different examples never share. Only this pass reads the caps.

    A lone example is the case E = 1, on the same path: its prefix advances
    as a (1, hidden) row state, and its lanes start through the same
    concatenation and gather of last prefix rows as a batch's.

    The input projection does not depend on the state, so the pass makes
    it once for all its tokens, embed[tokens] @ enc_wx + enc_b, one row per
    token read, and a step is tanh(its rows + state @ enc_wh): one slice and
    one product per step.
    """
    cfg = params.cfg
    if indices is None:
        indices = [None] * len(examples)
    elif len(indices) != len(examples):
        raise ContractError(f"{len(indices)} index lists for {len(examples)} examples")
    prefixes = []
    lanes: dict[tuple[int, tuple[int, ...]], int] = {}  # (example, candidate) -> lane
    lane_of, asked = [], []  # each example's lanes; each lane's candidate indices
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
            lane = lanes.setdefault((e, cand), len(lanes))
            if lane == len(asked):
                asked.append([])
            asked[lane].append(s)
            mine.append(lane)
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
    t = params.tensors
    # the input projection of every token of the pass, once; a step slices its rows
    inputs = ad.matmul(ad.gather_rows(t["embed"], np.asarray(tokens, dtype=np.int64)),
                       t["enc_wx"], plus=t["enc_b"])
    rows = _encoder_steps(params, inputs, Tensor(np.zeros(cfg.hidden_dim)),
                          [slice(i * n_ex, (i + 1) * n_ex) for i in range(n)])
    # each lane starts from its own example's last prefix row
    ends = sorted({len(p) for p in prefixes})
    # row a*E + e of ``last`` is example e's state after ends[a] prefix tokens
    last = ad.concat([rows[end - 1] for end in ends])
    start = ad.gather_rows(last, np.asarray(
        [ends.index(len(prefixes[e])) * n_ex + e for e, _ in lanes]))
    rows += _encoder_steps(params, inputs, start,
                           [slice(base + i * k, base + (i + 1) * k) for i in range(width)])
    # the concatenation holds every row twice, the pass's peak memory: drop
    # what is done with before it, and the step rows after it
    del inputs, last, start
    flat = ad.concat(rows)  # rows laid out as ``tokens``
    del rows
    # lane j reads its example's prefix rows, then its own candidate rows
    ex = np.asarray([e for e, _ in lanes])
    plen = np.asarray([len(p) for p in prefixes])[ex]
    length = plen + np.asarray([len(c) for _, c in lanes])
    # entries past a lane's end repeat its last row
    w = np.minimum(np.arange(int(length.max())), length[:, None] - 1)
    index = np.where(w < plen[:, None], ex[:, None] + w * n_ex,
                     base + np.arange(k)[:, None] + (w - plen[:, None]) * k)
    pass_ = _Pass(flat, ad.Windows(index, length))
    encoded = [EncodedContext(pass_, j, examples[e], tuple(asked[j]))
               for j, (e, _) in enumerate(lanes)]
    return [[encoded[lane] for lane in mine] for mine in lane_of]


# ---------------------------------------------------------------------------
# heads


def _pooled_product(encodings: Sequence[EncodedContext], w: Tensor, b: Tensor) -> Tensor:
    """pooled . w + b of each encoding (lanes of one pass): one product over
    the distinct encodings' pooled rows (``distinct_lanes``, ``_lane_pooled``),
    gathered back only when an encoding repeats."""
    firsts, lane_of = distinct_lanes(encodings)
    out = ad.matmul(_lane_pooled([encodings[pos] for pos in firsts]), w, plus=b)
    return out if lane_of is None else ad.gather_rows(out, lane_of)


def head_logits(params: ModelParams, encodings: Sequence[EncodedContext]) -> Tensor:
    """Logits pooled . init_w + init_b of the knowledge selection head, one
    per encoding (lanes of one pass), from one ``_pooled_product``; the only
    code that applies the head. Equal candidates share an encoding, so they
    tie exactly. Non-finite logits raise ``NumericError``."""
    logits = _pooled_product(encodings, params["init_w"], params["init_b"])
    ad.check_finite(logits.data, "selection head output")
    return logits


def prior_scores(params: ModelParams,
                 encodings_batch: Sequence[Sequence[EncodedContext]]) -> list[np.ndarray]:
    """Response-free knowledge scores of each example's candidates
    (``encodings_batch[e]``, lanes of one pass), as plain values: the head's
    logits, from one ``head_logits`` product over every encoding given and
    split by example. Selection ranks its top-S by them, the learnable prior
    weights that subset by them, and the test-time pick is their argmax."""
    if not encodings_batch:
        return []
    x = head_logits(params, [enc for encs in encodings_batch for enc in encs]).data
    scores, lo = [], 0
    for encs in encodings_batch:
        scores.append(x[lo:lo + len(encs)])
        lo += len(encs)
    return scores


def latent_prior_means(params: ModelParams, encodings: Sequence[EncodedContext]) -> Tensor:
    """Means of the unit-variance Gaussian prior over the response latent,
    one per encoding (lanes of one pass), (n, latent), from one
    ``_pooled_product``. A matrix product of more rows may round a row
    apart from a lone encoding's."""
    return _pooled_product(encodings, params["zprior_w"], params["zprior_b"])


def latent_prior_mean(params: ModelParams, example: DialogueExample, s: int) -> Tensor:
    """The (latent,) row of ``latent_prior_means`` of candidate ``s`` alone,
    encoded in a pass of its own."""
    return ad.gather_rows(latent_prior_means(params, encode_context(params, example, [s])), 0)


def latent_prior_log_density(mu: Tensor, z) -> Tensor:
    """log N(z; mu, I) up to the additive constant: -||z - mu||^2 / 2, a
    scalar for a (latent,) mean, one per row for (n, latent) rows. It is
    taken as -||mu - z||^2 / 2, whose square has the same bits, so that a
    constant ``z`` is negated off the tape."""
    zt = z if isinstance(z, Tensor) else Tensor(z)
    if zt.shape != mu.shape:
        raise ContractError(f"latent shape {zt.shape} does not match mean {mu.shape}")
    return ad.scale(ad.squared_l2(ad.sub(mu, zt)), -0.5)


# ---------------------------------------------------------------------------
# decoder


@dataclass(slots=True)
class DecoderCursor:
    """Incremental decoding state of one lane, or of k lanes in lockstep.

    What a decode holds fixed is built once, in ``decoder_start``: the
    attended slots and their attention projections with the attention bias
    added. A step moves the recurrent state after the consumed prefix and
    the attention context of its last step. A lane's N slots are
    contiguous: its encoder states, then its latent slot. For k lanes the
    cursor also holds the slot windows, and the slots and their projections
    are laid out as the windows, (k * width, ·), as ``segment_attention``
    reads them: row j * width + c is entry c of lane j."""

    slots: Tensor       # (N, hidden) for one lane, (k * width, hidden) for k
    proj: Tensor        # slots @ att_enc + att_b, a row per slot row
    state: Tensor       # (dec_hidden,) for one lane, (k, dec_hidden) for k
    windows: ad.Windows | None = None  # each lane's slots; None for one lane
    ctx: Tensor | None = None          # (hidden,) or (k, hidden); None before the first token


@dataclass
class DecoderLanes:
    """What a cursor over k lanes holds fixed whatever their latents
    (``decoder_lanes``): the lanes' encoder states, the decoder's initial
    state and, for k lanes, the slot windows: entry c of lane j is row
    ``windows.index[j, c]`` of [rows; latent rows]."""

    rows: Tensor        # one lane's states, (L, hidden), or k lanes' end to end
    state: Tensor       # (dec_hidden,) for one lane, (k, dec_hidden) for k
    windows: ad.Windows | None = None  # each lane's slots; None for one lane

    def __len__(self) -> int:
        return 1 if self.windows is None else len(self.windows.lengths)


def decoder_lanes(params: ModelParams, encoded: Sequence[EncodedContext]) -> DecoderLanes:
    """The part of ``decoder_start`` that does not read the latents. A lone
    lane gets the one-lane layout (vectors, no windows), which runs faster
    than a one-lane segment layout. For k lanes, which must be lanes of one
    pass, the states and pooled rows come from it in one gather each
    (``_lane_states``, ``_lane_pooled``), and the slot windows of
    ``segment_attention`` are laid out here, padded to one width: lane j's
    encoder rows, then its latent row (row n + j of [rows; latent rows]),
    which its entries past the end repeat."""
    lanes = list(encoded)
    if not lanes:
        raise ContractError("decoder_lanes needs at least one encoding")
    windows = None
    if len(lanes) == 1:
        rows, pooled = lanes[0].states, lanes[0].pooled
    else:
        rows, lengths = _lane_states(lanes)
        pooled = _lane_pooled(lanes)
        n, k, c = int(lengths.sum()), len(lanes), np.arange(int(lengths.max()) + 1)
        order = np.where(c < lengths[:, None], (np.cumsum(lengths) - lengths)[:, None] + c,
                         n + np.arange(k)[:, None])
        windows = ad.Windows(order, lengths + 1)
    t = params.tensors
    state = ad.matmul(pooled, t["dec_init_w"], plus=t["dec_init_b"], tanh=True)
    return DecoderLanes(rows=rows, state=state, windows=windows)


def decoder_start(params: ModelParams, lanes: DecoderLanes, z) -> DecoderCursor:
    """Cursor before the first token of k lanes decoded in lockstep, from
    their ``decoder_lanes`` and ``z`` of shape (k, latent).

    The only code that picks the decoder ops: what does not read ``z`` is
    laid out by ``decoder_lanes``, and ``_decoder_step`` follows the
    cursor. Here the latent slot rows are made, the slots put in their
    layout (``DecoderCursor``) by one gather for k lanes, and their
    attention projections, with ``att_b`` added, made once per decode, on
    the tape or off it alike."""
    t = params.tensors
    zt = z if isinstance(z, Tensor) else Tensor(z)
    want = (len(lanes), params.cfg.latent_dim)
    if zt.shape != want:
        raise ContractError(f"latent has shape {zt.shape}, expected {want}")
    slots = ad.concat([lanes.rows, ad.matmul(zt, t["zslot_w"], plus=t["zslot_b"])])
    if lanes.windows is not None:
        slots = ad.gather_rows(slots, lanes.windows.index.reshape(-1))
    proj = ad.matmul(slots, t["att_enc"], plus=t["att_b"])
    return DecoderCursor(slots=slots, proj=proj, state=lanes.state, windows=lanes.windows)


def _decoder_inputs(params: ModelParams, ids) -> Tensor:
    """The decoder's input projections embed[ids] @ dec_wx + dec_b, one row
    per id read: a greedy step's (``decode_greedy``), which learns its ids
    from the last step's logits, or every step's of a decode that knows its
    tokens before it runs (``_plan``), in one product. An int id gives the
    (dec_hidden,) input of a one-lane cursor, a (k,) array the rows of k
    lanes."""
    t = params.tensors
    return ad.matmul(ad.gather_rows(t["embed"], ids), t["dec_wx"], plus=t["dec_b"])


def _decoder_step(params: ModelParams, cur: DecoderCursor, x: Tensor) -> DecoderCursor:
    """One step from the input projections ``x`` of its tokens
    (``_decoder_inputs``): the state projected for attention and for the
    recurrence, and the attention. The attention bias was added once, in
    ``decoder_start``, and the input bias is in ``x``. k lanes take their
    attention, each slot meeting its own lane's query, as one
    ``segment_attention`` node."""
    t = params.tensors
    if cur.windows is None:
        # one lane: its query, a vector product, is broadcast over the slots' rows
        hidden = ad.matmul(cur.state, t["att_dec"], plus=cur.proj, tanh=True)
        ctx = ad.matmul(ad.softmax(ad.matmul(hidden, t["att_v"])), cur.slots)
    else:
        ctx = ad.segment_attention(cur.proj, ad.matmul(cur.state, t["att_dec"]), t["att_v"],
                                   cur.slots, cur.windows)
    # state . dec_wh + (ctx . dec_wc + x); ``x`` may be one row that every lane reads
    state = ad.matmul(cur.state, t["dec_wh"], plus=ad.matmul(ctx, t["dec_wc"], plus=x),
                      tanh=True)
    return DecoderCursor(slots=cur.slots, proj=cur.proj, state=state, windows=cur.windows,
                         ctx=ctx)


def output_logits(params: ModelParams, state: Tensor, ctx: Tensor) -> Tensor:
    """The output head: next-token logits of decoder states and their
    attention contexts, (V,) for one row or (n, V) for n rows, as
    (state . out_w + ctx . out_c) + out_b. The bias is its own node: folding
    it into a product would sum the three terms in another order, and so
    round differently."""
    t = params.tensors
    return ad.add(ad.matmul(ctx, t["out_c"], plus=ad.matmul(state, t["out_w"])), t["out_b"])


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


def _decode_pairs(params: ModelParams, examples, s, z, encoded):
    """The k (example, index) pairs of a teacher-forced decode, one example
    per lane, checked: the pairs' examples, ``z`` as a (k, latent) tensor
    (None when not given), one encoding per pair and each pair's scored
    response."""
    cfg = params.cfg
    if _is_index(s):
        raise ContractError(f"candidate index {s} must come as a sequence of indices: "
                            f"one lane is a batch of one")
    if isinstance(examples, DialogueExample):
        raise ContractError("a decode takes one example per lane: a sequence of examples, "
                            "one for each candidate index")
    indices, examples = list(s), list(examples)
    scored = {id(ex): _scored_response(cfg, ex) for ex in examples}
    if not indices:
        raise ContractError("a lockstep decode needs at least one candidate index")
    if len(examples) != len(indices):
        raise ContractError(f"{len(examples)} examples for {len(indices)} candidate indices")
    for ex, i in zip(examples, indices):
        if not _is_index(i) or not 0 <= i < len(ex.candidates):
            raise ContractError(f"candidate index {i!r} out of range")
    if z is not None:
        z = z if isinstance(z, Tensor) else Tensor(z)
        want = (len(indices), cfg.latent_dim)
        if z.shape != want:
            raise ContractError(f"latents have shape {z.shape}, expected {want}")
    if encoded is None:
        raise ContractError("a decode of a sequence of indices needs their encodings, "
                            "one per index, lanes of the caller's encoder pass")
    encs = list(encoded)
    if len(encs) != len(indices):
        raise ContractError(f"{len(encs)} encodings for {len(indices)} candidate indices")
    for j, (ex, i, enc) in enumerate(zip(examples, indices, encs)):
        if enc.example is not ex or i not in enc.indices:
            raise ContractError(
                f"encoding {j} does not encode candidate {i} of its example: it encodes "
                f"candidates {list(enc.indices)} of "
                f"{'that' if enc.example is ex else 'another'} example")
    return examples, z, encs, [scored[id(ex)] for ex in examples]


@dataclass
class DecodePlan:
    """What a teacher-forced decode of k lanes holds fixed whatever their
    latents: the decoder's lanes (``decoder_lanes``), each step's input
    projections, the targets' one-hot and the live mask. ``decode_run``
    runs it at any latents."""

    lanes: DecoderLanes
    inputs: list[Tensor]  # step t's input rows: one row that every lane reads, or k rows
    pick: np.ndarray      # (width * k, V): row t*k + j is lane j's step-t target, one-hot
    live: Tensor          # (k, width * k): 1 where row t*k + j is a step of lane j's response


def _plan(params: ModelParams, responses: Sequence[list[int]],
          encoded: Sequence[EncodedContext]) -> DecodePlan:
    """The plan of k lanes, lane j teacher-forcing ``responses[j]`` from
    ``encoded[j]``. Every step's input projections come from one product,
    one row per step when the lanes read the same tokens."""
    k = len(responses)
    lengths = np.array([len(r) for r in responses])
    width = int(lengths.max())
    # targets[t, j] is lane j's step-t target; past the lane's end, padding
    targets = np.array([r + [PAD] * (width - len(r)) for r in responses]).T
    # step t reads the step t-1 targets, one id for all when the lanes agree;
    # step t's inputs are row t of the product (a vector, broadcast as a row
    # bias) or rows t*k to t*k + k of it
    shared = (targets == targets[:, :1]).all()
    feed = np.vstack([np.full(k, BOS), targets[:-1]])
    lanes = decoder_lanes(params, encoded)
    if shared:
        inputs, steps = _decoder_inputs(params, feed[:, 0]), range(width)
    else:
        inputs = _decoder_inputs(params, feed.reshape(-1))
        steps = [slice(t * k, (t + 1) * k) for t in range(width)]
    rows = np.arange(width * k)
    pick = np.zeros((width * k, params.cfg.vocab_size))
    pick[rows, targets.reshape(-1)] = 1.0
    live = (rows % k == np.arange(k)[:, None]) & (rows // k < lengths[:, None])
    return DecodePlan(lanes=lanes, inputs=[ad.gather_rows(inputs, step) for step in steps],
                      pick=pick, live=Tensor(live.astype(np.float64)))


def decode_plan(params: ModelParams, examples: Sequence[DialogueExample],
                s: Sequence[int], encoded: Sequence[EncodedContext]) -> DecodePlan:
    """The plan of ``decode_logprob(params, examples, s, z, encoded)`` for k
    lanes, for ``decode_run`` at any (k, latent) ``z``: built once, it
    leaves a run only z's part of the decode. Each (example, index) pair is
    one lane, so two pairs that share one example's encoding are rejected:
    ``decode_logprob`` would make them one lane at equal latent rows, and a
    plan cannot know its latents."""
    examples, _, encs, responses = _decode_pairs(params, examples, s, None, encoded)
    if distinct_lanes(zip(map(id, examples), encs))[1] is not None:
        raise ContractError("two latent rows of one example's encoding would share "
                            "a decoder lane")
    return _plan(params, responses, encs)


def decode_run(params: ModelParams, plan: DecodePlan, z) -> Tensor:
    """The teacher-forced log-probability of each lane of ``plan`` at its
    row of ``z`` (k, latent), (k,): the latent slots and the slots'
    projections, the recurrence step by step, the output head once over
    every step's rows, and each lane's sum over its live steps.

    Each token's log-probability is taken as (x_t - x_top) + log
    softmax(x)_top, where x_top is its row's largest logit: the softmax
    there is at least 1/V, so the log stays finite however confident the
    model is. A non-finite total (an overflow in the weights) raises
    ``NumericError``."""
    cur = decoder_start(params, plan.lanes, z)
    states, ctxs = [], []
    for x in plan.inputs:
        cur = _decoder_step(params, cur, x)
        states.append(cur.state)
        ctxs.append(cur.ctx)
    # row t*k + j holds step t of lane j
    logits = output_logits(params, ad.concat(states), ad.concat(ctxs))
    top = np.zeros(logits.shape)
    top[np.arange(logits.shape[0]), logits.data.argmax(axis=1)] = 1.0
    # one-hot and 0/1 products pick entries and sum each lane's live rows exactly
    ones = Tensor(np.ones(logits.shape[1]))
    gap = ad.matmul(ad.multiply(logits, Tensor(plan.pick - top)), ones)
    log_top = ad.log(ad.matmul(ad.multiply(ad.softmax(logits), Tensor(top)), ones))
    total = ad.matmul(plan.live, ad.add(gap, log_top))
    ad.check_finite(total.data, "response log-probability")
    return total


def decode_logprob(params: ModelParams, example: DialogueExample | Sequence[DialogueExample],
                   s: int | Sequence[int], z,
                   encoded: EncodedContext | Sequence[EncodedContext] | None = None) -> Tensor:
    """Teacher-forced log-probability of the full response under candidate
    ``s`` and latent ``z``. Tokens after the first end-of-sequence token are
    padding and do not contribute.

    A sequence of k examples, one per lane, and k indices, with ``z`` of
    shape (k, latent) and ``encoded`` one encoding per index, lanes of the
    caller's encoder pass, gives a (k,) tensor from one lockstep pass: entry
    j scores candidate ``s[j]`` of ``example[j]`` against that example's own
    response. Encoding j must encode that candidate, or ``ContractError``
    names the pair. A lone example with an int ``s`` and a numpy (latent,)
    ``z`` is a scalar view of one lane: ``encoded`` if given, or candidate
    ``s`` encoded in a pass of its own. The lanes are the distinct
    (example, encoding, latent row) triples (``distinct_lanes``): a repeated
    triple shares its first occurrence's lane, so the two tie exactly, and
    its gradient in ``z`` reaches that first row.

    The decode is the plan of the distinct lanes (``DecodePlan``: their
    states, initial state, input projections and masks) run at their
    latents (``decode_run``), the same two steps a Langevin chain takes
    once and T times (``decode_plan``)."""
    if _is_index(s):
        if not isinstance(example, DialogueExample) or isinstance(z, Tensor):
            raise ContractError("one candidate index scores one example at a numpy latent")
        encs = [encoded] if encoded is not None else encode_context(params, example, [s])
        return ad.gather_rows(decode_logprob(params, [example], [s], np.asarray(z)[None], encs), 0)
    examples, zt, encs, responses = _decode_pairs(params, example, s, z, encoded)
    # lanes of different examples never merge: their responses differ
    firsts, lane_of = distinct_lanes(
        (id(ex), enc, row.tobytes()) for ex, enc, row in zip(examples, encs, zt.data))
    zl = zt if lane_of is None else ad.gather_rows(zt, np.asarray(firsts))
    total = decode_run(params, _plan(params, [responses[pos] for pos in firsts],
                                     [encs[pos] for pos in firsts]), zl)
    return total if lane_of is None else ad.gather_rows(total, lane_of)
