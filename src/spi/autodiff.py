"""Reverse-mode automatic differentiation over dense numpy tensors.

A small taped engine: forward functions compute numpy values and record
adjoint rules on the active ``Tape``; ``backward`` walks the tape in reverse
and returns gradients for named trainable leaves. Only the primitives the
dialogue model needs are implemented, each with explicit shape checks.
Arithmetic is always float64.

Gradients are formed only where asked: a tensor needs a gradient when it is
a trainable leaf or a recorded node with such an input. A node whose inputs
all are constants is not recorded, and an adjoint is told which of its
inputs need a gradient, so it can skip the rest.

Dispatch, not arithmetic, is what a small model pays for, so an affine map
and its tanh are one primitive: ``matmul(a, b, plus=c)`` is ``a.b + c`` as
one node, with ``c`` added in place into the fresh product, and
``matmul(a, b, plus=c, tanh=True)`` is ``tanh(a.b + c)``, the tanh taken in
place too (a recurrent step, an attention hidden layer). Since IEEE
addition is commutative, the first has the bits of ``add(matmul(a, b), c)``
and of ``add(c, matmul(a, b))``, and the second those of ``tanh`` of it,
value and adjoints. Products call ``ndarray.dot``, forward and in the
adjoint, which reaches BLAS with less overhead than ``@``.

The windowed primitives, ``segment_attention`` and ``reduce_mean`` (a mean
over windows only: the encoder's pooling), take a ``Windows`` layout,
checked once where it is built, so a decoder step does not re-derive or
re-check its lanes. ``segment_attention`` is a k-lane decoder step's whole
additive attention, scores, window softmax and weighted sum, as one node.

Adjoint rules live in module-level ``_*_vjp`` functions that node closures
(each named ``vjp``, inside its primitive) look up by name at call time, so
tests can swap a rule in and verify the checkers notice.

Two paths make a ``Tensor``. A caller's leaf goes through ``Tensor.__init__``,
which converts its data to a float64 array and validates it. A primitive's
result is wrapped as computed by ``_wrap``: it neither converts (numpy keeps
float64 inputs float64; only a 0-d result, which numpy returns as a scalar,
goes through ``np.asarray``) nor validates.

With no tape open, a primitive runs its checks and its numpy ops and
returns its ``_wrap``-ped value before it builds an adjoint: nothing could
keep one. Only with a tape open does it build its ``vjp`` closure and hand
it to ``_emit``, the only recording wrapper, which wraps the value and
records it when an input needs a gradient. Both paths run the same ops in
the same order, so a value has the same bits on a tape and off it.

Finiteness is checked where a value enters the engine or leaves it, not in
each primitive: a ``Tensor`` made by a caller rejects non-finite entries,
``log`` rejects entries that are not positive, ``backward`` rejects a
non-finite root and ``gradcheck`` a non-finite value at any probe or a
non-finite analytic gradient. A primitive's result is never checked, so an
overflow travels on as inf or NaN until a boundary meets it; the model's
callers check what they return or act on (``model.decode_run``,
``model.head_logits``, each greedy step, each Langevin state, each
validation objective, each summed training gradient). Every boundary after
``log`` and ``Tensor`` applies ``check_finite``. A ``tanh`` that
saturates an overflow yields its limit, +-1, and the value stays finite:
that is the chosen semantics, not an error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError


class Tensor:
    """Dense real tensor; leaves may be named and marked trainable.

    The constructor is for a caller's leaves: it converts ``data`` to a
    float64 array and rejects non-finite entries. Primitive results are
    wrapped by ``_wrap`` without either step (see the module docstring).
    """

    __slots__ = ("data", "name", "trainable", "requires_grad")

    def __init__(self, data, name: str | None = None, trainable: bool = False,
                 _validate: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if _validate and not np.isfinite(arr).all():
            raise NumericError(f"tensor {name or '<anon>'} has non-finite entries")
        self.data = arr
        self.name = name
        self.trainable = trainable
        self.requires_grad = trainable

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class Tape:
    """Ordered record of the primitive applications that need a gradient,
    for one backward pass.

    Used as a context manager; entering pushes it onto the stack of open
    tapes, and the innermost one records.
    """

    __slots__ = ("_nodes", "_out_ids")

    def __init__(self):
        # (output, inputs, which inputs need a gradient, adjoint)
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], list[bool], Callable]] = []
        self._out_ids: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self._nodes)


_TAPES: list[Tape] = []


def check_finite(values, what: str) -> None:
    """Raise ``NumericError("<what> is non-finite")`` unless every entry of
    ``values`` is finite: the rule each boundary of the module docstring
    applies."""
    if not np.isfinite(values).all():
        raise NumericError(f"{what} is non-finite")


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _wrap(out_data) -> Tensor:
    """A primitive's value as a ``Tensor`` that needs no gradient. The slots
    are set here, not by ``Tensor.__init__``; the value is converted only
    when numpy returned a scalar, and never checked: see the module
    docstring."""
    out = object.__new__(Tensor)
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data)
    out.name = None
    out.trainable = False
    out.requires_grad = False
    return out


def _emit(out_data, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Wrap a primitive's value under an open tape, and record it with its
    adjoint ``vjp`` when an input needs a gradient."""
    out = _wrap(out_data)
    needs = [t.requires_grad for t in inputs]
    if True in needs:
        out.requires_grad = True
        tape = _TAPES[-1]
        tape._nodes.append((out, inputs, needs, vjp))
        tape._out_ids.add(id(out))
    return out


def backward(tape: Tape, root: Tensor) -> dict[str, np.ndarray]:
    """Accumulate adjoints from a scalar root; returns {leaf name: gradient}.

    Covers every named trainable leaf consumed on the tape; leaves the root
    does not depend on get zero gradients. Returned arrays must be treated
    as read-only. A root that needs no gradient depends on no trainable
    leaf at all, which is a caller's error (say, constant weights where
    trainable ones were meant), so it raises like a foreign root. A
    non-finite root raises ``NumericError``.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ContractError("backward root needs no gradient: it depends on no trainable leaf")
    if id(root) not in tape._out_ids and not root.trainable:
        raise ContractError("backward root was not produced on this tape")
    check_finite(root.data, "backward root")
    adjoints: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    leaves: dict[str, Tensor] = {}
    if root.trainable and root.name is not None:
        leaves[root.name] = root
    for out, inputs, needs, vjp in reversed(tape._nodes):
        grad_out = adjoints.pop(id(out), None)
        if grad_out is None:
            continue
        grads_in = vjp(grad_out, needs)
        for tensor, need, grad in zip(inputs, needs, grads_in):
            if not need:
                continue
            key = id(tensor)
            held = adjoints.get(key)
            adjoints[key] = grad if held is None else held + grad
            if tensor.trainable and tensor.name is not None:
                prior = leaves.get(tensor.name)
                if prior is not None and prior is not tensor:
                    raise ContractError(
                        f"two distinct trainable leaves share the name {tensor.name!r}")
                leaves[tensor.name] = tensor
    out: dict[str, np.ndarray] = {}
    for name, tensor in leaves.items():
        grad = adjoints.get(id(tensor))
        out[name] = np.zeros_like(tensor.data) if grad is None else np.asarray(grad)
    return out


# ---------------------------------------------------------------------------
# primitives


def _matmul_vjp(g, ad, bd, needs):
    need_a, need_b = needs
    if ad.ndim == 2 and bd.ndim == 2:
        ga = g.dot(bd.T) if need_a else None
        gb = ad.T.dot(g) if need_b else None
    elif ad.ndim == 2:
        ga = g[:, None] * bd if need_a else None  # the outer product
        gb = ad.T.dot(g) if need_b else None
    elif bd.ndim == 2:
        ga = bd.dot(g) if need_a else None
        gb = ad[:, None] * g if need_b else None
    else:
        ga = g * bd if need_a else None
        gb = g * ad if need_b else None
    return ga, gb


def _matmul_plus_vjp(g, ad, bd, pshape, needs):
    """The adjoints of ``a.b + c``, ``c`` of shape ``pshape``: the product's
    (``_matmul_vjp``) and the addend's: ``g`` itself, its row sum for a
    row bias, or its sum for a 0-d addend. A vector product broadcast over
    the addend's rows meets the row sum of ``g``."""
    if len(pshape) < g.ndim:  # a row bias or a 0-d addend
        gp = (g.sum(axis=0) if pshape else g.sum()) if needs[2] else None
    else:
        gp = g if needs[2] else None
        if g.ndim > ad.ndim + bd.ndim - 2:  # the product was broadcast over rows
            g = g.sum(axis=0)
    return (*_matmul_vjp(g, ad, bd, needs[:2]), gp)


def matmul(a: Tensor, b: Tensor, plus: Tensor | None = None, tanh: bool = False) -> Tensor:
    """The product ``a.b`` of rank-1 or rank-2 tensors, or ``a.b + plus``
    as one node. ``plus`` has the product's shape, is 0-d or a row bias of
    a (n, m) product, or holds the (k, m) rows that an (m,) product is
    broadcast over. It is added in place into the fresh product, so no
    second array of its size is made. The products call ``ndarray.dot``,
    which dispatches to BLAS with less overhead than ``@``.

    With ``tanh`` the node is ``tanh(a.b + plus)``: the tanh runs in place
    on the fresh result, and the adjoint is ``_tanh_vjp``'s followed by the
    product's, so the node has the bits of ``tanh(matmul(a, b, plus))``.

    Operands of other inner dimensions are left to ``ndarray.dot`` to find:
    its ``ValueError`` becomes the ``ShapeError`` that names both shapes."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul expects rank 1 or 2, got {ad.shape} @ {bd.shape}")
    try:
        out = ad.dot(bd)
    except ValueError:
        raise ShapeError(f"matmul inner dimensions differ: {ad.shape} @ {bd.shape}") from None
    if plus is not None:
        pd = plus.data
        if pd.shape in (out.shape, ()) or (out.ndim == 2 and pd.shape == out.shape[1:]):
            out += pd  # a vector . vector product is a numpy scalar, added out of place
        elif out.ndim == 1 and pd.ndim == 2 and pd.shape[1] == out.shape[0]:
            out = pd + out
        else:
            raise ShapeError(f"matmul cannot add shape {pd.shape} to a product of "
                             f"shape {out.shape}")
    if tanh:
        out = np.tanh(out, out=out) if type(out) is np.ndarray else np.tanh(out)
    if not _TAPES:
        return _wrap(out)
    inputs, pshape = ((a, b), None) if plus is None else ((a, b, plus), plus.data.shape)

    def vjp(g, needs, ad=ad, bd=bd, pshape=pshape, y=out if tanh else None):
        if y is not None:
            g = _tanh_vjp(g, y)[0]
        if pshape is None:
            return _matmul_vjp(g, ad, bd, needs)
        return _matmul_plus_vjp(g, ad, bd, pshape, needs)

    return _emit(out, inputs, vjp)


def _add_same_vjp(g):
    return g, g


def _add_bias_vjp(g, needs):
    return g, (g.sum(axis=0) if needs[1] else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    # a row-wise bias is the only broadcast this engine supports
    bias = ad.shape != bd.shape
    if bias and not (ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]):
        raise ShapeError(f"add cannot combine shapes {ad.shape} and {bd.shape}")
    out = ad + bd
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, bias=bias):
        return _add_bias_vjp(g, needs) if bias else _add_same_vjp(g)

    return _emit(out, (a, b), vjp)


def _mul_vjp(g, ad, bd, needs):
    return (g * bd if needs[0] else None), (g * ad if needs[1] else None)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal shapes, or of a tensor and a 0-d
    constant (``scale``). A 0-d operand that needs a gradient against a
    larger one is rejected: its adjoint would be a sum nothing here forms."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        if ad.shape != () and bd.shape != ():
            raise ShapeError(
                f"multiply needs equal shapes or a scalar, got {ad.shape} * {bd.shape}")
        if (a if ad.shape == () else b).requires_grad:
            raise ShapeError(f"multiply broadcasts only a constant scalar, got a "
                             f"scalar that needs a gradient against shape "
                             f"{max(ad.shape, bd.shape, key=len)}")
    out = ad * bd
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, ad=ad, bd=bd):
        return _mul_vjp(g, ad, bd, needs)

    return _emit(out, (a, b), vjp)


def _tanh_vjp(g, y):
    return (g * (1.0 - y * y),)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    if not _TAPES:
        return _wrap(y)

    def vjp(g, needs, y=y):
        return _tanh_vjp(g, y)

    return _emit(y, (x,), vjp)


def _softmax_vjp(g, y):
    inner = (g * y).sum(axis=-1, keepdims=True)
    return ((g - inner) * y,)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis of a rank-1 or rank-2 tensor. The max and
    the sum are the ufunc reductions that ``ndarray.max`` and ``ndarray.sum``
    run, called directly, and the exponentials are taken and normalised in
    place in the shifted copy."""
    xd = x.data
    if xd.ndim not in (1, 2):
        raise ShapeError(f"softmax expects rank 1 or 2, got {xd.shape}")
    y = xd - np.maximum.reduce(xd, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    if not _TAPES:
        return _wrap(y)

    def vjp(g, needs, y=y):
        return _softmax_vjp(g, y)

    return _emit(y, (x,), vjp)


class Windows:
    """k windows over the rows of a tensor, in a (k, width) index matrix:
    window j reads rows ``index[j, :lengths[j]]`` in that order, and its
    entries past its length are dead (they repeat a live row, so every entry
    indexes a row); ``live`` marks the live entries. Windows that are
    consecutive runs covering rows 0..N-1 in order are ``segments``
    (``of_segments`` builds them). The leading columns that every window
    reads alike are ``shared`` (a one-example encoder pass's prefix rows).
    The layout is checked once, here, so the primitives that take it need
    not re-derive it at every call."""

    __slots__ = ("index", "lengths", "live", "full", "span", "segments", "shared")

    def __init__(self, index, lengths):
        index, lengths = np.asarray(index), np.asarray(lengths)
        if (index.ndim != 2 or not index.size or lengths.shape != index.shape[:1]
                or index.dtype.kind not in "iu" or lengths.dtype.kind not in "iu"):
            raise ShapeError(f"windows need a non-empty (k, width) integer index and k "
                             f"integer lengths, got {index.shape} and {lengths.shape}")
        if lengths.min() < 1 or lengths.max() > index.shape[1] or index.min() < 0:
            raise ShapeError("every window needs 1..width live entries and row indices >= 0")
        self._lay_out(index, lengths, int(index.max()) + 1)
        n = int(lengths.sum())
        self.segments = self.span == n and bool((index[self.live] == np.arange(n)).all())
        alike = (index == index[:1]).all(axis=0) & self.full
        self.shared = int(np.append(alike, False).argmin())

    def _lay_out(self, index, lengths, span):
        self.index, self.lengths, self.span = index, lengths, span  # span: the rows a tensor needs
        columns = np.arange(index.shape[1])
        self.live = columns < lengths[:, None]  # (k, width)
        self.full = columns < lengths.min()     # (width,) columns with no dead entry

    @staticmethod
    def of_segments(lengths) -> "Windows":
        """Windows of consecutive runs of ``lengths`` rows, run j after run j - 1:
        segments by construction, so nothing is re-derived from the index."""
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if not lengths.size or lengths.min() < 1:
            raise ShapeError(f"segments need to be non-empty, got lengths {lengths.tolist()}")
        ends = np.cumsum(lengths)
        offsets = np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
        windows = object.__new__(Windows)
        windows._lay_out((ends - lengths)[:, None] + offsets, lengths, int(ends[-1]))
        windows.segments = True
        windows.shared = int(ends[0]) if len(ends) == 1 else 0  # runs are disjoint
        return windows


def _segment_attention_vjp(g, t, vd, w, vw, out, needs):
    need_p, need_q, need_v, need_s = needs
    gp = gq = gv = gs = None
    if need_p or need_q or need_v:
        # the window softmax's adjoint: w * (g . v - g . out), 0 at dead entries
        gw = np.matmul(vw, g[:, :, None])[:, :, 0]
        gx = (w * (gw - (g * out).sum(axis=1, keepdims=True))).reshape(-1)
        gv = t.T.dot(gx) if need_v else None
        if need_p or need_q:
            # through the scores' product with att_v, then the tanh
            ga = gx[:, None] * vd * (1.0 - t * t)
            gp = ga if need_p else None
            if need_q:  # each lane's query met every entry of its window
                gq = ga.reshape(*w.shape, -1).sum(axis=1)
    if need_s:
        gs = (w[:, :, None] * g[:, None, :]).reshape(-1, g.shape[1])
    return gp, gq, gv, gs


def segment_attention(proj: Tensor, query: Tensor, att_v: Tensor, slots: Tensor,
                      windows: Windows) -> Tensor:
    """Additive attention of k lanes, each over its own window of slots, as
    one node: row j of the (k, D) result is the softmax over window j of the
    scores tanh(proj + query[j]) . att_v applied to the window's slots.

    ``proj`` (k * width, A) and ``slots`` (k * width, D) are laid out as the
    (k, width) windows: row j * width + c is entry c of window j, dead
    entries included; ``query`` (k, A) holds the lanes' queries and ``att_v``
    (A,) the score vector. Only the windows' shape and ``live`` are read.
    The scores are formed by the ops of the composition ``add``, ``tanh``,
    ``matmul`` by att_v in that order, over every row of the layout, and the
    (k, width) window softmax gives the dead entries weight 0, so the node
    has that composition's bits and the dead rows' values reach neither the
    result nor a live row's adjoint. The tape keeps one (k * width, A)
    array, the tanh; the query's adjoint sums each window's rows.
    """
    pd, qd, vd, sd = proj.data, query.data, att_v.data, slots.data
    if not isinstance(windows, Windows):
        raise ContractError("segment_attention takes a Windows layout")
    k, width = windows.live.shape
    if (pd.ndim != 2 or pd.shape[0] != k * width or qd.shape != (k, pd.shape[1])
            or vd.shape != pd.shape[1:] or sd.ndim != 2 or sd.shape[0] != k * width):
        raise ShapeError(f"segment_attention over {k} windows of width {width} expects "
                         f"({k * width}, A) projections, ({k}, A) queries, (A,) att_v and "
                         f"({k * width}, D) slots, got {pd.shape}, {qd.shape}, {vd.shape} "
                         f"and {sd.shape}")
    t = np.tanh(pd.reshape(k, width, -1) + qd[:, None]).reshape(k * width, -1)
    xw = t.dot(vd).reshape(k, width)
    xw[~windows.live] = -np.inf  # a dead entry's weight is 0
    vw = sd.reshape(k, width, -1)
    e = np.exp(xw - xw.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    out = np.matmul(w[:, None, :], vw)[:, 0, :]
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, t=t, vd=vd, w=w, vw=vw, out=out):
        return _segment_attention_vjp(g, t, vd, w, vw, out, needs)

    return _emit(out, (proj, query, att_v, slots), vjp)


def _log_vjp(g, xd):
    return (g / xd,)


def log(x: Tensor) -> Tensor:
    """Elementwise log; an entry that is not positive (or is NaN) raises."""
    xd = x.data
    if not (xd > 0.0).all():
        raise NumericError("log of a value that is not positive")
    out = np.log(xd)
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, xd=xd):
        return _log_vjp(g, xd)

    return _emit(out, (x,), vjp)


def _log_sigmoid_vjp(g, xd):
    # the derivative sigma(-x), as exp(-log(1 + e^x)) so that it cannot overflow
    return (g * np.exp(-np.logaddexp(0.0, xd)),)


def log_sigmoid(x: Tensor) -> Tensor:
    """Elementwise log sigma(x) = -log(1 + e^-x), finite for every finite x."""
    xd = x.data
    out = -np.logaddexp(0.0, -xd)
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, xd=xd):
        return _log_sigmoid_vjp(g, xd)

    return _emit(out, (x,), vjp)


def _reduce_sum_vjp(g, shape):
    return (np.full(shape, g),)


def reduce_sum(x: Tensor) -> Tensor:
    """The sum of every entry, a scalar."""
    xd = x.data
    out = xd.sum()
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, shape=xd.shape):
        return _reduce_sum_vjp(g, shape)

    return _emit(out, (x,), vjp)


def _reduce_mean_vjp(g, shape, windows):
    # each live entry meets its window's adjoint over the window's length
    grad = np.repeat(g / windows.lengths[:, None], windows.lengths, axis=0)
    return _gather_vjp(grad, shape, windows.index[windows.live])


def reduce_mean(x: Tensor, *, windows: Windows) -> Tensor:
    """Row j of the (k, D) result is the mean of window j's rows of ``x``
    (R, D). The windows are summed a column at a time, each window's rows in
    its order, as a mean over its gathered rows would sum them, with no (k,
    width, D) copy; their shared columns are summed once for them all."""
    xd = x.data
    if not isinstance(windows, Windows):
        raise ContractError("reduce_mean takes a Windows layout")
    if xd.ndim != 2 or xd.shape[0] < windows.span:
        raise ShapeError(f"a windowed mean over {windows.span} rows expects rank 2, "
                         f"got {xd.shape}")
    index, live, full = windows.index, windows.live, windows.full
    k, width = index.shape
    start = max(windows.shared, 1)
    if start > 1:  # the same rows in the same order: the same partial sum
        acc = np.repeat(np.add.reduce(xd[index[0, :start]], axis=0)[None], k, axis=0)
    else:
        acc = xd[index[:, 0]]
    for c in range(start, width):
        col = xd[index[:, c]]
        acc += col if full[c] else col * live[:, c, None]
    out = acc / windows.lengths[:, None]
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, shape=xd.shape, windows=windows):
        return _reduce_mean_vjp(g, shape, windows)

    return _emit(out, (x,), vjp)


def _gather_vjp(g, shape, idx):
    out = np.zeros(shape, dtype=g.dtype)
    if isinstance(idx, np.ndarray) and not (idx[1:] > idx[:-1]).all():
        np.add.at(out, idx, g)  # a repeated row sums its adjoints
    else:  # an int, a slice or strictly increasing rows: no two rows meet
        out[idx] = g
    return (out,)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by index; an int index drops the leading axis, and a slice
    takes consecutive rows with no index array to check.

    Duplicate indices accumulate gradient, so this doubles as the embedding
    lookup.
    """
    xd = x.data
    if isinstance(idx, (int, np.integer)):
        if not -xd.shape[0] <= idx < xd.shape[0]:
            raise ShapeError(f"row index {idx} out of range for shape {xd.shape}")
        key: int | slice | np.ndarray = int(idx)
    elif isinstance(idx, slice):
        if idx.indices(xd.shape[0]) != (idx.start, idx.stop, 1) or idx.start >= idx.stop:
            raise ShapeError(f"row slice {idx} out of range for shape {xd.shape}")
        key = idx
    else:
        key = np.asarray(idx)
        if key.ndim != 1 or key.size == 0 or not np.issubdtype(key.dtype, np.integer):
            raise ShapeError(f"gather_rows needs a non-empty 1-d list of integer indices, "
                             f"got {key.dtype} of shape {key.shape}")
        if key.min() < 0 or key.max() >= xd.shape[0]:
            raise ShapeError(f"gather_rows index out of range for shape {xd.shape}")
    out = xd[key]
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, shape=xd.shape, key=key):
        return _gather_vjp(g, shape, key)

    return _emit(out, (x,), vjp)


def _concat_vjp(g, shapes):
    grads = []
    start = 0
    for shape in shapes:
        rows = shape[0] if len(shape) == 2 else 1
        grads.append(g[start:start + rows].reshape(shape))
        start += rows
    return tuple(grads)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rows; rank-1 parts count as single rows."""
    if len(parts) == 0:
        raise ContractError("concat of zero parts")
    datas = [p.data for p in parts]
    if any(d.ndim not in (1, 2) for d in datas):
        raise ShapeError("concat expects rank 1 or 2 parts")
    widths = {d.shape[-1] for d in datas}
    if len(widths) != 1:
        raise ShapeError(f"concat parts disagree on width: {sorted(widths)}")
    out = np.vstack(datas)
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, shapes=tuple(d.shape for d in datas)):
        return _concat_vjp(g, shapes)

    return _emit(out, tuple(parts), vjp)


def _squared_l2_vjp(g, xd):
    return ((2.0 * g)[..., None] * xd if xd.ndim == 2 else (2.0 * g) * xd,)


def squared_l2(x: Tensor) -> Tensor:
    """The sum of squares: of every entry of a vector or a scalar, and of
    each row of a matrix, (n,). A row sums as the same vector would."""
    xd = x.data
    if xd.ndim > 2:
        raise ShapeError(f"squared_l2 expects rank 0, 1 or 2, got {xd.shape}")
    out = (xd * xd).sum(axis=-1) if xd.ndim == 2 else (xd * xd).sum()
    if not _TAPES:
        return _wrap(out)

    def vjp(g, needs, xd=xd):
        return _squared_l2_vjp(g, xd)

    return _emit(out, (x,), vjp)


# thin composites, each recorded through the ops above


def scale(x: Tensor, c: float) -> Tensor:
    return multiply(x, Tensor(float(c)))


def neg(x: Tensor) -> Tensor:
    return scale(x, -1.0)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Central-difference comparison for one scalar-valued function."""

    rel_error: np.ndarray
    max_rel_error: float
    tol: float
    bad_coords: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.bad_coords

    def __str__(self) -> str:
        if self.passed:
            return f"gradcheck ok (max rel err {self.max_rel_error:.3e})"
        worst = self.bad_coords[0]
        return (f"gradcheck FAILED at coordinate {worst}: rel err "
                f"{self.rel_error[worst]:.3e} > tol {self.tol:.1e}")


def gradcheck(fn: Callable[[Tensor], Tensor], point: np.ndarray,
              h: float = 1e-5, tol: float = 1e-4,
              floor: float = 1e-6) -> GradCheckReport:
    """Compare the taped gradient of ``fn`` at ``point`` against central
    finite differences, coordinate by coordinate.

    The per-coordinate relative error divides by max(|analytic|, |numeric|,
    floor). The floor bounds the scale below which double-precision central
    differences cannot resolve a gradient at all (roundoff of order
    eps·|fn|/h); a genuinely wrong adjoint of any visible magnitude still
    produces a relative error near 1.
    """
    point = np.asarray(point, dtype=np.float64)
    with Tape() as tape:
        out = fn(Tensor(point, name="x", trainable=True))
        if out.size != 1:
            raise ContractError("gradcheck target must return a scalar")
        # a function independent of x has gradient zero everywhere
        analytic = (backward(tape, out).get("x", np.zeros_like(point))
                    if out.requires_grad else np.zeros_like(point))

    def value_at(p: np.ndarray) -> float:
        value = float(fn(Tensor(p)).data)
        check_finite(value, "gradcheck target at a probe point")
        return value

    numeric = np.zeros_like(point)
    flat = point.ravel()
    num_flat = numeric.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        hi = value_at((flat + bump).reshape(point.shape))
        lo = value_at((flat - bump).reshape(point.shape))
        num_flat[i] = (hi - lo) / (2.0 * h)
    # a saturating op can keep every value finite while its adjoint meets
    # an overflowed input (0 * inf); a NaN error would compare false below
    check_finite(analytic, "gradcheck analytic gradient")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    rel = np.abs(analytic - numeric) / denom
    bad = [tuple(ix) for ix in np.argwhere(~(rel <= tol))]
    return GradCheckReport(rel_error=rel, max_rel_error=float(rel.max()) if rel.size else 0.0,
                           tol=tol, bad_coords=bad)
