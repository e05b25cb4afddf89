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

Adjoint rules live in module-level ``_*_vjp`` functions that node closures
look up by name at call time, so tests can swap a rule in and verify the
checkers notice.

Finiteness is checked where a value enters the engine or leaves it, not in
each primitive: a ``Tensor`` made by a caller rejects non-finite entries,
``log`` rejects entries that are not positive, ``backward`` rejects a
non-finite root and ``gradcheck`` a non-finite value at any probe or a
non-finite analytic gradient. A primitive's result is never checked, so an
overflow travels on as inf or NaN until a boundary meets it; the model's
callers check what they return or act on (``model.decode_logprob``,
``model.head_logits``, each greedy step, each Langevin state, each untaped
surrogate value, each summed training gradient). Every boundary after
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
    """Dense real tensor; leaves may be named and marked trainable."""

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

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], needs: list[bool],
                vjp: Callable) -> None:
        self._nodes.append((out, inputs, needs, vjp))
        self._out_ids.add(id(out))


_TAPES: list[Tape] = []


def check_finite(values, what: str) -> None:
    """Raise ``NumericError("<what> is non-finite")`` unless every entry of
    ``values`` is finite: the rule each boundary of the module docstring
    applies."""
    if not np.isfinite(values).all():
        raise NumericError(f"{what} is non-finite")


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Wrap a primitive's value and record it when a tape needs it. The
    value is not checked for finiteness: see the module docstring for where
    that happens."""
    out = Tensor(out_data, _validate=False)
    if _TAPES:
        needs = [t.requires_grad for t in inputs]
        if True in needs:
            out.requires_grad = True
            _TAPES[-1]._record(out, inputs, needs, vjp)
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
        ga = g @ bd.T if need_a else None
        gb = ad.T @ g if need_b else None
    elif ad.ndim == 2:
        ga = np.outer(g, bd) if need_a else None
        gb = ad.T @ g if need_b else None
    elif bd.ndim == 2:
        ga = bd @ g if need_a else None
        gb = np.outer(ad, g) if need_b else None
    else:
        ga = g * bd if need_a else None
        gb = g * ad if need_b else None
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul expects rank 1 or 2, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def vjp(g, needs, ad=ad, bd=bd):
        return _matmul_vjp(g, ad, bd, needs)

    return _emit(out, (a, b), vjp)


def _add_same_vjp(g):
    return g, g


def _add_bias_vjp(g, needs):
    return g, (g.sum(axis=0) if needs[1] else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        vjp = lambda g, needs: _add_same_vjp(g)
    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:
        # row-wise bias: the only broadcast this engine supports
        vjp = lambda g, needs: _add_bias_vjp(g, needs)
    else:
        raise ShapeError(f"add cannot combine shapes {ad.shape} and {bd.shape}")
    return _emit(ad + bd, (a, b), vjp)


def _mul_vjp(g, ad, bd, needs):
    ga = g * bd if needs[0] else None
    gb = g * ad if needs[1] else None
    # a scalar operand sums the adjoints of the entries it was broadcast to
    if ga is not None and ad.shape == () and bd.shape != ():
        ga = ga.sum()
    if gb is not None and bd.shape == () and ad.shape != ():
        gb = gb.sum()
    return ga, gb


def multiply(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.shape != bd.shape and ad.shape != () and bd.shape != ():
        raise ShapeError(f"multiply needs equal shapes or a scalar, got {ad.shape} * {bd.shape}")
    out = ad * bd

    def vjp(g, needs, ad=ad, bd=bd):
        return _mul_vjp(g, ad, bd, needs)

    return _emit(out, (a, b), vjp)


def _tanh_vjp(g, y):
    return (g * (1.0 - y * y),)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def vjp(g, needs, y=y):
        return _tanh_vjp(g, y)

    return _emit(y, (x,), vjp)


def _softmax_vjp(g, y):
    inner = (g * y).sum(axis=-1, keepdims=True)
    return ((g - inner) * y,)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis of a rank-1 or rank-2 tensor."""
    xd = x.data
    if xd.ndim not in (1, 2):
        raise ShapeError(f"softmax expects rank 1 or 2, got {xd.shape}")
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, needs, y=y):
        return _softmax_vjp(g, y)

    return _emit(y, (x,), vjp)


def _segment_attention_vjp(g, slots, w, out, seg, needs):
    # each slot meets its own segment's output gradient
    gs = g[seg]
    gx = w * ((gs * slots).sum(axis=1) - (g * out).sum(axis=1)[seg]) if needs[0] else None
    gv = w[:, None] * gs if needs[1] else None
    return gx, gv


def segment_attention(x: Tensor, slots: Tensor, seg) -> Tensor:
    """Attention within contiguous segments: row j of the (k, D) result is
    the softmax of segment j's scores in ``x`` (N,) applied to the same
    segment's rows of ``slots`` (N, D).

    ``seg[n]`` names the segment of entry n; the segments are 0..k-1 in
    order, each non-empty and contiguous. Per-segment reductions do the
    work, so the cost is linear in N: no (k, N) weight matrix is formed.
    """
    xd, vd = x.data, slots.data
    seg = np.asarray(seg)
    if (xd.ndim != 1 or not xd.size or seg.shape != xd.shape or vd.ndim != 2
            or vd.shape[0] != xd.shape[0]):
        raise ShapeError(f"segment_attention expects (N,) scores and segments and (N, D) "
                         f"slots, N > 0, got {xd.shape}, {seg.shape} and {vd.shape}")
    if not np.issubdtype(seg.dtype, np.integer):
        raise ContractError("segment_attention segments must be integers")
    step = np.empty_like(seg)  # each entry's step from the one before, from -1 for the first
    step[0], step[1:] = seg[0] + 1, seg[1:] - seg[:-1]
    if step[0] != 1 or (step & ~1).any():
        raise ShapeError("segment_attention needs non-empty contiguous segments 0..k-1 in order")
    starts = np.flatnonzero(step)
    e = np.exp(xd - np.maximum.reduceat(xd, starts)[seg])
    w = e / np.add.reduceat(e, starts)[seg]
    out = np.add.reduceat(w[:, None] * vd, starts, axis=0)

    def vjp(g, needs, vd=vd, w=w, out=out, seg=seg):
        return _segment_attention_vjp(g, vd, w, out, seg, needs)

    return _emit(out, (x, slots), vjp)


def _log_vjp(g, xd):
    return (g / xd,)


def log(x: Tensor) -> Tensor:
    """Elementwise log; an entry that is not positive (or is NaN) raises."""
    xd = x.data
    if not (xd > 0.0).all():
        raise NumericError("log of a value that is not positive")

    def vjp(g, needs, xd=xd):
        return _log_vjp(g, xd)

    return _emit(np.log(xd), (x,), vjp)


def _log_sigmoid_vjp(g, xd):
    # the derivative sigma(-x), as exp(-log(1 + e^x)) so that it cannot overflow
    return (g * np.exp(-np.logaddexp(0.0, xd)),)


def log_sigmoid(x: Tensor) -> Tensor:
    """Elementwise log sigma(x) = -log(1 + e^-x), finite for every finite x."""
    xd = x.data

    def vjp(g, needs, xd=xd):
        return _log_sigmoid_vjp(g, xd)

    return _emit(-np.logaddexp(0.0, -xd), (x,), vjp)


def _reduce_sum_vjp(g, shape, axis):
    if axis is None:
        return (np.full(shape, g),)
    return (np.broadcast_to(g, shape).copy(),)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    xd = x.data
    if axis not in (None, 0):
        raise ContractError(f"reduce_sum supports axis None or 0, got {axis}")
    if axis == 0 and xd.ndim != 2:
        raise ShapeError(f"reduce_sum over axis 0 expects rank 2, got {xd.shape}")
    out = xd.sum(axis=axis)
    shape = xd.shape

    def vjp(g, needs, shape=shape, axis=axis):
        return _reduce_sum_vjp(g, shape, axis)

    return _emit(out, (x,), vjp)


def _reduce_mean_vjp(g, shape, axis, n):
    if axis is None:
        return (np.full(shape, g / n),)
    return (np.broadcast_to(g / n, shape).copy(),)


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    xd = x.data
    if axis not in (None, 0):
        raise ContractError(f"reduce_mean supports axis None or 0, got {axis}")
    if axis == 0 and xd.ndim != 2:
        raise ShapeError(f"reduce_mean over axis 0 expects rank 2, got {xd.shape}")
    if xd.size == 0:
        raise ContractError("reduce_mean of an empty tensor")
    n = xd.shape[0] if axis == 0 else xd.size
    out = xd.mean(axis=axis)
    shape = xd.shape

    def vjp(g, needs, shape=shape, axis=axis, n=n):
        return _reduce_mean_vjp(g, shape, axis, n)

    return _emit(out, (x,), vjp)


def _gather_vjp(g, shape, idx):
    out = np.zeros(shape, dtype=g.dtype)
    np.add.at(out, idx, g)
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
    shape = xd.shape

    def vjp(g, needs, shape=shape, key=key):
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
    shapes = tuple(d.shape for d in datas)

    def vjp(g, needs, shapes=shapes):
        return _concat_vjp(g, shapes)

    return _emit(np.vstack(datas), tuple(parts), vjp)


def _squared_l2_vjp(g, xd):
    return ((2.0 * g) * xd,)


def squared_l2(x: Tensor) -> Tensor:
    xd = x.data
    out = np.asarray((xd * xd).sum())

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
