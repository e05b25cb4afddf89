"""Tape, primitive, and gradcheck behavior, anchored by frozen values."""
from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi import autodiff as ad
from spi.errors import ContractError, NumericError, ShapeError


def scalar_fn_value(fn, point):
    return float(fn(ad.Tensor(point)).data)


class TestFrozenValues:
    def test_softmax_of_zeros_is_uniform(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_squared_l2_of_3_4_is_25(self):
        out = ad.squared_l2(ad.Tensor([3.0, 4.0]))
        assert float(out.data) == 25.0

    def test_grad_of_sum_of_squares(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0, 3.0], name="x", trainable=True)
            y = ad.reduce_sum(ad.multiply(x, x))
            grads = ad.backward(tape, y)
        np.testing.assert_allclose(grads["x"], [2.0, 4.0, 6.0], atol=1e-15)

    def test_segment_attention_of_equal_scores_averages_each_segment(self):
        slots = np.arange(12.0).reshape(6, 2)
        windows = ad.Windows.of_segments([3, 1, 2])  # 3 windows of width 3
        rng = np.random.default_rng(3)
        # a zero score vector gives every slot the score 0
        out = ad.segment_attention(ad.Tensor(rng.normal(size=(9, 4))),
                                   ad.Tensor(rng.normal(size=(3, 4))), ad.Tensor(np.zeros(4)),
                                   ad.Tensor(slots[windows.index.reshape(-1)]), windows)
        np.testing.assert_allclose(out.data, [slots[:3].mean(axis=0), slots[3],
                                              slots[4:].mean(axis=0)], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(size=(5, 9)) * 10.0)
        out = ad.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


class TestTape:
    def test_tape_records_the_nodes_that_need_a_gradient(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], name="x", trainable=True)
            y = ad.reduce_sum(ad.tanh(x))
        assert len(tape) == 2
        assert y.requires_grad

    def test_constant_only_nodes_are_not_recorded(self):
        with ad.Tape() as tape:
            w = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
            hidden = ad.tanh(ad.matmul(ad.gather_rows(w, [1, 0]), ad.Tensor([0.5, -0.5])))
            assert len(tape) == 0 and not hidden.requires_grad
            x = ad.Tensor([1.0, 2.0], name="x", trainable=True)
            y = ad.squared_l2(ad.add(hidden, x))
        # the add meets a needing input, and so does everything after it
        assert len(tape) == 2
        assert y.requires_grad and not hidden.requires_grad

    def test_adjoints_are_never_asked_for_a_constant_input(self, monkeypatch):
        asked = []
        matmul_vjp, plus_vjp, gather_vjp = ad._matmul_vjp, ad._matmul_plus_vjp, ad._gather_vjp

        def spy_matmul(g, a, b, needs):
            asked.append(("matmul", tuple(needs)))
            out = matmul_vjp(g, a, b, needs)
            assert [grad is not None for grad in out] == list(needs)
            return out

        def spy_plus(g, a, b, pshape, needs):
            asked.append(("matmul-plus", tuple(needs)))
            out = plus_vjp(g, a, b, pshape, needs)
            assert [grad is not None for grad in out] == list(needs)
            return out

        def spy_gather(g, shape, idx):
            asked.append(("gather", shape))
            return gather_vjp(g, shape, idx)

        monkeypatch.setattr(ad, "_matmul_vjp", spy_matmul)
        monkeypatch.setattr(ad, "_matmul_plus_vjp", spy_plus)
        monkeypatch.setattr(ad, "_gather_vjp", spy_gather)
        rng = np.random.default_rng(4)
        embed = ad.Tensor(rng.normal(size=(5, 3)))        # constant table
        w = ad.Tensor(rng.normal(size=(3, 3)))            # constant weight
        c = ad.Tensor(rng.normal(size=(2, 3)))            # constant addend
        z = ad.Tensor(rng.normal(size=3), name="z", trainable=True)
        with ad.Tape() as tape:
            rows = ad.gather_rows(embed, [4, 1])
            h = ad.tanh(ad.add(ad.matmul(rows, w), z))   # z enters as a row-wise bias
            y = ad.reduce_sum(ad.squared_l2(ad.matmul(h, w)))
            grads = ad.backward(tape, y)
        # the constant lookup and its product were never recorded; the one
        # matmul on the tape is asked for its left operand alone
        assert asked == [("matmul", (True, False))]
        assert set(grads) == {"z"}
        asked.clear()
        with ad.Tape() as tape:
            h = ad.tanh(ad.add(ad.matmul(ad.gather_rows(embed, [4, 1]), w), z))
            y = ad.reduce_sum(ad.squared_l2(ad.matmul(h, w, plus=c)))
            grads = ad.backward(tape, y)
        # a constant addend is asked for nothing, and so is the weight
        assert asked == [("matmul-plus", (True, False, False)), ("matmul", (True, False))]
        assert set(grads) == {"z"}

    def test_backward_from_a_root_that_needs_no_gradient_is_an_error(self):
        with ad.Tape() as tape:
            ad.Tensor([1.0], name="unused", trainable=True)
            root = ad.squared_l2(ad.Tensor([3.0, 4.0]))
        assert not root.requires_grad
        with pytest.raises(ContractError, match="needs no gradient"):
            ad.backward(tape, root)

    def test_ops_outside_tape_do_not_record(self):
        out = ad.tanh(ad.Tensor([0.5]))
        assert ad.active_tape() is None
        assert np.isfinite(out.data).all()

    def test_backward_requires_scalar_root(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], name="x", trainable=True)
            y = ad.multiply(x, x)
        with pytest.raises(ContractError):
            ad.backward(tape, y)

    def test_backward_rejects_foreign_root(self):
        with ad.Tape():
            w = ad.Tensor([1.0], name="w", trainable=True)
            stray = ad.reduce_sum(ad.tanh(w))
        with ad.Tape() as tape:
            x = ad.Tensor([1.0], name="x", trainable=True)
            ad.reduce_sum(ad.multiply(x, x))
        with pytest.raises(ContractError, match="not produced on this tape"):
            ad.backward(tape, stray)

    def test_untouched_leaf_gets_zero_gradient(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], name="x", trainable=True)
            ad.Tensor([3.0], name="unused", trainable=True)
            y = ad.reduce_sum(ad.multiply(x, x))
            z = ad.Tensor([5.0], name="z", trainable=True)
            y = ad.add(y, ad.reduce_sum(ad.multiply(z, ad.Tensor([0.0]))))
            grads = ad.backward(tape, y)
        np.testing.assert_allclose(grads["z"], [0.0])

    def test_duplicate_leaf_names_rejected(self):
        with ad.Tape() as tape:
            a = ad.Tensor([1.0], name="w", trainable=True)
            b = ad.Tensor([2.0], name="w", trainable=True)
            y = ad.reduce_sum(ad.add(a, b))
        with pytest.raises(ContractError):
            ad.backward(tape, y)

    def test_fanout_accumulates(self):
        # y = sum(x * x) + sum(x): dy/dx = 2x + 1
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, -2.0], name="x", trainable=True)
            y = ad.add(ad.reduce_sum(ad.multiply(x, x)), ad.reduce_sum(x))
            grads = ad.backward(tape, y)
        np.testing.assert_allclose(grads["x"], [3.0, -3.0], atol=1e-15)


class TestShapeAndNumericErrors:
    @pytest.mark.parametrize("a, b", [((3,), (4,)), ((3,), (4, 2)), ((2, 3), (4,)),
                                      ((2, 3), (4, 2))], ids=["1-1", "1-2", "2-1", "2-2"])
    def test_matmul_shape_mismatch_names_dimensions(self, a, b):
        # numpy's own check finds the mismatch; its error comes out as this one
        with pytest.raises(ShapeError) as err:
            ad.matmul(ad.Tensor(np.ones(a)), ad.Tensor(np.ones(b)))
        assert str(err.value) == f"matmul inner dimensions differ: {a} @ {b}"

    def test_an_addend_of_another_shape_is_a_shape_error(self):
        for a, b, c in (((2, 3), (3,), (3,)),       # a (2,) product meets a (3,) addend
                        ((3, 2), (2, 3), (2, 3)),   # a (3, 3) product
                        ((3,), (3,), (1,))):        # a scalar product meets a vector
            with pytest.raises(ShapeError, match="cannot add"):
                ad.matmul(ad.Tensor(np.ones(a)), ad.Tensor(np.ones(b)),
                          plus=ad.Tensor(np.ones(c)))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(4)))

    def test_log_of_zero_is_numeric_error(self):
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([1.0, 0.0]))

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NumericError):
            ad.Tensor([np.inf, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_multiply_returns_inf(self):
        # a primitive's result is not checked: the overflow travels on to a
        # boundary (tests/test_numeric_boundaries.py)
        big = ad.Tensor(np.full(3, 1e308))
        assert np.array_equal(ad.multiply(big, big).data, np.full(3, np.inf))
        # a tanh that saturates it gives its limit, the chosen semantics
        assert np.array_equal(ad.tanh(ad.multiply(big, ad.neg(big))).data, np.full(3, -1.0))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_backward_rejects_a_non_finite_root(self):
        with ad.Tape() as tape:
            root = ad.squared_l2(ad.Tensor([1e308, 1.0], name="x", trainable=True))
            with pytest.raises(NumericError, match="root"):
                ad.backward(tape, root)

    def test_segment_attention_needs_non_empty_segment_windows_of_its_size(self):
        for lengths in ([2, 0, 1], [], [-1, 4]):  # an empty segment, none at all
            with pytest.raises(ShapeError):
                ad.Windows.of_segments(lengths)
        windows = ad.Windows.of_segments([2, 1])  # 3 entries, 2 windows of width 2

        def attend(n_proj=4, n_query=2, n_v=4, n_slots=4, layout=windows, width=4):
            return ad.segment_attention(
                ad.Tensor(np.linspace(-1.0, 1.0, n_proj * width).reshape(n_proj, width)),
                ad.Tensor(np.ones((n_query, 4))), ad.Tensor(np.ones(n_v)),
                ad.Tensor(np.arange(n_slots * 2.0).reshape(n_slots, 2)), layout)

        attend()
        for bad in ({"n_proj": 3},    # the projections are laid out as the windows, 2 x 2
                    {"n_proj": 5},
                    {"n_query": 3},   # one query per window
                    {"n_v": 3},       # the score vector spans the attention width
                    {"width": 3},     # and so do the projections
                    {"n_slots": 3}):  # and the slots are laid out as the windows
            with pytest.raises(ShapeError):
                attend(**bad)
        with pytest.raises(ContractError):  # a list of ids is not a layout
            attend(layout=[0, 0, 1])
        # only the windows' shape and live entries are read: windows of the
        # same lengths over rows in any order attend alike
        rows = ad.Windows(np.array([[0, 2], [1, 1]]), np.array([2, 1]))
        assert np.array_equal(attend(layout=rows).data, attend().data)

    def test_windows_need_live_entries_and_integer_rows(self):
        for index, lengths in (([[0, 1]], [0]),         # an empty window
                               ([[0, 1]], [3]),         # longer than its width
                               ([[0, -1]], [2]),        # a negative row
                               ([[0.0, 1.0]], [2]),     # rows that are not integers
                               ([0, 1], [2]),           # not a (k, width) matrix
                               ([[0, 1]], [1, 1])):     # one length per window
            with pytest.raises(ShapeError):
                ad.Windows(np.array(index), np.array(lengths))
        with pytest.raises(ShapeError):  # the windows read row 3 of 3
            ad.reduce_mean(ad.Tensor(np.ones((3, 2))),
                           windows=ad.Windows(np.array([[0, 3]]), np.array([2])))

    def test_gather_index_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), [0, 3])
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), [1, -1])
        for rows in (slice(2, 4), slice(2, 2), slice(0, 2, 2), slice(None, 2)):
            with pytest.raises(ShapeError):
                ad.gather_rows(ad.Tensor(np.ones((3, 2))), rows)


def _wrap_cases():
    """One primitive call each, of an input x of the given shape; the 0-d
    results are the cases numpy returns as scalars."""
    rng = np.random.default_rng(5)
    m = ad.Tensor(rng.normal(size=(4, 3)))
    v3 = ad.Tensor(rng.normal(size=3))
    v4 = ad.Tensor(rng.normal(size=4))
    m23 = ad.Tensor(rng.normal(size=(2, 3)))
    slots = ad.Tensor(rng.normal(size=(4, 2)))
    windows = ad.Windows(np.array([[3, 0, 0], [1, 3, 2]]), np.array([1, 3]))
    seg = ad.Windows.of_segments([1, 2])  # 3 entries, 2 windows of width 2
    return {
        "matmul-22": ((2, 4), lambda x: ad.matmul(x, m)),
        "matmul-21": ((2, 3), lambda x: ad.matmul(x, v3)),
        "matmul-12": ((4,), lambda x: ad.matmul(x, m)),
        "matmul-11": ((3,), lambda x: ad.matmul(x, v3)),
        "matmul-plus": ((2, 4), lambda x: ad.matmul(x, m, plus=m23)),
        "matmul-plus-bias": ((2, 4), lambda x: ad.matmul(x, m, plus=v3)),
        "matmul-plus-rows": ((4,), lambda x: ad.matmul(x, m, plus=m23)),
        "matmul-plus-0d": ((3,), lambda x: ad.matmul(x, v3, plus=ad.Tensor(1.5))),
        "matmul-plus-addend": ((3,), lambda x: ad.matmul(v4, m, plus=x)),
        "matmul-plus-scalar": ((2, 4), lambda x: ad.matmul(x, m, plus=ad.Tensor(1.5))),
        "matmul-plus-scalar-addend": ((), lambda x: ad.matmul(m23, v3, plus=x)),
        # the product's tanh in its node, in every addend mode
        "matmul-tanh-22": ((2, 4), lambda x: ad.matmul(x, m, tanh=True)),
        "matmul-tanh-11": ((3,), lambda x: ad.matmul(x, v3, tanh=True)),
        "matmul-tanh-plus": ((2, 4), lambda x: ad.matmul(x, m, plus=m23, tanh=True)),
        "matmul-tanh-plus-bias": ((2, 4), lambda x: ad.matmul(x, m, plus=v3, tanh=True)),
        "matmul-tanh-plus-rows": ((4,), lambda x: ad.matmul(x, m, plus=m23, tanh=True)),
        "matmul-tanh-plus-0d": ((3,), lambda x: ad.matmul(x, v3, plus=ad.Tensor(1.5),
                                                          tanh=True)),
        "matmul-tanh-plus-scalar": ((2, 4), lambda x: ad.matmul(x, m, plus=ad.Tensor(1.5),
                                                                tanh=True)),
        "add": ((3,), lambda x: ad.add(x, v3)),
        "add-bias": ((2, 3), lambda x: ad.add(x, v3)),
        "multiply": ((3,), lambda x: ad.multiply(x, v3)),
        "multiply-scalar": ((3,), lambda x: ad.multiply(x, ad.Tensor(2.0))),
        "multiply-0d": ((), lambda x: ad.multiply(x, ad.Tensor(2.0))),
        "tanh": ((2, 3), ad.tanh),
        "tanh-0d": ((), ad.tanh),
        "softmax": ((2, 3), ad.softmax),
        # m's rows as the projections, laid out as the windows, and the
        # queries of an attention width of 3
        "segment-attention-proj": ((4, 3), lambda x: ad.segment_attention(
            x, ad.Tensor(m.data[:2]), v3, slots, seg)),
        "segment-attention-query": ((2, 3), lambda x: ad.segment_attention(
            m, x, v3, slots, seg)),
        "segment-attention-att-v": ((3,), lambda x: ad.segment_attention(
            m, ad.Tensor(m.data[:2]), x, slots, seg)),
        "segment-attention-slots": ((4, 2), lambda x: ad.segment_attention(
            m, ad.Tensor(m.data[:2]), v3, x, seg)),
        "log": ((3,), ad.log),
        "log-0d": ((), ad.log),
        "log-sigmoid": ((3,), ad.log_sigmoid),
        "log-sigmoid-0d": ((), ad.log_sigmoid),
        "sum": ((2, 3), ad.reduce_sum),
        "sum-0d": ((), ad.reduce_sum),
        "mean-windows": ((4, 3), lambda x: ad.reduce_mean(x, windows=windows)),
        "gather": ((4, 3), lambda x: ad.gather_rows(x, [2, 0, 2])),
        "gather-int": ((4, 3), lambda x: ad.gather_rows(x, 1)),
        "gather-int-of-vector": ((4,), lambda x: ad.gather_rows(x, 1)),
        "gather-slice": ((4, 3), lambda x: ad.gather_rows(x, slice(1, 3))),
        "concat": ((2, 4), lambda x: ad.concat([x, v4])),
        "squared-l2": ((3,), ad.squared_l2),
        "squared-l2-0d": ((), ad.squared_l2),
        "squared-l2-rows": ((2, 3), ad.squared_l2),
    }


@pytest.mark.parametrize("name", sorted(_wrap_cases().keys()))
def test_primitive_results_are_float64_arrays_that_need_a_gradient_only_when_recorded(
        name, monkeypatch):
    shape, fn = _wrap_cases()[name]
    point = np.abs(np.random.default_rng(9).normal(size=shape)) + 0.5  # positive, for log
    adjoints = []  # the adjoint each call hands to the recording wrapper
    emit = ad._emit

    def recording(out, inputs, vjp):
        adjoints.append(vjp.__qualname__)
        return emit(out, inputs, vjp)

    monkeypatch.setattr(ad, "_emit", recording)

    def check(y, recorded):
        assert type(y.data) is np.ndarray and y.data.dtype == np.float64
        assert y.name is None and y.trainable is False
        assert y.requires_grad is recorded

    assert ad.active_tape() is None
    untaped = fn(ad.Tensor(point))
    check(untaped, False)
    assert adjoints == []  # no tape open: no adjoint built, nothing recorded
    with ad.Tape() as tape:
        check(fn(ad.Tensor(point)), False)
        assert len(tape) == 0
        y = fn(ad.Tensor(point, name="x", trainable=True))
        check(y, True)
        assert len(tape) == 1 and tape._nodes[0][0] is y
    # each adjoint is a closure named vjp inside its primitive
    assert len(adjoints) == 2 and all(q.endswith(".<locals>.vjp") for q in adjoints)
    # off the tape and on it, the same ops give the same bits
    assert untaped.shape == y.shape and untaped.data.tobytes() == y.data.tobytes()


def _attention_case(windows, which, rng):
    """``segment_attention`` over ``windows`` with its input ``which`` (0 the
    projections, 1 the queries, 2 att_v, 3 the slots) x, the others
    constants; the projections and the slots are laid out as the windows by
    a gather, as ``decoder_start`` lays out the slots it projects."""
    k, n = windows.index.shape[0], windows.span
    consts = [rng.normal(size=(n, 3)), rng.normal(size=(k, 3)), rng.normal(size=3),
              rng.normal(size=(n, 2))]

    def fn(x):
        args = [ad.Tensor(c) for c in consts]
        args[which] = x
        for i in (0, 3):
            args[i] = ad.gather_rows(args[i], windows.index.reshape(-1))
        return ad.reduce_sum(ad.tanh(ad.segment_attention(*args, windows)))

    return consts[which].shape, fn


def _primitive_cases():
    rng = np.random.default_rng(11)
    w2 = ad.Tensor(rng.normal(size=(4, 3)))
    wv = ad.Tensor(rng.normal(size=4))
    w5 = ad.Tensor(rng.normal(size=5))
    idx = [0, 2, 2]
    w3 = ad.Tensor(rng.normal(size=3))
    c33 = ad.Tensor(rng.normal(size=(3, 3)))
    c34 = ad.Tensor(rng.normal(size=(3, 4)))
    seg = ad.Windows.of_segments([3, 1, 2])  # segment 1 holds one slot
    tiled = ad.Windows.of_segments([2, 2, 2])  # equal segments: no dead entry
    # rows in any order, shared between windows, one window a single row
    pools = ad.Windows(np.array([[4, 0, 2, 2], [0, 0, 0, 0], [1, 3, 0, 4]]),
                       np.array([3, 1, 4]))
    tiled_pools = ad.Windows.of_segments([2, 2])  # equal segments
    return {
        "matmul-22": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, w2)))),
        "matmul-21": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, wv)))),
        "matmul-12": ((4,), lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, w2)))),
        "matmul-11": ((4,), lambda x: ad.tanh(ad.matmul(x, wv))),
        # the three addend modes, each with x an operand (a constant addend)
        # and with x the addend
        "matmul-plus": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, w2, plus=c33)))),
        "matmul-plus-addend": ((3, 3), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(c34, w2, plus=x)))),
        "matmul-plus-bias": ((3, 4), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(x, w2, plus=w3)))),
        "matmul-plus-bias-addend": ((3,), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(c34, w2, plus=x)))),
        "matmul-plus-rows": ((4,), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(x, w2, plus=c33)))),
        "matmul-plus-rows-addend": ((2, 3), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(wv, w2, plus=x)))),
        # x both an operand and the addend: the two adjoints accumulate
        "matmul-plus-both": ((3, 3), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(x, c33, plus=x)))),
        "matmul-plus-0d": ((4,), lambda x: ad.tanh(ad.matmul(x, wv, plus=ad.squared_l2(x)))),
        # a 0-d addend of a vector or a matrix product: its adjoint is the sum
        "matmul-plus-scalar": ((3, 4), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(x, w2, plus=ad.squared_l2(wv))))),
        "matmul-plus-scalar-addend": ((), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(c34, wv, plus=x)))),
        "matmul-plus-scalar-both": ((4,), lambda x: ad.reduce_sum(
            ad.tanh(ad.matmul(c34, x, plus=ad.squared_l2(x))))),
        # the tanh inside the product's node, in every addend mode and for x
        # each input
        "matmul-tanh-22": ((3, 4), lambda x: ad.reduce_sum(ad.matmul(x, w2, tanh=True))),
        "matmul-tanh-21": ((3, 4), lambda x: ad.reduce_sum(ad.matmul(x, wv, tanh=True))),
        "matmul-tanh-12": ((4,), lambda x: ad.reduce_sum(ad.matmul(x, w2, tanh=True))),
        "matmul-tanh-11": ((4,), lambda x: ad.matmul(x, wv, tanh=True)),
        "matmul-tanh-plus": ((3, 4), lambda x: ad.reduce_sum(
            ad.matmul(x, w2, plus=c33, tanh=True))),
        "matmul-tanh-plus-addend": ((3, 3), lambda x: ad.reduce_sum(
            ad.matmul(c34, w2, plus=x, tanh=True))),
        "matmul-tanh-plus-bias": ((3, 4), lambda x: ad.reduce_sum(
            ad.matmul(x, w2, plus=w3, tanh=True))),
        "matmul-tanh-plus-bias-addend": ((3,), lambda x: ad.reduce_sum(
            ad.matmul(c34, w2, plus=x, tanh=True))),
        "matmul-tanh-plus-rows": ((4,), lambda x: ad.reduce_sum(
            ad.matmul(x, w2, plus=c33, tanh=True))),
        "matmul-tanh-plus-rows-addend": ((2, 3), lambda x: ad.reduce_sum(
            ad.matmul(wv, w2, plus=x, tanh=True))),
        "matmul-tanh-plus-both": ((3, 3), lambda x: ad.reduce_sum(
            ad.matmul(x, c33, plus=x, tanh=True))),
        "matmul-tanh-plus-0d": ((4,), lambda x: ad.matmul(x, wv, plus=ad.squared_l2(x),
                                                          tanh=True)),
        "matmul-tanh-plus-scalar": ((3, 4), lambda x: ad.reduce_sum(
            ad.matmul(x, w2, plus=ad.squared_l2(wv), tanh=True))),
        "matmul-tanh-plus-scalar-addend": ((), lambda x: ad.reduce_sum(
            ad.matmul(c34, wv, plus=x, tanh=True))),
        "add": ((4,), lambda x: ad.reduce_sum(ad.tanh(ad.add(x, wv)))),
        "add-bias": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.add(x, wv)))),
        "multiply": ((4,), lambda x: ad.reduce_sum(ad.multiply(x, ad.multiply(x, wv)))),
        "tanh": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(x))),
        "softmax": ((5,), lambda x: ad.reduce_sum(ad.multiply(ad.softmax(x), w5))),
        **{f"segment-attention-{input_}{label}": _attention_case(windows, i, rng)
           for label, windows in (("", seg), ("-tiled", tiled))
           for i, input_ in enumerate(("proj", "query", "att-v", "slots"))},
        # every input a function of x: the four adjoints accumulate
        "segment-attention-all": ((6, 3), lambda x: ad.reduce_sum(ad.tanh(ad.segment_attention(
            ad.matmul(ad.gather_rows(x, seg.index.reshape(-1)), c33),
            ad.gather_rows(x, [0, 3, 5]), ad.gather_rows(x, 1),
            ad.gather_rows(x, seg.index.reshape(-1)), seg)))),
        "segment-attention-all-tiled": ((6, 3), lambda x: ad.reduce_sum(ad.tanh(
            ad.segment_attention(ad.matmul(x, c33), ad.gather_rows(x, [0, 3, 5]),
                                 ad.gather_rows(x, 1), x, tiled)))),
        "log-sigmoid": ((4,), lambda x: ad.reduce_sum(ad.multiply(ad.log_sigmoid(x), wv))),
        "log": ((4,), lambda x: ad.reduce_sum(ad.log(ad.add(ad.multiply(x, x), ad.Tensor(np.ones(4)))))),
        "mean-windows": ((5, 4), lambda x: ad.reduce_sum(
            ad.tanh(ad.reduce_mean(x, windows=pools)))),
        # equal windows over the first 4 of 5 rows
        "mean-windows-tiled": ((5, 4), lambda x: ad.reduce_sum(
            ad.tanh(ad.reduce_mean(x, windows=tiled_pools)))),
        "gather": ((5, 4), lambda x: ad.reduce_sum(ad.tanh(ad.gather_rows(x, idx)))),
        "gather-int": ((5, 4), lambda x: ad.reduce_sum(ad.gather_rows(x, 3))),
        "gather-slice": ((5, 4), lambda x: ad.reduce_sum(ad.tanh(ad.gather_rows(x, slice(1, 3))))),
        "concat-rows": ((2, 4), lambda x: ad.reduce_sum(ad.tanh(ad.concat([x, wv])))),
        "concat-vectors": ((4,), lambda x: ad.reduce_sum(ad.tanh(ad.concat([x, wv, x])))),
        "squared-l2": ((4,), lambda x: ad.squared_l2(x)),
        "squared-l2-rows": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.squared_l2(x)))),
    }


@pytest.mark.parametrize("name", sorted(_primitive_cases().keys()))
def test_primitive_gradients_match_central_differences(name):
    shape, fn = _primitive_cases()[name]
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    # 50 random points per primitive; the acceptance suite runs the wide sweep
    for _ in range(50):
        point = rng.normal(size=shape)
        report = ad.gradcheck(fn, point, h=1e-5, tol=1e-4)
        assert report.passed, str(report)


@pytest.mark.parametrize("mode, shapes", [
    ("same", ((6, 9), (9, 7), (6, 7))),
    ("bias", ((6, 9), (9, 7), (7,))),
    ("rows", ((9,), (9, 7), (6, 7))),   # a vector product broadcast over the rows
    ("0d", ((9,), (9,), ())),
])
def test_a_product_plus_addend_has_the_bits_of_a_product_and_an_add(mode, shapes):
    rng = np.random.default_rng(13)
    points = [rng.normal(size=shape) for shape in shapes]
    unfused = {"same": ["product first", "addend first"], "bias": ["product first"],
               "rows": ["addend first"], "0d": ["product first", "addend first"]}[mode]

    def run(form):
        with ad.Tape() as tape:
            a, b, c = (ad.Tensor(p, name=n, trainable=True) for p, n in zip(points, "abc"))
            if form == "fused":
                y = ad.matmul(a, b, plus=c)
            elif form == "product first":
                y = ad.add(ad.matmul(a, b), c)
            else:
                y = ad.add(c, ad.matmul(a, b))
            grads = ad.backward(tape, ad.reduce_sum(ad.tanh(y)))
        return [y.data] + [grads[n] for n in "abc"]

    fused = run("fused")
    assert fused[0].shape == np.broadcast_shapes(np.dot(points[0], points[1]).shape, shapes[2])
    for form in unfused:
        for got, want in zip(fused, run(form)):
            assert got.shape == want.shape and np.array_equal(got, want), form


@pytest.mark.parametrize("shapes", [
    ((6, 9), (9, 7), None), ((6, 9), (9,), None), ((9,), (9, 7), None), ((9,), (9,), None),
    ((6, 9), (9, 7), (6, 7)), ((9,), (9, 7), (7,)), ((6, 9), (9,), (6,)),  # same shape
    ((6, 9), (9, 7), (7,)),                                                # a row bias
    ((6, 9), (9, 7), ()), ((9,), (9, 7), ()), ((9,), (9,), ()),           # 0-d
    ((9,), (9, 7), (6, 7)),                        # a vector product broadcast over rows
], ids=str)
def test_a_product_with_its_tanh_has_the_bits_of_the_tanh_of_the_product(shapes):
    rng = np.random.default_rng(19)
    points = [rng.normal(size=shape) for shape in shapes if shape is not None]
    names = "abc"[:len(points)]

    def run(fused):
        with ad.Tape() as tape:
            a, b, *plus = (ad.Tensor(p, name=n, trainable=True) for p, n in zip(points, names))
            plus = plus[0] if plus else None
            y = (ad.matmul(a, b, plus=plus, tanh=True) if fused
                 else ad.tanh(ad.matmul(a, b, plus=plus)))
            # an uneven adjoint, so every entry of the tanh's adjoint counts
            weights = ad.Tensor(np.random.default_rng(23).normal(size=y.shape))
            grads = ad.backward(tape, ad.reduce_sum(ad.multiply(y, weights)))
        return [y.data] + [grads[n] for n in names]

    for got, want in zip(run(True), run(False), strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("shapes", [((6, 9), (9,)), ((6, 9), (9, 7))])
def test_a_0d_addend_has_the_bits_of_a_ones_addend(shapes):
    rng = np.random.default_rng(17)
    points = [rng.normal(size=shape) for shape in shapes] + [np.asarray(rng.normal())]
    shape = np.dot(points[0], points[1]).shape

    def run(spread):
        # spread: the addend as a full array of its value, its adjoint summed here
        with ad.Tape() as tape:
            a, b = (ad.Tensor(p, name=n, trainable=True) for p, n in zip(points, "ab"))
            c = ad.Tensor(np.full(shape, points[2]) if spread else points[2],
                          name="c", trainable=True)
            y = ad.matmul(a, b, plus=c)
            grads = ad.backward(tape, ad.reduce_sum(ad.tanh(y)))
        return [y.data, grads["a"], grads["b"], np.asarray(grads["c"].sum())]

    for got, want in zip(run(False), run(True)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_log_sigmoid_is_finite_at_extremes_and_exact_at_moderate_x():
    with ad.Tape() as tape:
        x = ad.Tensor([-1e5, 1e5], name="x", trainable=True)
        y = ad.log_sigmoid(x)
        grad = ad.backward(tape, ad.reduce_sum(y))["x"]
    np.testing.assert_array_equal(y.data, [-1e5, 0.0])
    np.testing.assert_array_equal(grad, [1.0, 0.0])
    xs = np.linspace(-30.0, 30.0, 241)
    with localcontext() as ctx:
        ctx.prec = 40
        want = [float(-(1 + (-Decimal(v)).exp()).ln()) for v in xs]
    np.testing.assert_allclose(ad.log_sigmoid(ad.Tensor(xs)).data, want, rtol=1e-15, atol=0.0)


def test_gradcheck_linearity_of_backward():
    rng = np.random.default_rng(3)
    w = ad.Tensor(rng.normal(size=(4, 4)))
    f = lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, w)))
    g = lambda x: ad.squared_l2(x)
    a, b = 2.5, -1.25
    point = rng.normal(size=4)

    def grad_of(fn):
        with ad.Tape() as tape:
            x = ad.Tensor(point, name="x", trainable=True)
            return ad.backward(tape, fn(x))["x"]

    combo = lambda x: ad.add(ad.scale(f(x), a), ad.scale(g(x), b))
    np.testing.assert_allclose(grad_of(combo), a * grad_of(f) + b * grad_of(g),
                               rtol=1e-12, atol=1e-12)


def test_gradcheck_flags_injected_wrong_adjoint(monkeypatch):
    # breaking only the analytic rule must trip the checker and name a coordinate
    def wrong(g, y):
        return (g * (1.0 - 0.5 * y * y),)

    monkeypatch.setattr(ad, "_tanh_vjp", wrong)
    report = ad.gradcheck(lambda x: ad.reduce_sum(ad.tanh(x)), np.array([0.7, -1.2]))
    assert not report.passed
    assert report.bad_coords
    assert "coordinate" in str(report)


def test_gradcheck_of_a_function_independent_of_x_gives_zeros():
    const = ad.Tensor([0.3, -1.2])
    report = ad.gradcheck(lambda x: ad.squared_l2(ad.tanh(const)), np.array([0.7, 2.0]))
    assert report.passed
    assert report.max_rel_error == 0.0


def test_gradcheck_nonfinite_region_raises():
    with pytest.raises(NumericError):
        ad.gradcheck(lambda x: ad.reduce_sum(ad.log(x)), np.array([1e-7, 2.0]), h=1e-5)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_gradcheck_raises_where_the_function_overflows_off_the_log_path():
    # finite at the point and past the largest double at the probe x + h; the
    # analytic gradient overflows too, and inf - inf is NaN, which compares
    # false against the tolerance: only the probe check sees it
    def fn(x):
        return ad.squared_l2(ad.scale(x, 1e154))

    assert np.isfinite(float(fn(ad.Tensor([1.34])).data))
    with pytest.raises(NumericError, match="probe"):
        ad.gradcheck(fn, np.array([1.34]), h=1e-3)
    # a function independent of x has no backward at all
    const = ad.Tensor([1e308])
    with pytest.raises(NumericError, match="probe"):
        ad.gradcheck(lambda x: ad.squared_l2(const), np.array([1.0]))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_gradcheck_raises_on_a_nan_gradient_behind_a_saturated_tanh():
    # u overflows to inf and tanh(x * u) saturates at +-1, so every probe
    # value is finite; the adjoint of x * u is 0 * inf = NaN
    u = ad.multiply(ad.Tensor([1e200]), ad.Tensor([1e200]))

    def fn(x):
        return ad.reduce_sum(ad.tanh(ad.multiply(x, u)))

    assert float(fn(ad.Tensor([0.5])).data) == 1.0
    with pytest.raises(NumericError, match="analytic gradient"):
        ad.gradcheck(fn, np.array([0.5]))


SEGMENT_LENGTHS = st.one_of(
    st.lists(st.just(1), min_size=1, max_size=6),                         # one-slot segments
    st.tuples(st.integers(1, 6), st.integers(1, 5)).map(lambda t: [t[0]] * t[1]),  # all equal
    st.lists(st.integers(1, 6), min_size=1, max_size=6))                  # mixed


def _attention_inputs(lengths, seed):
    """Projections, queries, att_v and slots (N rows) of segment attention
    over segments of ``lengths``."""
    rng = np.random.default_rng(seed)
    n, k = sum(lengths), len(lengths)
    return (rng.normal(size=(n, 5)), rng.normal(size=(k, 5)), rng.normal(size=5) * 3.0,
            rng.normal(size=(n, 4)))


@given(lengths=SEGMENT_LENGTHS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_windowed_segment_attention_matches_a_plain_softmax_per_segment(lengths, seed):
    proj, query, att_v, slots = _attention_inputs(lengths, seed)
    windows = ad.Windows.of_segments(lengths)
    layout = windows.index.reshape(-1)
    out = ad.segment_attention(ad.Tensor(proj[layout]), ad.Tensor(query), ad.Tensor(att_v),
                               ad.Tensor(slots[layout]), windows).data
    assert out.shape == (len(lengths), 4)
    start = 0
    for j, (row, length) in enumerate(zip(out, lengths)):
        scores = np.tanh(proj[start:start + length] + query[j]) @ att_v
        e = np.exp(scores - scores.max())
        np.testing.assert_allclose(row, (e / e.sum()) @ slots[start:start + length],
                                   rtol=0, atol=1e-12)
        start += length


@pytest.mark.parametrize("lengths", [[3, 1, 2, 5], [4, 4, 4], [1]])
def test_fused_segment_attention_has_the_bits_of_the_unfused_ops(lengths):
    # the ops the decoder step ran before they were one node, in their order,
    # over every row of the padded layout: each row's lane query added to its
    # projection, tanh, the product with att_v, then the window softmax with
    # the dead entries at -inf and the weighted sum
    proj, query, att_v, slots = _attention_inputs(lengths, 17)
    windows = ad.Windows.of_segments(lengths)
    (k, width), layout = windows.index.shape, windows.index.reshape(-1)
    scores = np.tanh(proj[layout] + query[np.repeat(np.arange(k), width)]).dot(att_v)
    xw = np.where(windows.live, scores.reshape(k, width), -np.inf)
    e = np.exp(xw - xw.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    want = np.matmul(w[:, None, :], slots[windows.index])[:, 0, :]
    got = ad.segment_attention(ad.Tensor(proj[layout]), ad.Tensor(query), ad.Tensor(att_v),
                               ad.Tensor(slots[layout]), windows).data
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lengths", [[3, 1, 2, 5], [1, 4]])
def test_finite_values_in_dead_rows_reach_neither_the_attention_nor_a_live_adjoint(lengths):
    proj, query, att_v, slots = _attention_inputs(lengths, 29)
    windows = ad.Windows.of_segments(lengths)
    layout, dead = windows.index.reshape(-1), ~windows.live.reshape(-1)

    def attend(proj_rows, slot_rows):
        with ad.Tape() as tape:
            args = [ad.Tensor(a, name=name, trainable=True) for name, a in (
                ("proj", proj_rows), ("query", query), ("att_v", att_v), ("slots", slot_rows))]
            out = ad.segment_attention(*args, windows)
            return out.data, ad.backward(tape, ad.reduce_sum(ad.tanh(out)))

    want, want_grads = attend(proj[layout], slots[layout])
    rng = np.random.default_rng(6)
    moved = [proj[layout], slots[layout]]
    for rows in moved:
        rows[dead] = rng.normal(size=rows[dead].shape) * 50.0
    got, got_grads = attend(*moved)
    assert dead.any() and np.array_equal(got, want)
    for name in ("query", "att_v"):
        assert np.array_equal(got_grads[name], want_grads[name])
    for name in ("proj", "slots"):  # the dead rows' adjoints are 0
        assert np.array_equal(got_grads[name][~dead], want_grads[name][~dead])
        assert not got_grads[name][dead].any() and not want_grads[name][dead].any()


@pytest.mark.parametrize("key", [2, -1, slice(1, 4), [0, 2, 3], [4], [3, 1], [1, 3, 1]],
                         ids=["int", "negative-int", "slice", "increasing", "one-row",
                              "decreasing", "repeated"])
def test_gather_adjoint_equals_the_accumulating_form_for_every_key(key):
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.normal(size=(5, 3)), name="x", trainable=True)
    # an adjoint with zeros of both signs, which accumulation from +0 makes +0
    w = ad.Tensor(rng.normal(size=x.data[key].shape) * (rng.random(x.data[key].shape) > 0.3))
    with ad.Tape() as tape:
        grad = ad.backward(tape, ad.reduce_sum(ad.multiply(ad.gather_rows(x, key), w)))["x"]
    want = np.zeros((5, 3))
    np.add.at(want, key if isinstance(key, (int, slice)) else np.asarray(key), w.data)
    assert np.array_equal(grad, want)


@given(lengths=SEGMENT_LENGTHS)
@settings(max_examples=100, deadline=None)
def test_segment_windows_match_the_layout_derived_from_their_index(lengths):
    # ``of_segments`` sets what the general constructor derives from the index
    built = ad.Windows.of_segments(lengths)
    derived = ad.Windows(built.index, built.lengths)
    assert built.segments and derived.segments
    assert built.span == derived.span == sum(lengths)
    assert built.shared == derived.shared
    for name in ("index", "lengths", "live", "full"):
        assert np.array_equal(getattr(built, name), getattr(derived, name))


@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_windowed_mean_equals_the_mean_of_each_windows_gathered_rows(data, seed):
    n_rows = data.draw(st.integers(1, 7))
    k, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    index = np.array(data.draw(st.lists(st.lists(st.integers(0, n_rows - 1), min_size=width,
                                                 max_size=width), min_size=k, max_size=k)))
    lengths = np.array(data.draw(st.lists(st.integers(1, width), min_size=k, max_size=k)))
    # windows that start with the same rows, as the lanes of one example do
    # with its prefix, have those columns summed once
    alike = data.draw(st.integers(0, width))
    index[:, :alike] = index[0, :alike]
    rows = ad.Windows(index, lengths)
    assert rows.shared >= min(alike, lengths.min())
    x = np.random.default_rng(seed).normal(size=(max(n_rows, k * width), 3))
    segments = ad.Windows.of_segments(lengths)  # consecutive runs of the rows
    for windows in (rows, segments):
        out = ad.reduce_mean(ad.Tensor(x), windows=windows).data
        for row, rows, length in zip(out, windows.index, lengths):
            # summed in window order: the same bits as the gathered rows' mean
            assert np.array_equal(row, x[rows[:length]].mean(axis=0))


@pytest.mark.parametrize("width", [3, 9, 17, 130])
def test_each_row_s_sum_of_squares_has_the_bits_of_its_vector_s(width):
    rows = np.random.default_rng(width).normal(size=(4, width)) * 7.0
    got = ad.squared_l2(ad.Tensor(rows)).data
    assert got.shape == (4,)
    for row, value in zip(rows, got):
        assert value == ad.squared_l2(ad.Tensor(row)).data
    with pytest.raises(ShapeError):
        ad.squared_l2(ad.Tensor(np.ones((2, 2, 2))))


def test_a_scalar_that_needs_a_gradient_is_not_broadcast():
    with ad.Tape():
        x = ad.Tensor(2.0, name="x", trainable=True)
        for a, b in ((x, ad.Tensor(np.ones(3))), (ad.Tensor(np.ones((2, 3))), x)):
            with pytest.raises(ShapeError, match="constant scalar"):
                ad.multiply(a, b)
    # a 0-d operand of a 0-d product may need one
    assert ad.multiply(x, ad.Tensor(3.0)).data == 6.0


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
def test_scale_and_neg_gradients_are_the_constant_times_the_adjoint(shape):
    rng = np.random.default_rng(23)
    point, w = rng.normal(size=shape), ad.Tensor(rng.normal(size=shape))
    for fn, c in ((lambda x: ad.scale(x, 0.37), 0.37), (ad.neg, -1.0)):
        with ad.Tape() as tape:
            x = ad.Tensor(point, name="x", trainable=True)
            grad = ad.backward(tape, ad.reduce_sum(ad.multiply(fn(x), w)))["x"]
        assert grad.shape == shape and np.array_equal(grad, w.data * c)
