"""Tape, primitive, and gradcheck behavior, anchored by frozen values."""
from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
import pytest

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
        out = ad.segment_attention(ad.Tensor(np.zeros(6)), ad.Tensor(slots), [0, 0, 0, 1, 2, 2])
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
        matmul_vjp, gather_vjp = ad._matmul_vjp, ad._gather_vjp

        def spy_matmul(g, a, b, needs):
            asked.append(("matmul", tuple(needs)))
            out = matmul_vjp(g, a, b, needs)
            assert [grad is not None for grad in out] == list(needs)
            return out

        def spy_gather(g, shape, idx):
            asked.append(("gather", shape))
            return gather_vjp(g, shape, idx)

        monkeypatch.setattr(ad, "_matmul_vjp", spy_matmul)
        monkeypatch.setattr(ad, "_gather_vjp", spy_gather)
        rng = np.random.default_rng(4)
        embed = ad.Tensor(rng.normal(size=(5, 3)))        # constant table
        w = ad.Tensor(rng.normal(size=(3, 3)))            # constant weight
        z = ad.Tensor(rng.normal(size=3), name="z", trainable=True)
        with ad.Tape() as tape:
            rows = ad.gather_rows(embed, [4, 1])
            h = ad.tanh(ad.add(ad.matmul(rows, w), z))   # z enters as a row-wise bias
            y = ad.squared_l2(ad.matmul(h, w))
            grads = ad.backward(tape, y)
        # the constant lookup and its product were never recorded; the one
        # matmul on the tape is asked for its left operand alone
        assert asked == [("matmul", (True, False))]
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
    def test_matmul_shape_mismatch_names_dimensions(self):
        with pytest.raises(ShapeError) as err:
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

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

    def test_segment_attention_needs_contiguous_non_empty_segments(self):
        for seg, n_slots in (([0, 0, 2], 3),   # segment 1 is empty
                             ([1, 1, 0], 3),   # segments out of order
                             ([0, 1, 0], 3),   # segment 0 is not contiguous
                             ([0, 1], 3),      # one segment id per score
                             ([0, 0, 1], 2)):  # one slot per score
            with pytest.raises(ShapeError):
                ad.segment_attention(ad.Tensor(np.zeros(3)), ad.Tensor(np.ones((n_slots, 2))),
                                     seg)
        with pytest.raises(ContractError):
            ad.segment_attention(ad.Tensor(np.zeros(2)), ad.Tensor(np.ones((2, 2))), [0.0, 1.0])

    def test_gather_index_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), [0, 3])
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), [1, -1])
        for rows in (slice(2, 4), slice(2, 2), slice(0, 2, 2), slice(None, 2)):
            with pytest.raises(ShapeError):
                ad.gather_rows(ad.Tensor(np.ones((3, 2))), rows)


def _primitive_cases():
    rng = np.random.default_rng(11)
    w2 = ad.Tensor(rng.normal(size=(4, 3)))
    wv = ad.Tensor(rng.normal(size=4))
    w5 = ad.Tensor(rng.normal(size=5))
    idx = [0, 2, 2]
    w3 = ad.Tensor(rng.normal(size=3))
    seg = [0, 0, 0, 1, 2, 2]  # segment 1 holds one slot
    return {
        "matmul-22": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, w2)))),
        "matmul-21": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, wv)))),
        "matmul-12": ((4,), lambda x: ad.reduce_sum(ad.tanh(ad.matmul(x, w2)))),
        "matmul-11": ((4,), lambda x: ad.tanh(ad.matmul(x, wv))),
        "add": ((4,), lambda x: ad.reduce_sum(ad.tanh(ad.add(x, wv)))),
        "add-bias": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(ad.add(x, wv)))),
        "multiply": ((4,), lambda x: ad.reduce_sum(ad.multiply(x, ad.multiply(x, wv)))),
        "tanh": ((3, 4), lambda x: ad.reduce_sum(ad.tanh(x))),
        "softmax": ((5,), lambda x: ad.reduce_sum(ad.multiply(ad.softmax(x), w5))),
        # the slots are x and their scores a function of x: both adjoints count
        "segment-attention": ((6, 3), lambda x: ad.reduce_sum(
            ad.tanh(ad.segment_attention(ad.matmul(x, w3), x, seg)))),
        "log-sigmoid": ((4,), lambda x: ad.reduce_sum(ad.multiply(ad.log_sigmoid(x), wv))),
        "log": ((4,), lambda x: ad.reduce_sum(ad.log(ad.add(ad.multiply(x, x), ad.Tensor(np.ones(4)))))),
        "sum-axis0": ((3, 4), lambda x: ad.matmul(ad.reduce_sum(x, axis=0), wv)),
        "mean": ((3, 4), lambda x: ad.reduce_mean(x)),
        "mean-axis0": ((3, 4), lambda x: ad.matmul(ad.reduce_mean(x, axis=0), wv)),
        "gather": ((5, 4), lambda x: ad.reduce_sum(ad.tanh(ad.gather_rows(x, idx)))),
        "gather-int": ((5, 4), lambda x: ad.reduce_sum(ad.gather_rows(x, 3))),
        "gather-slice": ((5, 4), lambda x: ad.reduce_sum(ad.tanh(ad.gather_rows(x, slice(1, 3))))),
        "concat-rows": ((2, 4), lambda x: ad.reduce_sum(ad.tanh(ad.concat([x, wv])))),
        "concat-vectors": ((4,), lambda x: ad.reduce_sum(ad.tanh(ad.concat([x, wv, x])))),
        "squared-l2": ((4,), lambda x: ad.squared_l2(x)),
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
