"""Finite-difference verification of every autodiff primitive.

Each op's analytic gradient is checked against central differences computed
from the raw numpy forward function — an oracle independent of the backward
implementations.
"""

import numpy as np
import pytest

from gridflex.autodiff import Tensor, no_grad, parameter
from gridflex.errors import NumericalError, ShapeError

RNG = np.random.default_rng(42)
EPS = 1e-6
TOL = 1e-6


def numeric_grad(f, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of scalar f at x."""
    g = np.zeros_like(x, dtype=float)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = f(x)
        flat_x[i] = orig - eps
        down = f(x)
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * eps)
    return g


def check_unary(op_name, build, raw, shape, low=-2.0, high=2.0):
    """Compare Tensor-op gradient to the FD gradient of the raw numpy op."""
    x = RNG.uniform(low, high, size=shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.sum().backward()

    def f(arr):
        return float(raw(arr).sum())

    expected = numeric_grad(f, x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=TOL, rtol=TOL,
                               err_msg=f"gradient mismatch for {op_name}")


class TestElementwise:
    @pytest.mark.parametrize("name,build,raw,low,high", [
        ("tanh", lambda t: t.tanh(), np.tanh, -2, 2),
        ("sigmoid", lambda t: t.sigmoid(), lambda x: 1 / (1 + np.exp(-x)), -2, 2),
        ("exp", lambda t: t.exp(), np.exp, -2, 2),
        ("log", lambda t: t.log(), np.log, 0.1, 3),
        ("sqrt", lambda t: t.sqrt(), np.sqrt, 0.1, 3),
        ("pow3", lambda t: t.pow_const(3.0), lambda x: x**3, -2, 2),
        ("neg", lambda t: -t, lambda x: -x, -2, 2),
    ])
    def test_unary_ops(self, name, build, raw, low, high):
        check_unary(name, build, raw, (3, 4), low, high)

    def test_relu_away_from_kink(self):
        # FD is unreliable exactly at 0, so keep inputs away from it.
        x = RNG.uniform(0.5, 2.0, size=(3, 4)) * RNG.choice([-1, 1], size=(3, 4))
        t = Tensor(x.copy(), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, (x > 0).astype(float))

    def test_softmax_rows(self):
        x = RNG.normal(size=(4, 5))
        t = Tensor(x.copy(), requires_grad=True)
        # Weighted sum so the softmax Jacobian is exercised off-diagonal.
        w = RNG.normal(size=(4, 5))
        (t.softmax(axis=-1) * w).sum().backward()

        def f(arr):
            e = np.exp(arr - arr.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

        np.testing.assert_allclose(t.grad, numeric_grad(f, x.copy()), atol=TOL)

    def test_softmax_rows_sum_to_one(self):
        y = Tensor(RNG.normal(size=(6, 7))).softmax(axis=-1)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


class TestBinary:
    @pytest.mark.parametrize("name,op,raw", [
        ("add", lambda a, b: a + b, lambda a, b: a + b),
        ("sub", lambda a, b: a - b, lambda a, b: a - b),
        ("mul", lambda a, b: a * b, lambda a, b: a * b),
        ("div", lambda a, b: a / b, lambda a, b: a / b),
    ])
    def test_both_grads(self, name, op, raw):
        a = RNG.uniform(0.5, 2.0, size=(3, 4))
        b = RNG.uniform(0.5, 2.0, size=(3, 4))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        op(ta, tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: float(raw(x, b).sum()), a.copy()),
            atol=TOL, err_msg=f"{name}: lhs grad")
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: float(raw(a, x).sum()), b.copy()),
            atol=TOL, err_msg=f"{name}: rhs grad")

    def test_broadcast_grad_shapes(self):
        a = RNG.normal(size=(3, 1))
        b = RNG.normal(size=(1, 4))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta * tb).sum().backward()
        assert ta.grad.shape == (3, 1)
        assert tb.grad.shape == (1, 4)
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: float((x * b).sum()), a.copy()), atol=TOL)
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: float((a * x).sum()), b.copy()), atol=TOL)

    def test_matmul_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 5))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: float((x @ b).sum()), a.copy()), atol=TOL)
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: float((a @ x).sum()), b.copy()), atol=TOL)

    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 5))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: float((x @ b).sum()), a.copy()), atol=TOL)
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: float((a @ x).sum()), b.copy()), atol=TOL)

    def test_matmul_broadcast_batch(self):
        # (1, n, m) @ (heads, m, k): the projection pattern used by attention.
        a = RNG.normal(size=(1, 3, 4))
        b = RNG.normal(size=(2, 4, 5))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta @ tb).sum().backward()
        assert ta.grad.shape == (1, 3, 4)
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: float((x @ b).sum()), a.copy()), atol=TOL)
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: float((a @ x).sum()), b.copy()), atol=TOL)


class TestShapes:
    def test_getitem(self):
        x = RNG.normal(size=(4, 5))
        t = Tensor(x.copy(), requires_grad=True)
        t[1:3, ::2].sum().backward()
        np.testing.assert_allclose(
            t.grad, numeric_grad(lambda a: float(a[1:3, ::2].sum()), x.copy()),
            atol=TOL)

    def test_sum_axis_keepdims(self):
        x = RNG.normal(size=(3, 4))
        t = Tensor(x.copy(), requires_grad=True)
        w = RNG.normal(size=(3, 1))
        (t.sum(axis=1, keepdims=True) * w).sum().backward()
        np.testing.assert_allclose(t.grad, np.broadcast_to(w, (3, 4)), atol=TOL)

    def test_mean(self):
        t = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((3, 4), 1 / 12), atol=1e-12)

    def test_reshape_transpose_roundtrip(self):
        x = RNG.normal(size=(2, 3, 4))
        t = Tensor(x.copy(), requires_grad=True)
        w = RNG.normal(size=(4, 3, 2))
        (t.transpose(2, 1, 0) * w).sum().backward()
        np.testing.assert_allclose(t.grad, w.transpose(2, 1, 0), atol=TOL)
        t2 = Tensor(x.copy(), requires_grad=True)
        w2 = RNG.normal(size=(6, 4))
        (t2.reshape(6, 4) * w2).sum().backward()
        np.testing.assert_allclose(t2.grad, w2.reshape(2, 3, 4), atol=TOL)

    def test_mT(self):
        x = RNG.normal(size=(2, 3, 4))
        t = Tensor(x.copy(), requires_grad=True)
        assert t.mT.shape == (2, 4, 3)
        w = RNG.normal(size=(2, 4, 3))
        (t.mT * w).sum().backward()
        np.testing.assert_allclose(t.grad, np.swapaxes(w, -1, -2), atol=TOL)

    def test_concat(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        w = RNG.normal(size=(2, 5))
        (Tensor.concat([ta, tb], axis=1) * w).sum().backward()
        np.testing.assert_allclose(ta.grad, w[:, :3], atol=TOL)
        np.testing.assert_allclose(tb.grad, w[:, 3:], atol=TOL)

    def test_stack(self):
        parts = [Tensor(RNG.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        w = RNG.normal(size=(4, 3))
        (Tensor.stack(parts, axis=0) * w).sum().backward()
        for i, p in enumerate(parts):
            np.testing.assert_allclose(p.grad, w[i], atol=TOL)


class TestGraph:
    def test_diamond_accumulation(self):
        # y = x*x + x reuses x twice: dy/dx = 2x + 1.
        x = np.array([1.5, -0.5, 2.0])
        t = Tensor(x.copy(), requires_grad=True)
        (t * t + t).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * x + 1, atol=1e-12)

    def test_deep_chain(self):
        t = Tensor(np.array([0.3]), requires_grad=True)
        y = t
        for _ in range(20):
            y = y.tanh()
        y.sum().backward()

        def f(arr):
            out = arr.copy()
            for _ in range(20):
                out = np.tanh(out)
            return float(out.sum())

        np.testing.assert_allclose(t.grad, numeric_grad(f, x=np.array([0.3])),
                                   atol=1e-6)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2).backward()

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            Tensor(np.array([1.0, np.inf]))

    def test_parents_get_unaliased_grads(self):
        # __add__ hands one upstream array to both parents.
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones(3))
        # x * x accumulates twice into x; x + x also leaves the output's grad alone.
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [3.0, -4.0], atol=1e-15)
        x.grad = None
        y = x + x
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_broadcast_first_write_keeps_shape(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        t._accumulate(np.arange(3.0))
        assert t.grad.shape == (2, 3)
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0, 2.0]] * 2)
        s = Tensor(np.zeros((2, 1)), requires_grad=True)
        s._accumulate(np.float64(0.5))
        np.testing.assert_array_equal(s.grad, [[0.5], [0.5]])

    def test_no_grad_restores_flags_when_the_block_raises(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            with no_grad([a, b]):
                assert not a.requires_grad
                out = a * 2.0
                raise RuntimeError("inside")
        assert a.requires_grad and not b.requires_grad
        assert not out.requires_grad and out._backward is None

    def test_constant_parents_skipped(self):
        const = Tensor(np.ones(3))
        t = Tensor(np.ones(3), requires_grad=True)
        out = (t * const).sum()
        out.backward()
        assert const.grad is None
        np.testing.assert_allclose(t.grad, np.ones(3))


def test_parameter_bounds_and_determinism():
    p1 = parameter(np.random.default_rng(7), (50, 40), fan_in=16)
    p2 = parameter(np.random.default_rng(7), (50, 40), fan_in=16)
    assert p1.requires_grad
    assert np.all(np.abs(p1.data) <= 0.25)
    np.testing.assert_array_equal(p1.data, p2.data)
