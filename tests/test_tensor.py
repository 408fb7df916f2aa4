"""Autodiff engine: forward oracles and gradient checks for every op."""

import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmae import tensor as T
from mwmae.errors import ContractError, DimensionError
from mwmae.tensor import Tensor, grad_check


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(T.matmul(eye, b).data, b.data)

    def test_zeros_annihilate(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(T.matmul(a, b).data, np.zeros((2, 4)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    ref[i, j] += a[i, k] * b[k, j]
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, np.matmul(a, b), rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 4, 2))))

    def test_backward_formulas(self):
        # dA = dC @ B^T and dB = A^T @ dC, checked against finite differences
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))  # fixed cotangent via weighted sum

        def f_a(t):
            return (T.matmul(t, Tensor(b)) * Tensor(w)).sum()

        def f_b(t):
            return (T.matmul(Tensor(a), t) * Tensor(w)).sum()

        assert grad_check(f_a, Tensor(a)) < 1e-8
        assert grad_check(f_b, Tensor(b)) < 1e-8
        at = Tensor(a, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        (T.matmul(at, bt) * Tensor(w)).sum().backward()
        np.testing.assert_allclose(at.grad, w @ b.T, rtol=1e-12)
        np.testing.assert_allclose(bt.grad, a.T @ w, rtol=1e-12)


class TestSoftmax:
    def test_uniform(self):
        y = T.softmax_lastdim(Tensor(np.zeros(4))).data
        np.testing.assert_allclose(y, 0.25, rtol=0, atol=1e-15)

    def test_saturation_is_stable(self):
        y = T.softmax_lastdim(Tensor(np.array([1000.0, 0.0]))).data
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)
        assert np.all(np.isfinite(y))

    def test_matches_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        ref = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(T.softmax_lastdim(Tensor(x)).data, ref, rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        a = T.softmax_lastdim(Tensor(x)).data
        b = T.softmax_lastdim(Tensor(x + 7.3)).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, values):
        y = T.softmax_lastdim(Tensor(np.array(values))).data
        assert abs(y.sum() - 1.0) < 1e-9


class TestGradCheck:
    def test_quadratic_exact(self):
        x = Tensor(np.array([1.0, 2.0]))
        err = grad_check(lambda t: (t * t).sum(), x, eps=1e-5)
        assert err < 1e-7
        xt = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (xt * xt).sum().backward()
        np.testing.assert_allclose(xt.grad, [2.0, 4.0], rtol=1e-12)

    def test_eps_bounds(self):
        x = Tensor(np.ones(2))
        with pytest.raises(ContractError):
            grad_check(lambda t: t.sum(), x, eps=1e-8)
        with pytest.raises(ContractError):
            grad_check(lambda t: t.sum(), x, eps=1e-2)

    def test_nonscalar_rejected(self):
        with pytest.raises(ContractError):
            grad_check(lambda t: t * t, Tensor(np.ones(3)))


def _rand(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestOpGradients:
    """Every differentiable op passes grad_check below 1e-4 on small tensors."""

    def test_add(self):
        b = _rand((3, 4), 10)
        assert grad_check(lambda t: (T.add(t, b) * b).sum(), _rand((3, 4), 11)) < 1e-4

    def test_add_bias_broadcast(self):
        b = _rand((4,), 12)
        x = _rand((3, 4), 13)
        assert grad_check(lambda t: (T.add(t, b) * x).sum(), x) < 1e-4
        assert grad_check(lambda t: (T.add(x, t) * x).sum(), b) < 1e-4

    def test_mul(self):
        b = _rand((2, 5), 14)
        assert grad_check(lambda t: T.mul(t, b).sum(), _rand((2, 5), 15)) < 1e-4

    def test_scale(self):
        assert grad_check(lambda t: T.scale(t, -2.5).sum(), _rand((4,), 16)) < 1e-4

    def test_reshape(self):
        w = _rand((6,), 17)
        assert grad_check(
            lambda t: (T.reshape(t, (6,)) * w).sum(), _rand((2, 3), 18)
        ) < 1e-4

    def test_transpose(self):
        w = _rand((4, 3), 19)
        assert grad_check(
            lambda t: (T.transpose(t) * w).sum(), _rand((3, 4), 20)
        ) < 1e-4

    def test_concat_lastdim(self):
        b = _rand((3, 2), 21)
        w = _rand((3, 5), 22)
        assert grad_check(
            lambda t: (T.concat_lastdim([t, b]) * w).sum(), _rand((3, 3), 23)
        ) < 1e-4

    def test_split_lastdim(self):
        def f(t):
            lo, hi = T.split_lastdim(t, [2, 3])
            return (lo * lo).sum() + (hi * hi * hi).sum()

        assert grad_check(f, _rand((2, 5), 24)) < 1e-4

    def test_take_rows(self):
        idx = np.array([0, 2, 2, 3])
        w = _rand((4, 3), 25)
        assert grad_check(
            lambda t: (T.take_rows(t, idx) * w).sum(), _rand((5, 3), 26)
        ) < 1e-4

    def test_layer_norm(self):
        g = _rand((6,), 27)
        b = _rand((6,), 28)
        x = _rand((4, 6), 29)
        w = _rand((4, 6), 30)
        assert grad_check(lambda t: (T.layer_norm(t, g, b) * w).sum(), x) < 1e-4
        assert grad_check(lambda t: (T.layer_norm(x, t, b) * w).sum(), g) < 1e-4
        assert grad_check(lambda t: (T.layer_norm(x, g, t) * w).sum(), b) < 1e-4

    def test_gelu(self):
        assert grad_check(lambda t: T.gelu(t).sum(), _rand((3, 3), 31)) < 1e-4

    def test_gelu_across_the_erf_branch_edges(self):
        """gelu feeds erf x/sqrt(2), whose formula changes at 1 and 8: every
        point sits within grad_check's step of x = +-sqrt(2) or +-8 sqrt(2),
        so its central difference takes one formula on each side."""
        offsets = np.array([-4e-6, -1e-6, 0.0, 1e-6, 4e-6])
        edges = np.sqrt(2.0) * np.array([1.0, -1.0, 8.0, -8.0])
        x = Tensor(edges[:, None] + offsets)
        assert grad_check(lambda t: T.gelu(t).sum(), x, eps=1e-5) < 1e-4

    def test_sigmoid(self):
        assert grad_check(lambda t: T.sigmoid(t).sum(), _rand((7,), 32)) < 1e-4

    def test_softplus(self):
        assert grad_check(lambda t: T.softplus(t).sum(), _rand((7,), 33)) < 1e-4

    def test_dropout(self):
        w = _rand((8, 8), 34)
        assert grad_check(
            lambda t: (T.dropout(t, 0.5, seed=5) * w).sum(), _rand((8, 8), 35)
        ) < 1e-4

    def test_softmax(self):
        w = _rand((3, 6), 36)
        assert grad_check(
            lambda t: (T.softmax_lastdim(t) * w).sum(), _rand((3, 6), 37)
        ) < 1e-4

    def test_log_softmax(self):
        w = _rand((3, 6), 38)
        assert grad_check(
            lambda t: (T.log_softmax_lastdim(t) * w).sum(), _rand((3, 6), 39)
        ) < 1e-4

    def test_mean_and_sum(self):
        assert grad_check(lambda t: t.mean(), _rand((3, 4), 40)) < 1e-4
        assert grad_check(lambda t: T.scale(t.sum(axis=0).sum(), 0.5), _rand((3, 4), 41)) < 1e-4
        assert grad_check(lambda t: t.mean(axis=1).sum(), _rand((3, 4), 42)) < 1e-4


_ERF_TABLE = Path(__file__).resolve().parent / "erf_table.txt"


def _table(fn: str) -> tuple[np.ndarray, np.ndarray]:
    """The (x, f(x)) rows of `erf_table.txt` whose function is `fn`."""
    rows = [line.split() for line in _ERF_TABLE.read_text().splitlines()
            if line and not line.startswith("#")]
    return tuple(np.array([float.fromhex(r[i]) for r in rows if r[0] == fn])
                 for i in (1, 2))


class TestErf:
    """`tensor.erf` and `gelu` against `erf_table.txt`: values of scipy
    1.17.1's `scipy.special.erf`, and of the `gelu` that called it, written
    before the package dropped scipy. The port takes exp from numpy, which
    may round 1 ulp away from the C library's exp that scipy calls, and only
    |x| > 1 runs an exp."""

    def test_matches_scipy(self):
        x, want = _table("erf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T.erf(x)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        exact = (np.abs(x) <= 1.0) | np.isinf(x)  # with +-0 and a subnormal
        assert np.array_equal(got[exact].view(np.int64), want[exact].view(np.int64))
        rest = ~exact & ~nan  # same sign, so the int64 views count ulps
        assert np.abs(got[rest].view(np.int64) - want[rest].view(np.int64)).max() <= 1

    def test_gelu_matches_the_scipy_gelu_and_warns_no_more(self):
        x, want = _table("gelu")
        minus_inf = x == -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T.gelu(Tensor(x[~minus_inf])).data
        # -inf * Phi(-inf) is -inf * 0: the scipy-backed gelu warned there too.
        with pytest.warns(RuntimeWarning, match="invalid value encountered in multiply"):
            assert np.isnan(T.gelu(Tensor(x[minus_inf])).data).all()
        x, want = x[~minus_inf], want[~minus_inf]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        exact = ~np.isfinite(x) | (np.abs(x * T._INV_SQRT2) <= 1.0)
        assert np.array_equal(got[exact & ~np.isnan(x)].view(np.int64),
                              want[exact & ~np.isnan(x)].view(np.int64))
        # 1 ulp in erf moves x * (1 + erf) / 2 by less than |x| 2^-51.
        np.testing.assert_array_less(np.abs(got[~exact] - want[~exact]),
                                     np.abs(x[~exact]) * 2.0**-51)

    def test_any_shape_and_layout(self):
        x = np.random.default_rng(70).normal(scale=2.0, size=(3, 4, 5))
        before = x.copy()
        want = T.erf(x.reshape(-1)).reshape(x.shape)
        np.testing.assert_array_equal(T.erf(x), want)
        np.testing.assert_array_equal(T.erf(x.transpose(2, 0, 1)), want.transpose(2, 0, 1))
        np.testing.assert_array_equal(x, before)
        assert T.erf(np.array(0.5)).shape == () and T.erf(np.zeros((0, 3))).shape == (0, 3)
        long = np.random.default_rng(71).normal(scale=2.0, size=2 * T._ERF_BLOCK + 99)
        pieces = [T.erf(p) for p in np.array_split(long, 7)]  # each within one block
        np.testing.assert_array_equal(T.erf(long), np.concatenate(pieces))


class TestBatchedOps:
    """Ops that take a leading batch dim, against the composed ops they replace."""

    def test_linear_grad_check(self):
        a, w, b = _rand((2, 3, 4), 70), _rand((4, 5), 71), _rand((5,), 72)
        cot = _rand((2, 3, 5), 73)
        assert grad_check(lambda t: (T.linear(t, w, b) * cot).sum(), a) < 1e-6
        assert grad_check(lambda t: (T.linear(a, t, b) * cot).sum(), w) < 1e-6
        assert grad_check(lambda t: (T.linear(a, w, t) * cot).sum(), b) < 1e-6

    @staticmethod
    def _grads(f, *xs):
        leaves = [Tensor(x.data, requires_grad=True) for x in xs]
        out = f(*leaves)
        (out * Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape))).sum().backward()
        return out.data, [t.grad for t in leaves]

    def test_linear_is_bitwise_matmul_plus_bias_in_2d(self):
        a, w, b = _rand((6, 4), 74), _rand((4, 3), 75), _rand((3,), 76)
        got, got_g = self._grads(T.linear, a, w, b)
        ref, ref_g = self._grads(lambda x, y, z: T.matmul(x, y) + z, a, w, b)
        np.testing.assert_array_equal(got, ref)
        for g, r in zip(got_g, ref_g):
            np.testing.assert_array_equal(g, r)

    def test_linear_batched_matches_reshaped_2d(self):
        a, w, b = _rand((3, 5, 4), 77), _rand((4, 2), 78), _rand((2,), 79)
        got, (ga, gw, gb) = self._grads(T.linear, a, w, b)
        ref, (ra, rw, rb) = self._grads(
            lambda x, y, z: T.reshape(T.matmul(T.reshape(x, (15, 4)), y) + z, (3, 5, 2)),
            a, w, b)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        for g, r in ((ga, ra), (gw, rw), (gb, rb)):
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)

    def test_matmul_weight_broadcast(self):
        a, w = _rand((2, 3, 4), 80), _rand((4, 5), 81)
        cot = _rand((2, 3, 5), 82)
        assert grad_check(lambda t: (T.matmul(t, w) * cot).sum(), a) < 1e-6
        assert grad_check(lambda t: (T.matmul(a, t) * cot).sum(), w) < 1e-6
        got, got_g = self._grads(T.matmul, a, w)
        ref, ref_g = self._grads(
            lambda x, y: T.reshape(T.matmul(T.reshape(x, (6, 4)), y), (2, 3, 5)), a, w)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        for g, r in zip(got_g, ref_g):
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)

    def test_take_rows_per_example_index(self):
        idx = np.array([[0, 2, 2], [4, 1, 0]])
        a = _rand((2, 5, 3), 83)
        cot = _rand((2, 3, 3), 84)
        assert grad_check(lambda t: (T.take_rows(t, idx) * cot).sum(), a) < 1e-6
        got, (g,) = self._grads(lambda x: T.take_rows(x, idx), a)
        ref, (r,) = self._grads(
            lambda x: T.reshape(T.take_rows(T.reshape(x, (10, 3)), (idx + [[0], [5]]).ravel()),
                                (2, 3, 3)), a)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(g, r)

    def test_batched_shape_errors(self):
        with pytest.raises(DimensionError):
            T.take_rows(Tensor(np.zeros((3, 5, 2))), np.zeros((2, 4), dtype=int))
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(4)))


class TestShapes:
    def test_reshape_roundtrip_identity(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(3, 8))
        back = T.reshape(T.reshape(Tensor(x), (4, 6)), (3, 8)).data
        np.testing.assert_array_equal(back, x)

    def test_elementwise_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(DimensionError):
            T.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_split_sizes_must_cover(self):
        with pytest.raises(DimensionError):
            T.split_lastdim(Tensor(np.zeros((2, 5))), [2, 2])


class TestGraph:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = (x * x + x).sum()  # dy/dx = 2x + 1 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_accumulates_across_calls(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * x).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_backward_consumes_the_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        h = x * x
        y = h.sum()
        y.backward()
        assert y._parents == () and h._parents == ()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])
        # A second pass through the consumed h would lose x's gradient.
        with pytest.raises(ContractError, match="already backpropagated"):
            (h * h).sum().backward()

    def test_no_grad_skips_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = (x * x).sum()
        assert y._backward is None

    def test_no_grad_flag_is_per_thread(self):
        x = Tensor(np.ones(3), requires_grad=True)
        step = threading.Barrier(2, timeout=10)
        seen = {}

        def records() -> bool:
            return (x * x)._backward is not None

        # a enters first and leaves first, while b is still inside: a global
        # flag would end up restored to b's saved False.
        def a():
            with T.no_grad():
                step.wait()  # 1: a is inside
                step.wait()  # 2: b is inside too
                seen["a inside"] = records()
            seen["a after"] = records()
            step.wait()  # 3: a has left

        def b():
            step.wait()
            with T.no_grad():
                step.wait()
                step.wait()
                seen["b inside, a gone"] = records()
            seen["b after"] = records()

        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert seen == {"a inside": False, "a after": True,
                        "b inside, a gone": False, "b after": True}
        assert records()

    def test_no_grad_under_thread_switches(self):
        x = Tensor(np.ones(2), requires_grad=True)
        wrong = []

        def work():
            for _ in range(300):
                with T.no_grad():
                    time.sleep(0)  # let another thread enter or leave
                    if (x * x)._backward is not None:
                        wrong.append("recorded inside no_grad")
                if (x * x)._backward is None:
                    wrong.append("not recording outside no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert (x * x)._backward is not None

    def test_dropout_deterministic_per_seed(self):
        x = Tensor(np.ones((16, 16)))
        a = T.dropout(x, 0.3, seed=9).data
        b = T.dropout(x, 0.3, seed=9).data
        c = T.dropout(x, 0.3, seed=10).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_finite_after_ops_on_finite_inputs(self):
        rng = np.random.default_rng(60)
        x = Tensor(rng.normal(size=(4, 4)) * 500)
        for y in (T.softmax_lastdim(x), T.gelu(x), T.sigmoid(x), T.softplus(x)):
            assert np.all(np.isfinite(y.data))
