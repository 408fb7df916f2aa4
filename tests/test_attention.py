"""Windowed attention against brute-force slice loops and closed forms."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmae import tensor as T
from mwmae.attention import (
    AttentionParams,
    HeadTap,
    WindowSchedule,
    attention,
    global_schedule,
    mha,
    mw_mha,
    win_attention,
    window_schedule,
)
from mwmae.errors import ContractError, DimensionError, WindowSizeError
from mwmae.tensor import Tensor, _node, grad_check

# The package re-exports a function named `attention`, so the module comes
# from importlib.
attention_module = importlib.import_module("mwmae.attention")


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention_ref(q, k, v):
    return _softmax(q @ k.T / np.sqrt(q.shape[-1])) @ v


class TestWindowSchedule:
    def test_reference_list_for_250(self):
        assert window_schedule(250).windows == (2, 5, 10, 25, 50, 125, 250, 250)

    def test_125(self):
        # divisors of 125 strictly between 1 and 125 are {5, 25}
        s = window_schedule(125)
        assert s.windows == (5, 25, 125, 125)
        assert s.n_heads == 4

    def test_640(self):
        s = window_schedule(640)
        divisors = [d for d in range(2, 640) if 640 % d == 0]
        assert s.windows == tuple(divisors + [640, 640])
        assert s.n_heads == 16

    def test_head_counts_match_reference(self):
        for n_p, h in {125: 4, 250: 8, 500: 12, 640: 16}.items():
            assert window_schedule(n_p).n_heads == h

    def test_prime_gives_two_global_heads(self):
        assert window_schedule(13).windows == (13, 13)

    def test_too_small_rejected(self):
        with pytest.raises(ContractError):
            window_schedule(1)

    @given(st.integers(2, 400))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, n_p):
        s = window_schedule(n_p)
        assert all(n_p % w == 0 for w in s.windows)
        assert sum(1 for w in s.windows if w == n_p) == 2
        locals_ = [w for w in s.windows if w != n_p]
        assert locals_ == sorted(set(locals_))
        assert locals_ == [d for d in range(2, n_p) if n_p % d == 0]

    def test_schedule_validates_windows(self):
        with pytest.raises(ContractError):
            WindowSchedule(10, (3, 10))


class TestAttention:
    def test_zero_query_gives_column_mean(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(6, 3))
        out = attention(Tensor(np.zeros((6, 3))), Tensor(np.zeros((6, 3))), Tensor(v))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (6, 1)), rtol=1e-12)

    def test_single_token_passthrough(self):
        rng = np.random.default_rng(1)
        q, k, v = (Tensor(rng.normal(size=(1, 4))) for _ in range(3))
        np.testing.assert_allclose(attention(q, k, v).data, v.data, rtol=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=(5, 4)) for _ in range(3))
        got = attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(got, _attention_ref(q, k, v), atol=1e-12)


class TestWinAttention:
    def test_full_window_equals_attention(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(8, 4)) for _ in range(3))
        a = win_attention(Tensor(q), Tensor(k), Tensor(v), 8).data
        b = attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_query_window_means(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(4, 3))
        out = win_attention(
            Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3))), Tensor(v), 2
        ).data
        np.testing.assert_allclose(out[0], v[0:2].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(out[1], v[0:2].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(out[2], v[2:4].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(out[3], v[2:4].mean(axis=0), rtol=1e-12)

    def test_matches_slice_loop(self):
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(12, 4)) for _ in range(3))
        got = win_attention(Tensor(q), Tensor(k), Tensor(v), 3).data
        for b in range(4):
            sl = slice(3 * b, 3 * (b + 1))
            np.testing.assert_allclose(got[sl], _attention_ref(q[sl], k[sl], v[sl]), atol=1e-12)

    def test_nondividing_window_rejected(self):
        z = Tensor(np.zeros((10, 2)))
        with pytest.raises(WindowSizeError):
            win_attention(z, z, z, 3)

    def test_locality(self):
        # perturbing a row outside the window leaves in-window outputs unchanged
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(8, 3)) for _ in range(3))
        base = win_attention(Tensor(q), Tensor(k), Tensor(v), 4).data
        k2, v2 = k.copy(), v.copy()
        k2[6] += 10.0
        v2[6] -= 5.0
        pert = win_attention(Tensor(q), Tensor(k2), Tensor(v2), 4).data
        np.testing.assert_array_equal(pert[:4], base[:4])
        assert not np.allclose(pert[4:], base[4:])

    def test_within_window_kv_permutation_invariance(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(6, 3)) for _ in range(3))
        base = win_attention(Tensor(q), Tensor(k), Tensor(v), 3).data
        perm = np.array([2, 0, 1, 3, 4, 5])  # permute inside the first window
        out = win_attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm]), 3).data
        np.testing.assert_allclose(out, base, atol=1e-12)

    def test_within_window_q_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=(6, 3)) for _ in range(3))
        base = win_attention(Tensor(q), Tensor(k), Tensor(v), 3).data
        perm = np.array([1, 2, 0, 3, 4, 5])
        out = win_attention(Tensor(q[perm]), Tensor(k), Tensor(v), 3).data
        np.testing.assert_allclose(out, base[perm], atol=1e-12)


def _composed_win_attention(q, k, v, win):
    """The composed ops `win_attention` replaces: reshape, attention, reshape."""
    *lead, n, d_k = q.shape
    windows = (*lead, n // win, win, d_k)
    out = attention(T.reshape(q, windows), T.reshape(k, windows), T.reshape(v, windows))
    return T.reshape(out, q.shape)


def _win_attention_keeping_probs(q, k, v, win):
    """win_attention's float ops, but the backward reuses the forward's P."""
    *lead, n, d_k = q.shape
    windows = (*lead, n // win, win, d_k)
    kw, vw = k.data.reshape(windows), v.data.reshape(windows)
    scale = 1.0 / np.sqrt(d_k)
    qs = q.data.reshape(windows) * scale
    s = qs @ np.swapaxes(kw, -1, -2)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p *= 1.0 / p.sum(axis=-1, keepdims=True)

    def backward(g):
        gw = g.reshape(windows)
        ds = gw @ np.swapaxes(vw, -1, -2)
        ds = (ds - np.einsum("...ij,...ij->...i", ds, p)[..., None]) * p
        dq = (ds @ kw) * scale
        dk = np.swapaxes(ds, -1, -2) @ qs
        dv = np.swapaxes(p, -1, -2) @ gw
        return dq.reshape(q.shape), dk.reshape(q.shape), dv.reshape(q.shape)

    return _node((p @ vw).reshape(q.shape), (q, k, v), backward)


class TestFusedWinAttention:
    """The one-node win_attention, with leading batch dims, at every window
    size of a schedule (two global heads included)."""

    SHAPE = (2, 12, 3)

    @staticmethod
    def _inputs(seed):
        rng = np.random.default_rng(seed)
        return {n: rng.normal(size=TestFusedWinAttention.SHAPE) for n in "qkvc"}

    @pytest.mark.parametrize("win", window_schedule(12).windows)
    def test_grad_check_with_batch_dims(self, win):
        base = self._inputs(win)
        cot = Tensor(base["c"])
        for name in "qkv":
            def f(t, name=name):
                args = {k: Tensor(base[k]) for k in "qkv"}
                args[name] = t
                return (win_attention(args["q"], args["k"], args["v"], win) * cot).sum()

            assert grad_check(f, Tensor(base[name])) < 1e-6

    @pytest.mark.parametrize("win", window_schedule(12).windows)
    def test_matches_composed_ops(self, win):
        base = self._inputs(100 + win)
        results = []
        for fn in (win_attention, _composed_win_attention):
            leaves = {n: Tensor(base[n], requires_grad=True) for n in "qkv"}
            out = fn(leaves["q"], leaves["k"], leaves["v"], win)
            (out * Tensor(base["c"])).sum().backward()
            results.append([out.data] + [leaves[n].grad for n in "qkv"])
        for got, ref in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_tap_receives_window_probs(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(12, 3)) for _ in range(3))
        tap = HeadTap()
        win_attention(Tensor(q), Tensor(k), Tensor(v), 4, tap=tap)
        (probs,) = tap.probs
        assert probs.shape == (3, 4, 4)
        for b in range(3):
            sl = slice(4 * b, 4 * (b + 1))
            np.testing.assert_allclose(
                probs[b], _softmax(q[sl] @ k[sl].T / np.sqrt(3)), rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            win_attention(Tensor(np.zeros((2, 4, 2))), Tensor(np.zeros((4, 2))),
                          Tensor(np.zeros((4, 2))), 2)

    @pytest.mark.parametrize("win", window_schedule(12).windows)
    def test_grads_bit_equal_to_kept_probs(self, win):
        # Rebuilding P from each row's max and reciprocal sum repeats the
        # forward's op sequence, so no gradient may differ by a single bit.
        base = self._inputs(200 + win)
        results = []
        for fn in (win_attention, _win_attention_keeping_probs):
            leaves = {n: Tensor(base[n], requires_grad=True) for n in "qkv"}
            out = fn(leaves["q"], leaves["k"], leaves["v"], win)
            (out * Tensor(base["c"])).sum().backward()
            results.append([out.data] + [leaves[n].grad for n in "qkv"])
        for got, ref in zip(*results):
            np.testing.assert_array_equal(got, ref)


class TestMwMha:
    def test_all_global_equals_mha_bitwise(self):
        rng = np.random.default_rng(9)
        params = AttentionParams.init(12, 3, rng)
        x = Tensor(rng.normal(size=(10, 12)))
        a = mw_mha(x, params, global_schedule(10, 3)).data
        b = mha(x, params).data
        np.testing.assert_array_equal(a, b)

    def test_zero_query_concat_of_window_means(self):
        rng = np.random.default_rng(10)
        params = AttentionParams.init(8, 2, rng)
        for i in range(2):
            params.w_q[i] = Tensor(np.zeros((8, 4)))
        x = rng.normal(size=(4, 8))
        sched = WindowSchedule(4, (2, 4))
        got = mw_mha(Tensor(x), params, sched).data
        heads = []
        for i, win in enumerate((2, 4)):
            v = x @ params.w_v[i].data
            head = np.zeros_like(v)
            for b in range(4 // win):
                sl = slice(b * win, (b + 1) * win)
                head[sl] = v[sl].mean(axis=0)
            heads.append(head)
        ref = np.concatenate(heads, axis=1) @ params.w_o.data
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_matches_per_head_brute_force(self):
        rng = np.random.default_rng(11)
        sched = window_schedule(10)  # (2, 5, 10, 10)
        params = AttentionParams.init(8, sched.n_heads, rng)
        x = rng.normal(size=(10, 8))
        got = mw_mha(Tensor(x), params, sched).data
        heads = []
        for i, win in enumerate(sched.windows):
            q = x @ params.w_q[i].data
            k = x @ params.w_k[i].data
            v = x @ params.w_v[i].data
            head = np.zeros_like(q)
            for b in range(10 // win):
                sl = slice(b * win, (b + 1) * win)
                head[sl] = _attention_ref(q[sl], k[sl], v[sl])
            heads.append(head)
        ref = np.concatenate(heads, axis=1) @ params.w_o.data
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_bad_window_names_head(self):
        rng = np.random.default_rng(12)
        params = AttentionParams.init(4, 2, rng)
        x = Tensor(rng.normal(size=(10, 4)))
        with pytest.raises(WindowSizeError, match="head 1"):
            mw_mha(x, params, WindowSchedule(30, (10, 3)))

    def test_schedule_params_mismatch(self):
        rng = np.random.default_rng(13)
        params = AttentionParams.init(4, 2, rng)
        x = Tensor(rng.normal(size=(6, 4)))
        with pytest.raises(ContractError):
            mw_mha(x, params, window_schedule(6))  # 4 windows vs 2 heads

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_one_module_level_win_attention_call_per_head(self, monkeypatch, batch):
        # The benchmark times attention per window by wrapping the module's
        # win_attention and reading the window from args[3] and the token
        # count from args[0].shape[0] (2-D input).
        calls = []
        orig = attention_module.win_attention

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(attention_module, "win_attention", counting)
        rng = np.random.default_rng(16)
        sched = window_schedule(10)  # (2, 5, 10, 10)
        params = AttentionParams.init(8, sched.n_heads, rng)
        mw_mha(Tensor(rng.normal(size=(*batch, 10, 8))), params, sched)
        assert [args[3] for args in calls] == list(sched.windows)
        if not batch:
            assert all(args[0].shape[0] == 10 for args in calls)


class TestGradients:
    def test_mw_mha_grad_wrt_input_and_projections(self):
        rng = np.random.default_rng(14)
        sched = window_schedule(6)  # (2, 3, 6, 6)
        params = AttentionParams.init(8, sched.n_heads, rng)
        x0 = rng.normal(size=(6, 8))

        def f_x(t):
            return mw_mha(t, params, sched).sum()

        assert grad_check(f_x, Tensor(x0)) < 1e-4

        for which, plist in (("q", params.w_q), ("k", params.w_k), ("v", params.w_v)):
            orig = plist[1]

            def f_w(t):
                plist[1] = t
                try:
                    return mw_mha(Tensor(x0), params, sched).sum()
                finally:
                    plist[1] = orig

            assert grad_check(f_w, orig) < 1e-4, which

        orig_o = params.w_o

        def f_o(t):
            params.w_o = t
            try:
                return mw_mha(Tensor(x0), params, sched).sum()
            finally:
                params.w_o = orig_o

        assert grad_check(f_o, orig_o) < 1e-4

    def test_win_attention_grad_wrt_qkv(self):
        rng = np.random.default_rng(15)
        base = {n: rng.normal(size=(6, 3)) for n in "qkv"}
        for name in "qkv":
            def f(t, name=name):
                args = {k: Tensor(base[k]) for k in "qkv"}
                args[name] = t
                return win_attention(args["q"], args["k"], args["v"], 3).sum()

            assert grad_check(f, Tensor(base[name])) < 1e-4
