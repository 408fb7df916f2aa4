"""Multi-window multi-head attention.

Each head projects the input to d_k dims, partitions the token axis into
non-overlapping windows of a head-specific size, and runs scaled dot-product
attention independently inside each window. Window sizes come from the
divisors of the token count: every divisor strictly between 1 and n, in
ascending order, plus two full-length (global) heads. Head outputs are
concatenated and mixed by a shared output projection, which is what lets
information cross window boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, WindowSizeError
from .tensor import Tensor, _node, glorot


@dataclass(frozen=True)
class WindowSchedule:
    """Ordered per-head window sizes for one attention module."""

    n_p: int
    windows: tuple[int, ...]

    def __post_init__(self):
        for w in self.windows:
            if self.n_p % w != 0:
                raise ContractError(f"window {w} does not divide n_p={self.n_p}")

    @property
    def n_heads(self) -> int:
        return len(self.windows)


def window_schedule(n_p: int) -> WindowSchedule:
    """Ascending proper divisors of n_p (excluding 1 and n_p), then two global heads."""
    if n_p < 2:
        raise ContractError(f"n_p must be >= 2, got {n_p}")
    locals_ = [d for d in range(2, n_p) if n_p % d == 0]
    return WindowSchedule(n_p, tuple(locals_ + [n_p, n_p]))


def global_schedule(n_p: int, n_heads: int) -> WindowSchedule:
    """All-global schedule, i.e. standard multi-head attention."""
    return WindowSchedule(n_p, (n_p,) * n_heads)


@dataclass
class AttentionParams:
    """Per-head Q/K/V projections (d_m x d_k each) and a shared output projection."""

    w_q: list[Tensor]
    w_k: list[Tensor]
    w_v: list[Tensor]
    w_o: Tensor

    @property
    def n_heads(self) -> int:
        return len(self.w_q)

    @property
    def d_k(self) -> int:
        return self.w_q[0].shape[1]

    @staticmethod
    def init(d_m: int, n_heads: int, rng: np.random.Generator) -> "AttentionParams":
        """Standalone projections, drawn from `rng` as `draw` does."""
        if d_m % n_heads != 0:
            raise ContractError(f"d_m={d_m} not divisible by n_heads={n_heads}")

        def leaf(*shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        heads = ([leaf(d_m, d_m // n_heads) for _ in range(n_heads)] for _ in "qkv")
        params = AttentionParams(*heads, w_o=leaf(d_m, d_m))
        params.draw(rng)
        return params

    def draw(self, rng: np.random.Generator) -> None:
        """Glorot-fill every projection in place: all Q, then all K, then
        all V, then the output projection, each head in order."""
        for w in (*self.w_q, *self.w_k, *self.w_v, self.w_o):
            glorot(rng, w)


@dataclass
class HeadTap:
    """Optional sink for per-head attention probabilities and head outputs.

    With `keep_probs` False only `head_out` is filled, so no head's
    probabilities outlive its attention call.
    """

    probs: list[np.ndarray] = field(default_factory=list)
    head_out: list[np.ndarray] = field(default_factory=list)
    keep_probs: bool = True


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q Kᵀ / sqrt(d_k)) V over the last two axes, from composed ops.

    The reference that `win_attention` is checked against.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(
            f"attention: Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}"
        )
    d_k = q.shape[-1]
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(d_k))
    return T.matmul(T.softmax_lastdim(scores), v)


def _window_probs(
    qs: np.ndarray, kw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-stochastic attention per window, softmax(Qs Kᵀ), max-subtracted.

    `qs` is Q already scaled by 1/sqrt(d_k). Returns P with each row's max
    `m` and reciprocal sum `r`, from which exp(Qs Kᵀ − m) * r rebuilds P
    bit for bit.
    """
    p = np.matmul(qs, np.swapaxes(kw, -1, -2))
    m = p.max(axis=-1, keepdims=True)
    p -= m
    np.exp(p, out=p)
    r = 1.0 / p.sum(axis=-1, keepdims=True)
    p *= r
    return p, m, r


def win_attention(
    q: Tensor, k: Tensor, v: Tensor, win: int, tap: HeadTap | None = None
) -> Tensor:
    """Partition the token axis into windows of size `win`, attend within each.

    Inputs are (..., n, d_k); token order is preserved in the output. One
    graph node that keeps no scores or probabilities, only each query row's
    max and reciprocal sum: backward rebuilds P as exp(Qs Kᵀ − m) * r, with
    no reduction or division, and uses the softmax identity
    dS = P∘(dP − rowsum(dP∘P)). A tap that keeps probabilities receives P
    as (..., n/win, win, win).
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(
            f"win_attention: Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}"
        )
    *lead, n, d_k = q.shape
    if n % win != 0:
        raise WindowSizeError(f"window {win} does not divide token count {n}")
    windows = (*lead, n // win, win, d_k)
    kw, vw = (t.data.reshape(windows) for t in (k, v))
    scale = 1.0 / np.sqrt(d_k)
    qs = q.data.reshape(windows) * scale
    probs, m, r = _window_probs(qs, kw)
    if tap is not None and tap.keep_probs:
        tap.probs.append(probs)
    data = np.matmul(probs, vw).reshape(q.shape)

    def backward(g):
        p = np.matmul(qs, np.swapaxes(kw, -1, -2))
        p -= m
        np.exp(p, out=p)
        p *= r
        gw = g.reshape(windows)
        dv = np.matmul(np.swapaxes(p, -1, -2), gw)
        ds = np.matmul(gw, np.swapaxes(vw, -1, -2))
        # rowsum(dP∘P), not the equal rowsum(dO∘O): P <= 1 keeps it finite
        # where the product of two large dO and O overflows.
        ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
        ds *= p
        dq = np.matmul(ds, kw)
        dq *= scale
        dk = np.matmul(np.swapaxes(ds, -1, -2), qs)
        return dq.reshape(q.shape), dk.reshape(q.shape), dv.reshape(q.shape)

    return _node(data, (q, k, v), backward)


def mw_mha(
    x: Tensor,
    params: AttentionParams,
    schedule: WindowSchedule,
    tap: HeadTap | None = None,
) -> Tensor:
    """Multi-window attention: per-head windowed attention, concat, project.

    `x` is (n, d_m) or (B, n, d_m). With an all-global schedule this reduces
    exactly to standard MHA.
    """
    n, d_m = x.shape[-2:]
    if len(schedule.windows) != params.n_heads:
        raise ContractError(
            f"schedule has {len(schedule.windows)} windows, params have "
            f"{params.n_heads} heads"
        )
    if d_m != params.n_heads * params.d_k:
        raise DimensionError(
            f"d_m={d_m} != n_heads*d_k={params.n_heads * params.d_k}"
        )
    heads = []
    for i, win in enumerate(schedule.windows):
        if n % win != 0:
            raise WindowSizeError(
                f"head {i}: window {win} does not divide token count {n}"
            )
        q = T.matmul(x, params.w_q[i])
        k = T.matmul(x, params.w_k[i])
        v = T.matmul(x, params.w_v[i])
        head = win_attention(q, k, v, win, tap=tap)
        if tap is not None:
            tap.head_out.append(head.data)
        heads.append(head)
    return T.matmul(T.concat_lastdim(heads), params.w_o)


def mha(x: Tensor, params: AttentionParams, tap: HeadTap | None = None) -> Tensor:
    """Standard multi-head attention: mw_mha with every window global."""
    n = x.shape[-2]
    return mw_mha(x, params, global_schedule(n, params.n_heads), tap=tap)

