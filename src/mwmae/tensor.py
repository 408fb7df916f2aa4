"""Dense float64 arrays with reverse-mode automatic differentiation.

Tensors wrap numpy arrays and record enough of the computation graph to
backpropagate from a scalar loss. Everything runs in float64: the gradient
checks in this package need the headroom, and nothing here is large enough
for precision/speed tradeoffs to matter.

Broadcasting is deliberately restricted: elementwise ops accept equal shapes
or a right-hand operand whose shape is a trailing suffix of the left's (the
bias-add pattern). matmul and linear require leading batch dims to agree
exactly, except that a 2-D right-hand operand (a weight) applies to every
leading index of the left, so the same code runs on (n, d) and (B, n, d).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class _GradMode(threading.local):
    enabled = True  # every thread starts out recording


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Skip graph recording inside the block (pure inference).

    The flag is per thread, so threads entering and leaving their own
    blocks in any order never change each other's recording.
    """
    saved = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = saved


class Tensor:
    """A float64 array plus an optional gradient and graph record.

    Leaves are created from data; interior nodes are produced by the ops in
    this module, each of which attaches a backward closure. `backward()` may
    only be called on scalars (size-1 tensors).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- introspection --

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff --

    def zero_grad(self) -> None:
        """Zero the gradient in place, so a `.grad` bound to a view of a
        flat buffer (`OptimizerState.bind_grads`) stays bound."""
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        The graph is consumed: each interior node drops its parents and its
        backward closure once its gradient has been passed on, so activations
        are freed during the pass. Backpropagating through a consumed node
        again raises ContractError instead of silently dropping gradients.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar, got shape {self.shape}"
            )
        order = _topo_order(self)
        flow: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while order:
            node = order.pop()
            g = flow.pop(id(node), None)
            if g is not None:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad += g
                if node._backward is not None:
                    for parent, pg in zip(node._parents, node._backward(g)):
                        acc = flow.get(id(parent))
                        # Never in place: closures may hand the same array to
                        # several parents, or pass `g` itself through.
                        flow[id(parent)] = pg if acc is None else acc + pg
            if node._backward is not None:
                node._parents = ()
                node._backward = _consumed

    # -- operator sugar (delegates to the module-level ops) --

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(other, -1.0))

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def sum(self, axis: int | None = None) -> "Tensor":
        return reduce_sum(self, axis)

    def mean(self, axis: int | None = None) -> "Tensor":
        return reduce_mean(self, axis)


def glorot(rng: np.random.Generator, w: Tensor) -> None:
    """Fill the (n_in, n_out) weight `w` in place, Glorot-uniform: one draw from `rng`."""
    n_in, n_out = w.shape
    bound = np.sqrt(6.0 / (n_in + n_out))
    w.data[...] = rng.uniform(-bound, bound, (n_in, n_out))


class Layout:
    """Named shapes packed in order into one flat float64 buffer: `spans`
    maps each name to its (start, stop) slice and `size` is the length."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.shapes, self.spans, self.size = dict(shapes), {}, 0
        for name, shape in self.shapes.items():
            start, self.size = self.size, self.size + int(np.prod(shape))
            self.spans[name] = (start, self.size)

    def leaves(self, flat: np.ndarray) -> dict[str, Tensor]:
        """A fresh trainable leaf per name, each a view of its span of `flat`."""
        if flat.dtype != np.float64 or flat.shape != (self.size,):  # else Tensor() copies
            raise ContractError(f"a layout of {self.size} float64 values got a {flat.dtype} "
                                f"buffer of shape {flat.shape}")
        return {name: Tensor(flat[start:stop].reshape(self.shapes[name]), requires_grad=True)
                for name, (start, stop) in self.spans.items()}


def _consumed(g: np.ndarray) -> tuple:
    raise ContractError("backward() reached a node of a graph already backpropagated")


def _topo_order(root: Tensor) -> list[Tensor]:
    """Topological order of the graph reachable from `root`, root last."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _node(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], tuple],
) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    if _grad_mode.enabled and any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _suffix_ok(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> bool:
    return len(b_shape) <= len(a_shape) and a_shape[len(a_shape) - len(b_shape):] == b_shape


def _reduce_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original suffix shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    return g.sum(axis=tuple(range(lead)))


# -- elementwise --


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. `b` may be a trailing-suffix shape of `a` (bias add)."""
    if a.shape != b.shape and not _suffix_ok(a.shape, b.shape):
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not align")
    data = a.data + b.data

    def backward(g):
        return g, _reduce_to_shape(g, b.shape)

    return _node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same suffix rule as `add`."""
    if a.shape != b.shape and not _suffix_ok(a.shape, b.shape):
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not align")
    data = a.data * b.data

    def backward(g):
        return g * b.data, _reduce_to_shape(g * a.data, b.shape)

    return _node(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a Python scalar."""
    s = float(s)
    data = a.data * s

    def backward(g):
        return (g * s,)

    return _node(data, (a,), backward)


# -- shape --


def reshape(a: Tensor, shape: Iterable[int]) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _node(data, (a,), backward)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes; default swaps the last two."""
    if axes is None:
        if a.data.ndim < 2:
            raise DimensionError("transpose: need at least 2 dims")
        axes = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
    inv = np.argsort(axes)
    data = a.data.transpose(axes)

    def backward(g):
        return (g.transpose(inv),)

    return _node(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    if not parts:
        raise ContractError("concat: need at least one tensor")
    data = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.data.shape[axis] for t in parts]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, range(bounds[i], bounds[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _node(data, parts, backward)


def concat_lastdim(tensors: Sequence[Tensor]) -> Tensor:
    return concat(tensors, axis=-1)


def split_lastdim(a: Tensor, sizes: Sequence[int]) -> list[Tensor]:
    """Split along the last axis into chunks of the given widths."""
    if sum(sizes) != a.shape[-1]:
        raise DimensionError(
            f"split: sizes {list(sizes)} do not sum to last dim {a.shape[-1]}"
        )
    outs = []
    start = 0
    for width in sizes:
        sl = (Ellipsis, slice(start, start + width))
        lo = start

        def backward(g, lo=lo, width=width):
            full = np.zeros(a.shape)
            full[..., lo:lo + width] = g
            return (full,)

        outs.append(_node(a.data[sl], (a,), backward))
        start += width
    return outs


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows; backward scatter-adds.

    A 1-D `idx` gathers along axis 0. A 2-D `idx` of shape (B, k) gathers
    per example from a (B, n, ...) operand: row b of the result is
    a[b, idx[b]].
    """
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim == 2:
        if a.data.ndim < 2 or a.shape[0] != idx.shape[0]:
            raise DimensionError(
                f"take_rows: index {idx.shape} needs a ({idx.shape[0]}, n, ...) "
                f"operand, got {a.shape}"
            )
        idx = (np.arange(idx.shape[0])[:, None], idx)
    data = a.data[idx]

    def backward(g):
        full = np.zeros(a.shape)
        np.add.at(full, idx, g)
        return (full,)

    return _node(data, (a,), backward)


# -- matmul --


def _check_matmul(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"{op}: operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"{op}: inner dims {a.shape[-1]} and {b.shape[-2]} disagree"
        )
    if b.data.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(
            f"{op}: leading dims {a.shape[:-2]} and {b.shape[:-2]} disagree"
        )


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a 2-D weight in a @ w, summed over every leading index."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading dims must agree exactly, or `b` is 2-D."""
    _check_matmul("matmul", a, b)
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.data.ndim == 2:
            return ga, _weight_grad(a.data, g)
        return ga, np.matmul(np.swapaxes(a.data, -1, -2), g)

    return _node(data, (a, b), backward)


def linear(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """a @ w + b for a (..., k) input, a (k, m) weight and an (m,) bias.

    One node with the same float ops as `matmul` followed by `add`.
    """
    if w.data.ndim != 2:
        raise DimensionError(f"linear: weight must be 2-D, got {w.shape}")
    _check_matmul("linear", a, w)
    if b.shape != w.shape[1:]:
        raise DimensionError(f"linear: bias {b.shape} does not match weight {w.shape}")
    data = np.matmul(a.data, w.data) + b.data

    def backward(g):
        ga = np.matmul(g, w.data.T)
        return ga, _weight_grad(a.data, g), _reduce_to_shape(g, b.shape)

    return _node(data, (a, w, b), backward)


# -- reductions --


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    data = np.asarray(a.data.sum(axis=axis))

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _node(data, (a,), backward)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return scale(reduce_sum(a, axis), 1.0 / count)


# -- nonlinearities --


def softmax_lastdim(a: Tensor) -> Tensor:
    """Stable softmax over the last axis (max-subtracted)."""
    if a.shape[-1] < 1:
        raise ContractError("softmax: last dim must be >= 1")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _node(y, (a,), backward)


def log_softmax_lastdim(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse
    soft = np.exp(data)

    def backward(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _node(data, (a,), backward)


# Cephes' coefficients (ndtr.c), highest power first. A leading 1.0 is
# cephes' p1evl, whose polynomials leave it out.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(x: np.ndarray, coefs: tuple[float, ...],
            out: np.ndarray | None = None) -> np.ndarray:
    """The polynomial at x by Horner's rule, rounded step by step as cephes'
    polevl and p1evl round it."""
    if coefs[0] == 1.0:
        y = np.add(x, coefs[1], out=out)
    else:
        y = np.multiply(x, coefs[0], out=out)
        y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


# Elements per pass of `erf`, so that its 20-odd in-place passes stay in a
# core's L2 cache. At (250, 1536), on a Xeon with 2 MiB of L2 per core, one
# pass took 6.0 ms and blocks of 2^16 4.1 ms. Blocks of 2^15 were as fast
# on one thread but slower on two, where each call hands over the GIL.
_ERF_BLOCK = 1 << 16


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of a float64 array: a port of cephes' `erf`, the
    algorithm behind `scipy.special.erf`.

    |x| <= 1 takes the rational x T(x^2) / U(x^2). Above that, erf is
    1 - erfc(|x|) with the sign of x, where erfc(a) = exp(-a^2) P(a) / Q(a).
    Cephes switches to a second rational at a >= 8 and to erfc = 0 where a^2
    exceeds MAXLOG; from 8 up erfc is below 1.2e-29 on every formula, so
    1 - erfc rounds to exactly 1, and a is clipped to 8 instead. exp comes
    from numpy, which can round 1 ulp away from the C library's: the result
    is bit-equal to scipy's for |x| <= 1 and within 1 ulp elsewhere.
    """
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _ERF_BLOCK):
        _erf_into(flat[lo:lo + _ERF_BLOCK], out[lo:lo + _ERF_BLOCK])
    return out.reshape(x.shape)


def _erf_into(x: np.ndarray, out: np.ndarray) -> None:
    big = (np.abs(x) > 1.0).nonzero()[0]  # nan stays in the rational
    # The rational runs on every element, the big ones zeroed and
    # overwritten below: gathering the small ones would cost about as much
    # as the rational itself.
    s = x
    if big.size:
        s = x.copy()
        s[big] = 0.0
    z = s * s
    _horner(z, _ERF_T, out)
    out *= s
    out /= _horner(z, _ERF_U)
    if big.size:
        xb = x[big]
        a = np.minimum(np.abs(xb), 8.0)
        e = np.exp(-(a * a))
        e *= _horner(a, _ERFC_P)
        e /= _horner(a, _ERFC_Q)
        np.subtract(1.0, e, out=e)
        out[big] = np.copysign(e, xb, out=e)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _node(data, (a,), backward)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: exp only sees -|x|."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def sigmoid(a: Tensor) -> Tensor:
    y = _logistic(a.data)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _node(y, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = _logistic(x)

    def backward(g):
        return (g * sig,)

    return _node(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise DimensionError("layer_norm: gain/bias must match the last dim")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    data = xhat * gain.data + bias.data
    d = a.shape[-1]

    def backward(g):
        gg = g * gain.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        dgain = _reduce_to_shape(g * xhat, gain.shape)
        dbias = _reduce_to_shape(g, bias.shape)
        return dx, dgain, dbias

    return _node(data, (a, gain, bias), backward)


def dropout(a: Tensor, p: float, seed: int) -> Tensor:
    """Train-mode dropout with an explicit seed; scales kept values by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout: p must be in [0, 1), got {p}")
    keep = np.random.default_rng(seed).random(a.shape) >= p
    factor = keep / (1.0 - p)
    data = a.data * factor

    def backward(g):
        return (g * factor,)

    return _node(data, (a,), backward)


# -- verification --


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    Returns max over elements of |analytic - numeric| / max(1, |numeric|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ContractError(f"grad_check: eps must be in [1e-7, 1e-3], got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ContractError("grad_check: f must return a scalar Tensor")
    out.backward()
    analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.copy().reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(flat.reshape(x.shape))).item()
        flat[i] = orig - eps
        lo = f(Tensor(flat.reshape(x.shape))).item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))

