"""Shared fixtures for desk-scale model tests.

The tiny configuration (8x8 input, 2x2 patches -> 16 patches, widths <= 16)
keeps finite-difference checks and training runs fast. Synthetic
spectrograms are noisy mixtures of a few fixed prototypes, so masked
reconstruction has real structure to learn.
"""

import errno
import importlib
import threading

import numpy as np
import pytest

from mwmae import MaeConfig
from mwmae.attention import HeadTap
from mwmae.audio import standardize
from mwmae.model import decode, encode, encode_all, mae_forward, patchify, random_mask
from mwmae.tensor import no_grad
from mwmae.runtime import _blas_thread_hooks
from mwmae.train import TrainConfig


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set) thread-count hooks; the test's count is
    undone afterwards."""
    hooks = _blas_thread_hooks()
    if hooks is None:
        pytest.skip("numpy's BLAS exports no thread-count hooks")
    get, set_ = hooks
    saved = get()
    yield get, set_
    set_(saved)


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started during the test, in start order."""
    started = []
    real = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return real(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def tiny_config(**overrides) -> MaeConfig:
    kwargs = dict(
        input_t=8, input_f=8, patch_t=2, patch_f=2,
        enc_depth=2, enc_width=16, enc_heads=2,
        dec_depth=2, dec_width=10,
        mask_ratio=0.8, seed=0,
    )
    kwargs.update(overrides)
    return MaeConfig(**kwargs)


def toy_train_config(seed: int = 1, **overrides) -> TrainConfig:
    """200-step recipe that reliably halves the smoothed loss on toy data."""
    kwargs = dict(base_lr=0.8, batch_size=8, warmup_epochs=5, total_epochs=25, seed=seed)
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def assert_views_spans(leaves, flat, layout) -> None:
    """Each leaf, in layout order, is a contiguous view of exactly its span of `flat`."""
    assert list(leaves) == list(layout.spans)
    for name, t in leaves.items():
        start, stop = layout.spans[name]
        assert t.data.base is flat and t.data.flags.c_contiguous, name
        assert (t.data.ctypes.data - flat.ctypes.data) // flat.itemsize == start, name
        assert t.data.size == stop - start and t.shape == layout.shapes[name], name


def toy_spectrograms(n: int, shape=(8, 8), seed: int = 0, noise: float = 0.15):
    """Standardized prototype-plus-noise spectrograms."""
    rng = np.random.default_rng(seed)
    t, f = shape
    tt, ff = np.meshgrid(np.arange(t), np.arange(f), indexing="ij")
    prototypes = [
        np.sin(2 * np.pi * tt / t) * np.cos(2 * np.pi * ff / f),
        np.where(ff < f // 2, 1.0, -1.0) * np.sin(2 * np.pi * tt / t),
        np.cos(2 * np.pi * (tt + ff) / (t + f)),
        np.where((tt + ff) % 4 < 2, 1.0, -1.0),
    ]
    specs = []
    for i in range(n):
        base = prototypes[i % len(prototypes)]
        amp = rng.uniform(0.5, 1.5)
        specs.append(standardize(amp * base + noise * rng.normal(size=shape)))
    return specs


def param_grad_errors(cfg, params, spec, mask_seed=4, eps=1e-5):
    """End-to-end gradient check for every parameter group.

    One backward pass gives the analytic gradients; numeric gradients come
    from central differences on each parameter element. Returns
    {name: max relative error} with the same error metric as grad_check.
    """
    named = params.named()
    for t in named.values():
        t.zero_grad()
    mae_forward(spec, cfg, params, seed=mask_seed).loss.backward()
    analytic = {k: t.grad.copy() for k, t in named.items()}

    def loss_now():
        return mae_forward(spec, cfg, params, seed=mask_seed).loss.item()

    errors = {}
    for name, t in named.items():
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_now()
            flat[i] = orig - eps
            lo = loss_now()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2 * eps)
        a = analytic[name].reshape(-1)
        errors[name] = float(
            np.max(np.abs(a - numeric) / np.maximum(1.0, np.abs(numeric)))
        )
    return errors


def full_stack_taps(cfg, params, specs, stack: str) -> list[list[HeadTap]]:
    """Per-example, per-block HeadTaps from the untruncated forward pass.

    Every block runs in full, followed by the final norm (and, for the
    decoder, the prediction head): the reference for `collect_stack`, whose
    stacks stop at the last tapped attention. The decoder's masks use the
    same per-example seeds as `collect_stack`.
    """
    model = importlib.import_module("mwmae.model")
    saved = {name: getattr(model, name) for name in ("mha", "mw_mha")}
    taps: list[list[HeadTap]] = []

    def spy(name):
        def call(*args, **kwargs):
            kwargs["tap"] = HeadTap()
            taps[-1].append(kwargs["tap"])
            return saved[name](*args, **kwargs)
        return call

    with no_grad():
        for i, spec in enumerate(specs):
            patches = patchify(spec, cfg.patch_t, cfg.patch_f)
            if stack == "decoder":
                mask = random_mask(cfg.n_p, cfg.mask_ratio, seed=i)
                latent = encode(patches, mask, cfg, params)
            taps.append([])
            for name in saved:
                setattr(model, name, spy(name))
            try:
                if stack == "encoder":
                    encode_all(patches, cfg, params)
                else:
                    decode(latent, mask, cfg, params)
            finally:
                for name, fn in saved.items():
                    setattr(model, name, fn)
    return taps


def block_diagonal(probs: np.ndarray, n: int) -> np.ndarray:
    """Embed one example's tapped attention, (n, n) or (n/win, win, win), as
    a row-stochastic n x n matrix: the dense reference for the analysis."""
    if probs.ndim == 2:
        return probs
    m, win, _ = probs.shape
    assert m * win == n
    full = np.zeros((n, n))
    for b in range(m):
        full[b * win:(b + 1) * win, b * win:(b + 1) * win] = probs[b]
    return full


def dense_entropy(probs: list[np.ndarray], n: int) -> float:
    """Mean row entropy over the n x n embeddings, averaged over examples."""
    per_example = []
    for p in probs:
        full = block_diagonal(p, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(full > 0.0, -full * np.log(full), 0.0)
        per_example.append(terms.sum(axis=-1).mean())
    return float(np.mean(per_example))


def dense_distance(probs: list[np.ndarray], grid_t: int, grid_f: int) -> float:
    """Mean attention distance from the n x n embeddings and the full
    n x n table of patch-grid distances, averaged over examples."""
    n = grid_t * grid_f
    idx = np.arange(n)
    pos = np.stack([idx // grid_f, idx % grid_f], axis=1).astype(np.float64)
    table = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return float(np.mean([(block_diagonal(p, n) * table).sum(axis=-1).mean()
                          for p in probs]))


class FailsMidway:
    """A file that takes half of a write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)
