"""Built-in invariant suite behind the `selftest` subcommand.

Fast, self-contained checks of the numerical contracts: one line per check,
exit status 0 only if everything holds.
"""

from __future__ import annotations

import sys

import numpy as np

from . import tensor as T
from .attention import AttentionParams, attention, mw_mha, mha, win_attention, window_schedule
from .analysis import AttnRecord, PatchGrid, attention_entropy, mean_attention_distance, pwcca
from .container import load_tensors, save_tensors
from .model import MaeConfig, MaeParams, mae_forward, patchify, random_mask, unpatchify
from .tensor import Tensor, grad_check
from .train import TrainConfig, OptimizerState, adamw_step, effective_lr, lr_at

_CHECKS = []


def _check(name):
    def wrap(fn):
        _CHECKS.append((name, fn))
        return fn
    return wrap


@_check("window schedule reproduces the reference lists and head counts")
def _schedule():
    assert window_schedule(250).windows == (2, 5, 10, 25, 50, 125, 250, 250)
    for n_p, h in {125: 4, 250: 8, 500: 12, 640: 16}.items():
        assert window_schedule(n_p).n_heads == h


@_check("windowed attention equals the per-window slice loop")
def _win_attention():
    rng = np.random.default_rng(0)
    for n, win in [(12, 3), (16, 4), (10, 5), (8, 8)]:
        q, k, v = (rng.normal(size=(n, 4)) for _ in range(3))
        got = win_attention(Tensor(q), Tensor(k), Tensor(v), win).data
        for b in range(n // win):
            sl = slice(b * win, (b + 1) * win)
            ref = attention(Tensor(q[sl]), Tensor(k[sl]), Tensor(v[sl])).data
            assert np.max(np.abs(got[sl] - ref)) < 1e-10


@_check("all-global multi-window attention matches standard attention")
def _mwmha_global():
    from .attention import global_schedule

    rng = np.random.default_rng(1)
    params = AttentionParams.init(8, 2, rng)
    x = Tensor(rng.normal(size=(6, 8)))
    a = mw_mha(x, params, global_schedule(6, 2)).data
    b = mha(x, params).data
    assert np.array_equal(a, b)


@_check("softmax rows sum to one and resist overflow")
def _softmax():
    rng = np.random.default_rng(2)
    y = T.softmax_lastdim(Tensor(rng.normal(size=(5, 7)) * 100)).data
    assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-9
    sat = T.softmax_lastdim(Tensor(np.array([1000.0, 0.0]))).data
    assert abs(sat[0] - 1.0) < 1e-12 and abs(sat[1]) < 1e-12


@_check("gradients agree with central differences")
def _grads():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(4, 3))
    cases = [
        lambda t: T.matmul(t, Tensor(w)).sum(),
        lambda t: T.softmax_lastdim(t).mean(),
        lambda t: T.gelu(t).sum(),
        lambda t: T.layer_norm(t, Tensor(np.ones(4), requires_grad=False),
                               Tensor(np.zeros(4))).sum(),
        lambda t: (t * t).mean(),
    ]
    for f in cases:
        assert grad_check(f, x, eps=1e-5) < 1e-4


@_check("masking contract: 250 patches at 0.8 -> 200 masked, 50 visible")
def _masking():
    mask = random_mask(250, 0.8, seed=0)
    assert len(mask.masked_idx) == 200 and len(mask.visible_idx) == 50
    again = random_mask(250, 0.8, seed=0)
    assert np.array_equal(mask.visible_idx, again.visible_idx)
    assert np.array_equal(mask.masked_idx, again.masked_idx)


@_check("patchify/unpatchify round trip")
def _patch_roundtrip():
    rng = np.random.default_rng(4)
    spec = rng.normal(size=(8, 8))
    p = patchify(spec, 2, 2)
    assert np.array_equal(unpatchify(p, 2, 2, 8, 8), spec)


@_check("tiny forward pass is reproducible and finite")
def _forward():
    cfg = MaeConfig(input_t=8, input_f=8, patch_t=2, patch_f=2,
                    enc_depth=1, enc_width=8, enc_heads=2,
                    dec_depth=1, dec_width=10, seed=0)
    params = MaeParams.init(cfg)
    spec = np.random.default_rng(5).normal(size=(8, 8))
    a = mae_forward(spec, cfg, params, seed=7)
    b = mae_forward(spec, cfg, params, seed=7)
    assert a.loss.item() == b.loss.item() and np.isfinite(a.loss.item())


@_check("learning-rate schedule and AdamW numerics")
def _optim():
    assert effective_lr(1.5e-5, 1024) == 6e-5
    cfg = TrainConfig(base_lr=1.5e-5, batch_size=1024)
    spe = 10
    boundary = cfg.warmup_epochs * spe
    ramp_end = lr_at(boundary, spe, cfg)
    assert abs(ramp_end - 6e-5) < 1e-12
    assert lr_at(0, spe, cfg) == 0.0
    assert lr_at(cfg.total_epochs * spe, spe, cfg) == cfg.min_lr

    p = {"w": Tensor(np.ones(4), requires_grad=True)}
    state = OptimizerState.init(p)
    step_cfg = TrainConfig(base_lr=1.0, batch_size=256, weight_decay=0.05)
    adamw_step(p, {"w": np.zeros(4)}, state, lr=0.01, cfg=step_cfg)
    assert np.allclose(p["w"].data, 1.0 - 0.01 * 0.05, atol=0, rtol=0)


@_check("analysis oracles: entropy, distance, pwcca")
def _analysis():
    uniform = np.full((250, 250), 1.0 / 250)
    rec = AttnRecord(layer=0, head=0, probs=[uniform])
    assert abs(attention_entropy(rec) - np.log(250)) < 1e-9
    eye = AttnRecord(layer=0, head=0, probs=[np.eye(9)])
    grid = PatchGrid(3, 3)
    assert mean_attention_distance(eye, grid) == 0.0
    rng = np.random.default_rng(6)
    x = rng.normal(size=(500, 6))
    assert abs(pwcca(x, x) - 1.0) < 1e-6
    a = rng.normal(size=(6, 6)) + 3 * np.eye(6)
    assert abs(pwcca(x, x @ a) - 1.0) < 1e-6


@_check("named-tensor container round trip")
def _container(tmp_path=None):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(7)
    tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,))}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.bin"
        save_tensors(path, tensors)
        back = load_tensors(path)
    for k in tensors:
        assert np.max(np.abs(back[k] - tensors[k])) < 1e-6


def run_selftest() -> int:
    failed = 0
    for name, fn in _CHECKS:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # noqa: BLE001
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    if failed:
        print(f"{failed} of {len(_CHECKS)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(_CHECKS)} checks passed")
    return 0
