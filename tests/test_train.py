"""Optimizer numerics, learning-rate schedule, and the training loop."""

import contextlib
import ctypes
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from mwmae import container, runtime
from mwmae import tensor as T
from mwmae.errors import ContractError, TrainingDivergedError
from mwmae.model import MaeConfig, MaeParams, load_checkpoint, mae_forward
from mwmae.runtime import _keep_freed_memory
from mwmae.tensor import Layout
from mwmae.train import (
    OptimizerState,
    TrainConfig,
    _mask_seed,
    _shard_bounds,
    adamw_step,
    effective_lr,
    lr_at,
    train,
)

from _toy import (FailsMidway, ShardFailure, Unpicklable, alive,  # noqa: F401 (fixtures)
                  assert_views_spans, blas_threads, thread_starts, tiny_config,
                  toy_spectrograms, toy_train_config)


class TestEffectiveLr:
    def test_reference_value(self):
        assert effective_lr(1.5e-5, 1024) == 6e-5

    def test_identity_at_256(self):
        assert effective_lr(3.7e-4, 256) == 3.7e-4

    def test_zero_base(self):
        assert effective_lr(0.0, 4096) == 0.0

    def test_bad_batch(self):
        with pytest.raises(ContractError):
            effective_lr(1e-4, 0)


class TestLrSchedule:
    def setup_method(self):
        self.cfg = TrainConfig(base_lr=1.5e-5, batch_size=1024)
        self.spe = 17

    def test_starts_at_zero(self):
        assert lr_at(0, self.spe, self.cfg) == 0.0

    def test_warmup_end_hits_effective_lr(self):
        boundary = self.cfg.warmup_epochs * self.spe
        assert lr_at(boundary, self.spe, self.cfg) == effective_lr(1.5e-5, 1024)

    def test_continuous_at_warmup_boundary(self):
        boundary = self.cfg.warmup_epochs * self.spe
        left = lr_at(boundary - 1, self.spe, self.cfg)
        ramp_slope = effective_lr(1.5e-5, 1024) / boundary
        assert abs(lr_at(boundary, self.spe, self.cfg) - (left + ramp_slope)) < 1e-12

    def test_final_step_reaches_min_lr(self):
        final = self.cfg.total_epochs * self.spe
        assert lr_at(final, self.spe, self.cfg) == self.cfg.min_lr == 0.0

    def test_clamps_beyond_schedule(self):
        final = self.cfg.total_epochs * self.spe
        assert lr_at(final + 500, self.spe, self.cfg) == self.cfg.min_lr

    def test_monotone_warmup_then_decay(self):
        values = [lr_at(s, self.spe, self.cfg)
                  for s in range(self.cfg.total_epochs * self.spe + 1)]
        b = self.cfg.warmup_epochs * self.spe
        assert all(x < y for x, y in zip(values[:b], values[1:b + 1]))
        assert all(x >= y for x, y in zip(values[b:], values[b + 1:]))

    def test_warmup_must_be_shorter_than_total(self):
        with pytest.raises(ContractError):
            TrainConfig(warmup_epochs=100, total_epochs=100)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, match", [
        ("base_lr", float("nan"), "field 'base_lr' must be finite, got nan"),
        ("betas", (1.0, 2.0), "field 'betas' must be two numbers in \\[0, 1\\)"),
        ("betas", (0.9,), "field 'betas' must be two numbers, got"),
        ("weight_decay", -0.05, "field 'weight_decay' must be >= 0"),
        ("batch_size", 0, "field 'batch_size' must be >= 1, got 0"),
        ("seed", -1, "field 'seed' must be >= 0, got -1"),
        ("total_epochs", True, "field 'total_epochs' must be int, got True"),
    ])
    def test_each_field_is_checked(self, field, value, match):
        with pytest.raises(ContractError, match=match):
            TrainConfig(**{field: value})

    def test_betas_are_stored_as_a_tuple(self):
        assert TrainConfig(betas=[0, 0.5]).betas == (0, 0.5)

    def test_fields_cannot_be_assigned(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.base_lr = float("nan")
        assert cfg.base_lr == 1.5e-5


def _flat(**arrays):
    """Leaves over one buffer that holds `arrays` in order, and an optimizer
    state over that buffer."""
    layout = Layout({k: np.shape(a) for k, a in arrays.items()})
    state = OptimizerState.init(np.concatenate([np.ravel(a) for a in arrays.values()]), layout)
    return layout.leaves(state.params), state


class TestAdamW:
    def test_zero_grad_is_pure_decay(self):
        p, state = _flat(w=np.full(5, 2.0))
        cfg = TrainConfig(weight_decay=0.05)
        adamw_step(p, {"w": np.zeros(5)}, state, lr=0.01, cfg=cfg)
        np.testing.assert_allclose(p["w"].data, 2.0 * (1 - 0.01 * 0.05), rtol=0, atol=0)

    def test_no_decay_set_respected(self):
        p, state = _flat(**{"ln.g": np.ones(3)})
        cfg = TrainConfig(weight_decay=0.05)
        adamw_step(p, {"ln.g": np.zeros(3)}, state, lr=0.01, cfg=cfg,
                   no_decay={"ln.g"})
        np.testing.assert_array_equal(p["ln.g"].data, 1.0)

    def test_first_step_matches_hand_evaluation(self):
        g = np.array([0.3, -1.2, 4.0])
        p, state = _flat(w=np.zeros(3))
        cfg = TrainConfig(weight_decay=0.0, betas=(0.9, 0.999))
        lr = 0.01
        adamw_step(p, {"w": g.copy()}, state, lr=lr, cfg=cfg)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = -lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p["w"].data, expected, rtol=1e-12)

    def test_identity_when_lr_and_wd_zero(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=4)
        p, state = _flat(w=w0.copy())
        cfg = TrainConfig(weight_decay=0.0)
        adamw_step(p, {"w": rng.normal(size=4)}, state, lr=0.0, cfg=cfg)
        np.testing.assert_array_equal(p["w"].data, w0)

    def test_nan_grad_rejected(self):
        p, state = _flat(w=np.ones(2))
        with pytest.raises(TrainingDivergedError):
            adamw_step(p, {"w": np.array([np.nan, 0.0])}, state, lr=0.01,
                       cfg=TrainConfig())

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(7)
            p, state = _flat(w=rng.normal(size=6))
            cfg = TrainConfig(weight_decay=0.05)
            for _ in range(20):
                adamw_step(p, {"w": rng.normal(size=6)}, state, lr=1e-3, cfg=cfg)
            return p["w"].data
        np.testing.assert_array_equal(run(), run())


def _per_tensor_adamw(params, grads, state, lr, cfg, no_decay=frozenset(), eps=1e-8):
    """The per-tensor AdamW loop that adamw_step must match bit for bit;
    `state` holds per-name moment dicts and a step count."""
    b1, b2 = cfg.betas
    state["step"] += 1
    t = state["step"]
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        if name not in no_decay and cfg.weight_decay != 0.0:
            p.data *= 1.0 - lr * cfg.weight_decay
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


class TestFlatAdamW:
    SHAPES = {"enc.w": (4, 3), "enc.ln.g": (3,), "dec.w": (3, 5), "mask": (1, 5),
              "head.b": ()}
    NO_DECAY = {"enc.ln.g", "mask"}

    def _params(self, seed):
        rng = np.random.default_rng(seed)
        return _flat(**{k: rng.normal(size=s) for k, s in self.SHAPES.items()})

    @pytest.mark.parametrize("weight_decay", [0.05, 0.0])
    def test_matches_per_tensor_loop_over_20_steps(self, weight_decay):
        cfg = TrainConfig(weight_decay=weight_decay, betas=(0.9, 0.95))
        (flat, state), (ref, _) = self._params(0), self._params(0)
        ref_state = {"step": 0,
                     "m": {k: np.zeros_like(t.data) for k, t in ref.items()},
                     "v": {k: np.zeros_like(t.data) for k, t in ref.items()}}
        rng = np.random.default_rng(1)
        for i in range(20):
            grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-3, 3)
                     for k, s in self.SHAPES.items()}
            lr = 1e-2 * (i + 1) / 20
            adamw_step(flat, grads, state, lr, cfg, no_decay=self.NO_DECAY)
            _per_tensor_adamw(ref, grads, ref_state, lr, cfg, no_decay=self.NO_DECAY)
            for k, (start, stop) in state.spans.items():
                np.testing.assert_array_equal(flat[k].data, ref[k].data)
                assert np.shares_memory(flat[k].data, state.params)
                np.testing.assert_array_equal(state.params[start:stop], ref[k].data.ravel())
        assert state.step == ref_state["step"] == 20
        for k, (start, stop) in state.spans.items():
            np.testing.assert_array_equal(state.m[start:stop], ref_state["m"][k].ravel())
            np.testing.assert_array_equal(state.v[start:stop], ref_state["v"][k].ravel())

    def test_state_is_flat_in_dict_order(self):
        params, state = self._params(2)
        rng = np.random.default_rng(2)
        assert list(state.spans) == list(self.SHAPES)
        assert state.spans["enc.w"] == (0, 12) and state.spans["head.b"] == (35, 36)
        assert state.params.shape == state.m.shape == state.v.shape == (36,)
        assert_views_spans(params, state.params, Layout(self.SHAPES))
        for k, t in params.items():
            assert t.data.tobytes() == rng.normal(size=self.SHAPES[k]).tobytes()

    def test_a_buffer_that_does_not_fit_is_refused(self):
        layout = Layout(self.SHAPES)
        for buf in (np.zeros(36, dtype=np.float32), np.zeros(35), np.zeros((36, 1))):
            with pytest.raises(ContractError, match="a layout of 36 float64 values"):
                layout.leaves(buf)
        with pytest.raises(ContractError, match="a layout of 36 values"):
            OptimizerState.init(np.zeros(37), layout)

    def test_bound_gradients_view_one_buffer(self):
        params, state = self._params(6)
        buf = state.bind_grads(params)
        assert buf.shape == state.params.shape and not buf.any()
        for k, t in params.items():
            assert np.shares_memory(t.grad, buf) and t.grad.shape == self.SHAPES[k]
        params["dec.w"].grad += 1.0
        start, stop = state.spans["dec.w"]
        assert buf[start:stop].all() and buf.sum() == stop - start

    def test_zero_grad_keeps_a_bound_gradient_bound(self):
        params, state = self._params(7)
        buf = state.bind_grads(params)
        w = params["dec.w"]
        w.grad += 5.0
        w.zero_grad()
        assert not buf.any()
        T.scale(w, 2.0).sum().backward()
        start, stop = state.spans["dec.w"]
        assert np.shares_memory(w.grad, buf)
        np.testing.assert_array_equal(buf[start:stop], 2.0)
        assert buf.sum() == 2.0 * (stop - start)

    def test_non_finite_grad_names_first_and_changes_nothing(self):
        cfg = TrainConfig(weight_decay=0.05)
        params, state = self._params(3)
        rng = np.random.default_rng(4)
        good = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
        adamw_step(params, good, state, 1e-2, cfg, no_decay=self.NO_DECAY)
        before = ({k: t.data.copy() for k, t in params.items()},
                  state.m.copy(), state.v.copy(), state.step)
        bad = dict(good)
        bad["dec.w"] = np.full(self.SHAPES["dec.w"], np.inf)
        bad["mask"] = np.full(self.SHAPES["mask"], np.nan)
        with pytest.raises(TrainingDivergedError, match="'dec.w'"):
            adamw_step(params, bad, state, 1e-2, cfg, no_decay=self.NO_DECAY)
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, before[0][k])
        np.testing.assert_array_equal(state.m, before[1])
        np.testing.assert_array_equal(state.v, before[2])
        assert state.step == before[3]

    def test_names_must_match_state(self):
        params, state = self._params(5)
        del params["mask"]
        grads = {k: np.zeros(t.shape) for k, t in params.items()}
        with pytest.raises(ContractError):
            adamw_step(params, grads, state, 1e-2, TrainConfig())


class TestDescentSanity:
    def test_loss_strictly_decreases_on_fixed_batch(self):
        # fixed batch, fixed masks, constant-ish lr 1e-3: ten improving steps
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        specs = toy_spectrograms(8, seed=3)
        named = params.named()
        state = OptimizerState.init(params.flat, MaeParams.layout(cfg))
        opt_cfg = TrainConfig(base_lr=1e-3 * 256, batch_size=1,
                              weight_decay=0.0, warmup_epochs=0, total_epochs=1)

        def batch_loss_and_grads():
            for t in named.values():
                t.zero_grad()
            total = 0.0
            for j, spec in enumerate(specs):
                out = mae_forward(spec, cfg, params, seed=100 + j)
                out.loss.backward()
                total += out.loss.item()
            grads = {k: t.grad / len(specs) for k, t in named.items()}
            return total / len(specs), grads

        losses = []
        for _ in range(11):
            loss, grads = batch_loss_and_grads()
            losses.append(loss)
            adamw_step(named, grads, state, lr=1e-3, cfg=opt_cfg,
                       no_decay=params.no_decay_names())
        diffs = np.diff(losses[:11])
        assert np.all(diffs < 0), losses


class TestTrainLoop:
    def test_toy_descent_halves_smoothed_loss(self, tmp_path):
        specs = toy_spectrograms(64, seed=0)
        res = train(specs, tiny_config(), toy_train_config(seed=1),
                    max_steps=200, loss_csv=tmp_path / "loss.csv")
        smoothed = np.convolve(res.losses, np.ones(20) / 20, mode="valid")
        assert smoothed[-1] <= 0.5 * smoothed[0]

    def test_updates_reach_arrays_taken_before_the_call(self):
        params = MaeParams.init(tiny_config())
        taken = {k: t.data for k, t in params.named().items()}
        start = {k: a.copy() for k, a in taken.items()}
        result = train(toy_spectrograms(16, seed=7), tiny_config(), toy_train_config(),
                       max_steps=3, params=params)
        assert result.params is params
        for k, t in params.named().items():
            assert t.data is taken[k], k
        assert not np.array_equal(taken["head.w"], start["head.w"])

    def test_params_of_another_shape_are_refused(self):
        wider = MaeParams.init(tiny_config(dec_width=20))
        with pytest.raises(ContractError, match="for a layout of"):
            train(toy_spectrograms(16, seed=7), tiny_config(), toy_train_config(), max_steps=1,
                  params=wider)

    def test_lr_log_matches_schedule(self, tmp_path):
        specs = toy_spectrograms(16, seed=1)
        tc = toy_train_config(seed=2, total_epochs=6, warmup_epochs=2)
        res = train(specs, tiny_config(), tc, max_steps=None)
        spe = 16 // tc.batch_size
        for step in (0, tc.warmup_epochs * spe, len(res.lrs) - 1):
            assert res.lrs[step] == lr_at(step, spe, tc)

    def test_same_seed_bitidentical_csv(self, tmp_path):
        specs = toy_spectrograms(16, seed=2)
        tc = toy_train_config(seed=5, total_epochs=7)

        def run(name):
            path = tmp_path / name
            train(specs, tiny_config(), tc, max_steps=24, loss_csv=path)
            return path.read_bytes()

        assert run("a.csv") == run("b.csv")

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one_rejected(self, max_steps):
        with pytest.raises(ContractError, match="max_steps"):
            train(toy_spectrograms(8, seed=3), tiny_config(), toy_train_config(),
                  max_steps=max_steps)

    @pytest.mark.parametrize("max_steps", [True, 2.5])
    def test_max_steps_must_be_an_int(self, max_steps):  # numpy's TypeError before
        with pytest.raises(ContractError, match="field 'max_steps' must be int"):
            train(toy_spectrograms(8, seed=3), tiny_config(), toy_train_config(),
                  max_steps=max_steps)

    def test_csv_columns(self, tmp_path):
        specs = toy_spectrograms(8, seed=3)
        path = tmp_path / "loss.csv"
        train(specs, tiny_config(), toy_train_config(total_epochs=6), max_steps=3,
              loss_csv=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,epoch,lr,loss"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == 0.0  # warmup starts at zero
        assert float(first[3]) > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_and_keeps_checkpoint(self, tmp_path):
        specs = toy_spectrograms(8, seed=4)
        ckpt = tmp_path / "model.bin"
        # absurd lr produces overflow within a few steps
        tc = toy_train_config(base_lr=1e12, warmup_epochs=1, total_epochs=50,
                              ckpt_every_epochs=1)
        with pytest.raises(TrainingDivergedError):
            train(specs, tiny_config(), tc, out_ckpt=ckpt, max_steps=None)
        # a checkpoint from a completed epoch is still loadable
        if ckpt.exists():
            load_checkpoint(ckpt)

    def test_weights_beyond_float32_are_never_checkpointed(self, tmp_path):
        ckpt = tmp_path / "model.bin"
        tc = toy_train_config(base_lr=1e12, warmup_epochs=1, total_epochs=50,
                              ckpt_every_epochs=1)
        # the AdamW update overflows float64 on the way to the float32 check
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(TrainingDivergedError, match="float32 range") as exc:
                train(toy_spectrograms(8, seed=4), tiny_config(), tc, out_ckpt=ckpt,
                      loss_csv=tmp_path / "loss.csv")
        load_checkpoint(ckpt)  # an earlier epoch's checkpoint, still finite
        found = re.search(r"by step (\d+) .*tensor '[\w.]+'.*last checkpoint retained",
                          str(exc.value))
        assert found, str(exc.value)
        assert _csv_steps(tmp_path / "loss.csv") == list(range(int(found.group(1))))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            train([], tiny_config(), toy_train_config())

    def test_each_checkpoint_is_written_once(self, tmp_path, monkeypatch):
        written = []
        real = train_module.save_checkpoint

        def save(path, cfg, params):
            written.append(path)
            real(path, cfg, params)

        monkeypatch.setattr(train_module, "save_checkpoint", save)
        # 5 steps per epoch; the cut at step 13 falls inside the third epoch
        train(toy_spectrograms(40, seed=5), tiny_config(),
              toy_train_config(total_epochs=6, ckpt_every_epochs=1), max_steps=13,
              out_ckpt=tmp_path / "m.bin")
        assert len(written) == 3  # after steps 5 and 10, then the final one

    def test_checkpoint_written(self, tmp_path):
        specs = toy_spectrograms(8, seed=5)
        ckpt = tmp_path / "m.bin"
        train(specs, tiny_config(), toy_train_config(total_epochs=6), max_steps=4,
              out_ckpt=ckpt)
        cfg, params = load_checkpoint(ckpt)
        assert cfg.n_p == 16


def _csv_steps(path) -> list[int]:
    """The step column of a loss CSV, after checking its header."""
    lines = path.read_text().splitlines()
    assert lines[0] == "step,epoch,lr,loss"
    return [int(line.split(",")[0]) for line in lines[1:]]


class TestLossCsvOnEveryExit:
    """A run that stops on divergence keeps the loss CSV rows of the steps
    that finished (`TestTrainLoop` checks the float32 exit)."""

    def test_non_finite_gradient(self, tmp_path, monkeypatch):
        real = train_module.adamw_step

        def adamw(params, grads, state, lr, cfg, no_decay):
            if state.step == 2:
                grads["embed.w"].flat[0] = np.nan  # a view of the summed gradients
            real(params, grads, state, lr, cfg, no_decay=no_decay)

        monkeypatch.setattr(train_module, "adamw_step", adamw)
        path = tmp_path / "loss.csv"
        with pytest.raises(TrainingDivergedError, match="non-finite gradient for 'embed.w'"):
            train(toy_spectrograms(16, seed=9), tiny_config(), toy_train_config(),
                  loss_csv=path, max_steps=5)
        assert _csv_steps(path) == [0, 1]

    def test_non_finite_loss(self, tmp_path, monkeypatch):
        tc = toy_train_config()
        real = train_module.mae_forward
        poisoned = _mask_seed(tc.seed, 2, 0)

        def forward(spec, cfg, params, seed):
            if seed[0] == poisoned:
                spec = np.full_like(spec, np.nan)
            return real(spec, cfg, params, seed=seed)

        monkeypatch.setattr(train_module, "mae_forward", forward)
        path = tmp_path / "loss.csv"
        with pytest.raises(TrainingDivergedError, match="non-finite loss at step 2"):
            train(toy_spectrograms(16, seed=9), tiny_config(), tc, loss_csv=path, max_steps=5)
        assert _csv_steps(path) == [0, 1]


class TestLossCsvWrite:
    def test_failed_write_keeps_previous_csv(self, tmp_path, monkeypatch):
        path = tmp_path / "loss.csv"
        container.write_text(path, "step,epoch,lr,loss\n0,0,0.0,1.5\n")
        old = path.read_bytes()
        monkeypatch.setattr(container, "open", lambda p, mode: FailsMidway(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError):
            container.write_text(path, "step,epoch,lr,loss\n0,0,0.0,1.5\n1,0,0.1,1.25\n")
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["loss.csv"]


@pytest.fixture
def unset_malloc_helper():
    """Let `_keep_freed_memory` run again, before and after the test."""
    _keep_freed_memory.cache_clear()
    yield
    _keep_freed_memory.cache_clear()


# A seeded run at 250 patches, whose (8, 250, 250) score arrays glibc serves
# from mmap by default. argv: output directory, then "stub" or "real".
_SEEDED_RUN = """
import importlib, sys
import numpy as np
from mwmae.model import MaeConfig
from mwmae.train import TrainConfig
tm = importlib.import_module("mwmae.train")
if sys.argv[2] == "stub":
    importlib.import_module("mwmae.runtime")._keep_freed_memory = lambda: None
rng = np.random.default_rng(0)
specs = [rng.normal(size=(200, 80)) for _ in range(8)]
cfg = MaeConfig(patch_t=4, patch_f=16, enc_depth=1, enc_width=16, enc_heads=2,
                dec_depth=1, dec_width=16, seed=0)
tc = TrainConfig(base_lr=0.1, batch_size=8, warmup_epochs=1, total_epochs=4, seed=0)
out = sys.argv[1]
tm.train(specs, cfg, tc, out_ckpt=out + "/m.ckpt", loss_csv=out + "/loss.csv")
"""


class TestKeepFreedMemory:
    """`train()` sets glibc's mmap and trim thresholds once per process."""

    @pytest.mark.parametrize("exc", [OSError, TypeError])
    def test_no_op_when_libc_cannot_load(self, monkeypatch, unset_malloc_helper, exc):
        def cdll(name):
            raise exc("no C library")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        _keep_freed_memory()

    def test_no_op_without_mallopt(self, monkeypatch, unset_malloc_helper):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        _keep_freed_memory()

    def test_second_train_call_sets_nothing(self, monkeypatch, unset_malloc_helper):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        def cdll(name):
            assert name is None  # the running process, not a library search
            return Libc()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        specs = toy_spectrograms(8, seed=6)
        for _ in range(2):
            train(specs, tiny_config(), toy_train_config(total_epochs=6), max_steps=1)
        # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = 64 MiB, M_ARENA_MAX = 1
        assert calls == [(-3, 32 << 20), (-1, 64 << 20), (-8, 1)]

    def test_changes_no_arithmetic(self, tmp_path):
        # Each run gets a fresh process, so the stubbed one keeps glibc's
        # default thresholds.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        outputs = []
        for mode in ("stub", "real"):
            out = tmp_path / mode
            out.mkdir()
            subprocess.run([sys.executable, "-c", _SEEDED_RUN, str(out), mode],
                           env=env, check=True)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["loss.csv", "m.ckpt", "m.ckpt.json"]
        assert outputs[0] == outputs[1]


# The package re-exports the function `train` under the module's name.
train_module = importlib.import_module("mwmae.train")


def pipeline_config() -> MaeConfig:
    """250 patches (decoder windows 2 ... 250), narrow enough for tests."""
    return MaeConfig(patch_t=4, patch_f=16, enc_depth=1, enc_width=16, enc_heads=2,
                     dec_depth=1, dec_width=16, seed=0)


def pipeline_train_config() -> TrainConfig:
    return TrainConfig(base_lr=0.1, batch_size=8, warmup_epochs=1, total_epochs=4, seed=0)


def pipeline_specs(n: int = 8) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.normal(size=(200, 80)) for _ in range(n)]


class ProcessLog:
    """JSON records appended to a file by this process and by a worker it
    forks, each led by the writing process's pid; `read()` returns them in
    the order written. A forked worker's memory is its own, so a spy that
    runs in it reports through the file."""

    def __init__(self, path):
        self.path = path
        self.path.touch()

    def add(self, *record) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps([os.getpid(), *record]) + "\n")

    def read(self) -> list[list]:
        return [json.loads(line) for line in self.path.read_text().splitlines()]


@pytest.fixture
def forward_calls(monkeypatch, tmp_path_factory):
    """A `ProcessLog` of [pid, mask seeds] for every `mae_forward` call that
    `train` makes, in this process or in its worker."""
    log = ProcessLog(tmp_path_factory.mktemp("calls") / "forward.jsonl")
    real = train_module.mae_forward

    def spy(spec, cfg, params, seed):
        log.add(list(seed))
        return real(spec, cfg, params, seed=seed)

    monkeypatch.setattr(train_module, "mae_forward", spy)
    return log


@pytest.fixture
def serial(monkeypatch):
    """Run sharded steps as where `fork` is missing: both shards, in order,
    on the calling thread."""
    monkeypatch.setattr(runtime, "_fork_context", lambda: None)


def worker_pids(log: ProcessLog) -> set[int]:
    return {pid for pid, *_ in log.read()} - {os.getpid()}


class TestShardedStep:
    """A large minibatch runs as two fixed half-batch graphs: shard 0 here,
    shard 1 in a forked worker process."""

    def test_gate(self):
        assert _shard_bounds(8, pipeline_config()) == [(0, 4), (4, 8)]
        assert _shard_bounds(7, pipeline_config()) == [(0, 4), (4, 7)]
        assert _shard_bounds(1, pipeline_config()) == [(0, 1)]
        assert _shard_bounds(8, tiny_config()) == [(0, 8)]

    def test_matches_one_full_batch_graph(self, monkeypatch, forward_calls):
        cfg, tc, specs = pipeline_config(), pipeline_train_config(), pipeline_specs()
        got = {}

        def capture(params, grads, state, lr, cfg, no_decay):
            got.update({k: g.copy() for k, g in grads.items()})

        monkeypatch.setattr(train_module, "adamw_step", capture)
        result = train(specs, cfg, tc, max_steps=1)
        seeds = [_mask_seed(tc.seed, 0, j) for j in range(8)]
        calls = {tuple(s): pid for pid, s in forward_calls.read()}
        assert sorted(calls) == sorted([tuple(seeds[:4]), tuple(seeds[4:])])
        assert calls[tuple(seeds[:4])] == os.getpid() != calls[tuple(seeds[4:])]

        order = np.random.default_rng(tc.seed).permutation(8)
        params = MaeParams.init(cfg)
        loss = mae_forward(np.stack([specs[i] for i in order]), cfg, params, seed=seeds).loss
        loss.backward()
        assert abs(result.losses[0] - loss.item()) <= 1e-12 * loss.item()
        named = params.named()
        assert list(got) == list(named)
        for k, t in named.items():
            assert np.max(np.abs(got[k] - t.grad)) <= 1e-12 * max(1.0, np.abs(t.grad).max()), k

    def test_each_step_reaches_both_shards_and_grads_stay_apart(self, monkeypatch, tmp_path):
        # Each process checks its shard's leaves against the buffers they
        # view and logs those buffers; the update checks them per step.
        layout = MaeParams.layout(pipeline_config())
        log = ProcessLog(tmp_path / "shards.jsonl")
        steps = []
        real_forward, real_adamw = train_module.mae_forward, train_module.adamw_step

        def span(a: np.ndarray) -> list[int]:
            return [a.ctypes.data, a.ctypes.data + a.nbytes]

        def forward(spec, cfg, params, seed):
            grad_buf = params.named()["head.w"].grad.base
            assert_views_spans(params.named(), params.flat, layout)
            assert_views_spans({k: T.Tensor(t.grad) for k, t in params.named().items()},
                               grad_buf, layout)
            log.add(span(params.flat), span(grad_buf), params.flat.tobytes().hex(),
                    bool(grad_buf.any()))
            return real_forward(spec, cfg, params, seed=seed)

        def adamw(params, grads, state, lr, cfg, no_decay):
            before = state.params.copy()
            shards = log.read()
            log.path.write_text("")
            assert len(shards) == 2 and len({pid for pid, *_ in shards}) == 2
            here = next(r for r in shards if r[0] == os.getpid())
            there = next(r for r in shards if r[0] != os.getpid())
            assert here[1] == span(state.params)
            assert here[2] == span(grads["embed.w"].base)
            # shard 1 read this step's parameters from its own buffer, and its
            # gradients went to a buffer apart from the parameters and shard 0's
            assert there[3] == before.tobytes().hex()
            spans = [here[1], here[2], there[1], there[2]]
            for k, (lo, hi) in enumerate(spans):
                assert all(hi <= lo2 or hi2 <= lo for lo2, hi2 in spans[k + 1:])
            assert not here[4] and not there[4]  # both gradient buffers were zeroed
            real_adamw(params, grads, state, lr, cfg, no_decay=no_decay)
            steps.append(not np.array_equal(before, state.params))

        monkeypatch.setattr(train_module, "mae_forward", forward)
        monkeypatch.setattr(train_module, "adamw_step", adamw)
        train(pipeline_specs(16), pipeline_config(), pipeline_train_config(), max_steps=3)
        assert steps == [False, True, True]  # the warmup's first rate is 0

    def test_seeded_run_is_byte_identical(self, tmp_path, forward_calls):
        outputs = []
        for run in range(3):
            out = tmp_path / str(run)
            out.mkdir()
            train(pipeline_specs(16), pipeline_config(), pipeline_train_config(),
                  out_ckpt=out / "m.ckpt", loss_csv=out / "loss.csv", max_steps=3)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(forward_calls.read()) == 3 * 3 * 2
        assert sorted(outputs[0]) == ["loss.csv", "m.ckpt", "m.ckpt.json"]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("blas", [1, 2])
    def test_worker_gives_the_serial_paths_bytes(self, tmp_path, monkeypatch, blas_threads,
                                                  forward_calls, blas):
        blas_threads[1](blas)
        outputs = []
        for mode in ("worker", "serial"):
            if mode == "serial":
                monkeypatch.setattr(runtime, "_fork_context", lambda: None)
            out = tmp_path / mode
            out.mkdir()
            train(pipeline_specs(16), pipeline_config(), pipeline_train_config(),
                  out_ckpt=out / "m.ckpt", loss_csv=out / "loss.csv", max_steps=3)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            pids = [pid for pid, _ in forward_calls.read()]
            assert len(pids) == 6 and (pids.count(os.getpid()) == 3) == (mode == "worker")
            forward_calls.path.write_text("")
        assert sorted(outputs[0]) == ["loss.csv", "m.ckpt", "m.ckpt.json"]
        assert outputs[0] == outputs[1]

    def test_tiny_config_never_shards(self, forward_calls):
        specs = toy_spectrograms(16, seed=7)
        train(specs, tiny_config(), toy_train_config(), max_steps=3)
        assert forward_calls.read() == [[os.getpid(), [_mask_seed(1, step, j) for j in range(8)]]
                                        for step in range(3)]

    @pytest.mark.parametrize("sharded", [False, True])
    def test_one_worker_per_call_and_no_thread(self, thread_starts, forward_calls, sharded):
        # Three steps over two epochs; a worker per step would make three.
        threads = threading.active_count()
        if sharded:
            train(pipeline_specs(16), pipeline_config(), pipeline_train_config(), max_steps=3)
        else:
            train(toy_spectrograms(16, seed=7), tiny_config(), toy_train_config(), max_steps=3)
        assert len(worker_pids(forward_calls)) == (1 if sharded else 0)
        assert thread_starts == []
        assert threading.active_count() == threads

    def test_non_finite_shard_loss_changes_nothing(self, monkeypatch):
        tc = pipeline_train_config()
        real = train_module.mae_forward
        poisoned = _mask_seed(tc.seed, 1, 4)  # the second shard of step 1

        def forward(spec, cfg, params, seed):
            if seed[0] == poisoned:
                spec = np.full_like(spec, np.nan)
            return real(spec, cfg, params, seed=seed)

        after_first = {}
        real_adamw = train_module.adamw_step

        def adamw(params, grads, state, lr, cfg, no_decay):
            real_adamw(params, grads, state, lr, cfg, no_decay=no_decay)
            after_first.update(state=state, m=state.m.copy(), v=state.v.copy(),
                               params={k: t.data.copy() for k, t in params.items()})

        monkeypatch.setattr(train_module, "mae_forward", forward)
        monkeypatch.setattr(train_module, "adamw_step", adamw)
        params = MaeParams.init(pipeline_config())
        with pytest.raises(TrainingDivergedError, match="step 1"):
            train(pipeline_specs(16), pipeline_config(), tc, params=params)
        state = after_first["state"]
        assert state.step == 1
        assert np.array_equal(state.m, after_first["m"])
        assert np.array_equal(state.v, after_first["v"])
        for k, t in params.named().items():
            assert np.array_equal(t.data, after_first["params"][k]), k

    def _fail_in_shard_1(self, monkeypatch, error):
        failing = _mask_seed(0, 0, 4)
        spy = train_module.mae_forward

        def forward(spec, cfg, params, seed):
            out = spy(spec, cfg, params, seed=seed)
            if seed[0] == failing:
                raise error("shard 1")
            return out

        monkeypatch.setattr(train_module, "mae_forward", forward)

    @staticmethod
    def _assert_raised_in_worker(caught, forward_calls) -> None:
        cause = caught.value.__cause__
        assert isinstance(cause, runtime.WorkerTraceback)
        assert "in forward" in str(cause) and "shard 1" in str(cause)
        (pid,) = worker_pids(forward_calls)
        assert not alive(pid)

    def test_error_inside_shard_reaches_caller(self, monkeypatch, thread_starts,
                                               forward_calls):
        self._fail_in_shard_1(monkeypatch, ShardFailure)
        with pytest.raises(ShardFailure, match="shard 1") as caught:
            train(pipeline_specs(), pipeline_config(), pipeline_train_config())
        self._assert_raised_in_worker(caught, forward_calls)
        assert thread_starts == []

    def test_unpicklable_error_inside_shard_reaches_caller(self, monkeypatch,
                                                           forward_calls):
        self._fail_in_shard_1(monkeypatch, Unpicklable)
        with pytest.raises(runtime.WorkerError,
                           match="^_toy.Unpicklable: shard 1$") as caught:
            train(pipeline_specs(), pipeline_config(), pipeline_train_config())
        self._assert_raised_in_worker(caught, forward_calls)


# The pipeline config's data and configs in a fresh interpreter.
_PIPELINE_SETUP = """
import importlib, os, sys
import numpy as np
from mwmae.model import MaeConfig
from mwmae.train import TrainConfig
tm = importlib.import_module("mwmae.train")
rng = np.random.default_rng(0)
specs = [rng.normal(size=(200, 80)) for _ in range(8)]
cfg = MaeConfig(patch_t=4, patch_f=16, enc_depth=1, enc_width=16, enc_heads=2,
                dec_depth=1, dec_width=16, seed=0)
assert len(tm._shard_bounds(8, cfg)) == 2
"""

# A sharded run that logs its worker's pid and then trains until it is
# killed. argv: none.
_KILLED_RUN = _PIPELINE_SETUP + """
parent, real = os.getpid(), tm.mae_forward
def forward(spec, cfg, params, seed):
    if os.getpid() != parent:
        print(os.getpid(), flush=True)
    return real(spec, cfg, params, seed=seed)
tm.mae_forward = forward
tm.train(specs, cfg, TrainConfig(base_lr=0.1, batch_size=8, warmup_epochs=1,
                                 total_epochs=100000, seed=0))
"""

# One sharded step, forked while OpenBLAS's pool runs. argv: none.
_FORK_AFTER_BLAS_RUN = _PIPELINE_SETUP + """
a = rng.normal(size=(600, 600))
a @ a
tm.train(specs, cfg, TrainConfig(base_lr=0.1, batch_size=8, warmup_epochs=1,
                                 total_epochs=2, seed=0), max_steps=1)
"""


def test_sharded_train_forks_without_a_deprecation_warning():
    # Python 3.12+ warns at a fork from a process with more than one thread;
    # OpenBLAS's pool, running before train(), must not count as one.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c",
                           _FORK_AFTER_BLAS_RUN], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestNoWorkerOutlivesTrain:
    """The worker is gone when `train()` returns or raises, and when the
    process that called it is killed."""

    @pytest.mark.parametrize("ending", ["return", "shard 1 raises", "diverged"])
    def test_train_ends(self, monkeypatch, forward_calls, ending):
        specs = pipeline_specs(16)
        if ending == "diverged":
            specs[5] = np.full_like(specs[5], np.nan)  # in one of the first two steps
        parent, spy = os.getpid(), train_module.mae_forward

        def forward(spec, cfg, params, seed):
            out = spy(spec, cfg, params, seed=seed)
            if ending == "shard 1 raises" and os.getpid() != parent:
                raise ShardFailure("shard 1")
            return out

        monkeypatch.setattr(train_module, "mae_forward", forward)
        raised = {"return": None, "shard 1 raises": ShardFailure,
                  "diverged": TrainingDivergedError}[ending]
        with pytest.raises(raised) if raised else contextlib.nullcontext():
            train(specs, pipeline_config(), pipeline_train_config(), max_steps=2)
        (pid,) = worker_pids(forward_calls)
        assert not alive(pid)
        assert importlib.import_module("multiprocessing").active_children() == []

    def test_killed_parent(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, "-c", _KILLED_RUN], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            pid = int(proc.stdout.readline())
            assert alive(pid)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(pid)


class TestStepSeam:
    """perfbench's `watch_steps` and `TestShardedStep` wrap the module-level
    `train.adamw_step`, so `train()` calls it once per step, with the
    gradients as a name -> array dict and `no_decay` by keyword, on one
    optimizer state."""

    @pytest.mark.parametrize("sharded", [False, True])
    def test_one_call_per_step(self, monkeypatch, sharded):
        if sharded:
            specs, cfg, tc, steps = (pipeline_specs(16), pipeline_config(),
                                     pipeline_train_config(), 2)
        else:
            specs, cfg, tc, steps = (toy_spectrograms(16, seed=8), tiny_config(),
                                     toy_train_config(), 3)
        assert len(_shard_bounds(tc.batch_size, cfg)) == (2 if sharded else 1)
        calls, graph_leaves = [], []
        real_adamw, real_forward = train_module.adamw_step, train_module.mae_forward

        def adamw(params, grads, state, lr, opt_cfg, *, no_decay):
            assert list(grads) == list(params) == list(state.spans)
            assert all(isinstance(g, np.ndarray) for g in grads.values())
            calls.append(state)
            real_adamw(params, grads, state, lr, opt_cfg, no_decay=no_decay)

        def forward(spec, cfg, params, seed):
            graph_leaves.extend(params.named().values())
            return real_forward(spec, cfg, params, seed=seed)

        monkeypatch.setattr(train_module, "adamw_step", adamw)
        monkeypatch.setattr(train_module, "mae_forward", forward)
        result = train(specs, cfg, tc, max_steps=steps)
        assert len(calls) == len(result.losses) == steps and calls[0].step == steps
        # every shard's graph reads the views that the update writes
        assert all(np.shares_memory(t.data, calls[0].params) for t in graph_leaves)


class TestOneBlasThread:
    """`train()` runs its loop with BLAS on one thread and then restores the
    caller's count, so the loss CSV does not depend on that count."""

    def test_loss_csv_is_the_same_for_any_blas_count(self, tmp_path, monkeypatch,
                                                      blas_threads):
        get, set_ = blas_threads
        log = ProcessLog(tmp_path / "counts.jsonl")
        real = train_module.mae_forward

        def forward(spec, cfg, params, seed):
            log.add(get())
            return real(spec, cfg, params, seed=seed)

        monkeypatch.setattr(train_module, "mae_forward", forward)
        csvs = []
        for count in (1, 2):
            set_(count)
            loss_csv = tmp_path / f"loss{count}.csv"
            # All 8 sharded steps: unpinned, two BLAS threads round step 7's
            # loss differently from one.
            train(pipeline_specs(16), pipeline_config(), pipeline_train_config(),
                  loss_csv=loss_csv)
            assert get() == count
            csvs.append(loss_csv.read_bytes())
        counts_inside = log.read()
        assert len(counts_inside) == 2 * 8 * 2 and {c for _, c in counts_inside} == {1}
        assert len({pid for pid, _ in counts_inside}) == 3  # here and two workers
        assert csvs[0] == csvs[1]

    def test_count_restored_after_divergence(self, blas_threads):
        get, set_ = blas_threads
        set_(2)
        specs = toy_spectrograms(8, seed=6)
        specs[3] = np.full_like(specs[3], np.nan)
        with pytest.raises(TrainingDivergedError, match="step 0"):
            train(specs, tiny_config(), toy_train_config(), max_steps=2)
        assert get() == 2

    @pytest.mark.parametrize("library", ["missing", "without hooks"])
    def test_no_op_without_the_hooks(self, monkeypatch, library):
        def cdll(name):
            if library == "missing":
                raise OSError("no such library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        hooks = runtime._blas_thread_hooks.__wrapped__()
        assert hooks is None
        monkeypatch.setattr(runtime, "_blas_thread_hooks", lambda: hooks)
        result = train(toy_spectrograms(8, seed=6), tiny_config(), toy_train_config(),
                       max_steps=1)
        assert np.isfinite(result.losses).all()
