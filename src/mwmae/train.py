"""AdamW training loop with linear warmup and cosine decay.

The learning rate actually applied scales with batch size
(base_lr * batch/256), ramps linearly from zero over the warmup epochs,
then follows a cosine down to min_lr. Weight decay is decoupled and skips
layer-norm parameters and the mask token.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .container import naming, write_text
from .errors import ContractError, TrainingDivergedError
from .model import MaeConfig, MaeParams, check_field, mae_forward, save_checkpoint
from .runtime import thread_pair
from .tensor import Layout, Tensor, scale


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 1.5e-5
    batch_size: int = 1024
    warmup_epochs: int = 10
    total_epochs: int = 100
    weight_decay: float = 0.05
    betas: tuple[float, float] = (0.9, 0.999)
    min_lr: float = 0.0
    seed: int = 0
    ckpt_every_epochs: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        """Each field is a finite number of its default's type, >= 1 for
        `batch_size` and `total_epochs` and >= 0 otherwise; each beta lies
        in [0, 1), since a beta of 1 zeroes AdamW's bias correction."""
        for f in fields(self):
            if f.name != "betas":
                low = 1 if f.name in ("batch_size", "total_epochs") else 0
                check_field(f.name, getattr(self, f.name), f.default, low)
        if not (isinstance(self.betas, (list, tuple)) and len(self.betas) == 2):
            raise ContractError(f"field 'betas' must be two numbers, got {self.betas!r}")
        for b in self.betas:
            check_field("betas", b, 0.0, 0)
            if b >= 1.0:
                raise ContractError(
                    f"field 'betas' must be two numbers in [0, 1), got {self.betas!r}")
        object.__setattr__(self, "betas", tuple(self.betas))
        if not self.warmup_epochs < self.total_epochs:
            raise ContractError(
                f"warmup_epochs={self.warmup_epochs} must be < "
                f"total_epochs={self.total_epochs}"
            )


def effective_lr(base_lr: float, batch_size: int) -> float:
    """Scale the base rate linearly with batch size, anchored at 256."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    return base_lr * batch_size / 256.0


def lr_at(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at a global step: linear ramp, then cosine to min_lr."""
    if step < 0:
        raise ContractError(f"step must be >= 0, got {step}")
    eff = effective_lr(cfg.base_lr, cfg.batch_size)
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    total_steps = cfg.total_epochs * steps_per_epoch
    if step < warmup_steps:
        return eff * step / warmup_steps
    if step >= total_steps:
        return cfg.min_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return cfg.min_lr + (eff - cfg.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """Parameters and first/second moments as one flat buffer each.

    `init` adopts the parameters' buffer as `params`, which their leaves
    view (`Layout.leaves`); `spans` maps each name to its (start, stop)
    slice. `scratch` holds two more rows of that length that `adamw_step`
    works in, so a step allocates no parameter-sized arrays.

    `adamw_step` writes `params` in place, and `backward()` adds into the
    views that `bind_grads` makes, so nothing may rebind a bound leaf's
    `.data` or `.grad` between `init` and the last step.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    spans: dict[str, tuple[int, int]]
    scratch: np.ndarray
    step: int = 0

    @staticmethod
    def init(params: np.ndarray, layout: Layout) -> "OptimizerState":
        """State over `params`, a buffer in `layout`: the buffer itself, not a copy."""
        n = layout.size
        if params.shape != (n,):
            raise ContractError(f"a buffer of shape {params.shape} for a layout of {n} values")
        return OptimizerState(params=params, m=np.zeros(n), v=np.zeros(n), spans=layout.spans,
                              scratch=np.zeros((2, n)))

    def bind_grads(self, params: dict[str, Tensor]) -> np.ndarray:
        """A zeroed gradient buffer with each leaf's `.grad` bound to its
        view, so `backward()` accumulates into the buffer in place."""
        buf = np.zeros(len(self.params))
        for k, t in params.items():
            start, stop = self.spans[k]
            t.grad = buf[start:stop].reshape(t.shape)
        return buf


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    cfg: TrainConfig,
    no_decay: frozenset[str] | set[str] = frozenset(),
    eps: float = 1e-8,
) -> None:
    """One AdamW update in place: decoupled decay first, then the Adam step.

    The update runs once over a flat copy of the gradients and over
    `state.params`, which `params`' leaves view (`Layout.leaves`),
    with the float ops of a per-tensor loop, so every parameter ends up
    bit-identical to that loop. Decay multiplies each element by
    1 - lr*weight_decay, except in `no_decay` tensors, which keep their
    values as a factor of exactly 1.0 would. A non-finite gradient raises
    before any parameter, moment or the step count changes.
    """
    if list(params) != list(state.spans):
        raise ContractError("parameter names differ from the optimizer state's")
    g, upd = state.scratch
    np.concatenate([grads[k].ravel() for k in params], out=g)
    if not np.isfinite(g).all():
        for name in params:
            if not np.isfinite(grads[name]).all():
                raise TrainingDivergedError(f"non-finite gradient for {name!r}")
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    m, v = state.m, state.v
    # The per-tensor loop's elementwise ops, in place on the two scratch
    # rows. Multiplication commutes exactly, so g*(1-b2) rounds as
    # (1-b2)*g and (m/bias1)*lr as lr*(m/bias1).
    np.multiply(g, 1.0 - b1, out=upd)
    m *= b1
    m += upd
    np.multiply(g, 1.0 - b2, out=upd)
    upd *= g
    v *= b2
    v += upd
    np.divide(m, bias1, out=upd)
    upd *= lr
    denom = g  # the gradients are not needed any more
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    upd /= denom
    flat = state.params
    if cfg.weight_decay != 0.0:
        decayed = np.repeat([k not in no_decay for k in params],
                            [stop - start for start, stop in state.spans.values()])
        np.multiply(flat, 1.0 - lr * cfg.weight_decay, out=flat, where=decayed)
    flat -= upd


class SpectrogramDataset:
    """Fixed, already-standardized spectrograms (list of T x F arrays)."""

    def __init__(self, specs):
        self.specs = [np.asarray(s, dtype=np.float64) for s in specs]
        if not self.specs:
            raise ContractError("dataset is empty")

    def __len__(self):
        return len(self.specs)

    def spec(self, index: int, epoch: int) -> np.ndarray:
        return self.specs[index]


class WavSpecDataset:
    """WAV files turned into standardized log-mel crops.

    Full spectrograms are computed once and cached; the crop window is
    re-drawn every epoch from a seed mixing (seed, epoch, index), so runs
    stay reproducible while epochs see different segments. A clip shorter
    than one hop raises ContractError naming its file.
    """

    def __init__(self, wav_dir: str | Path, input_t: int, seed: int = 0):
        from .audio import crop_or_pad, load_wav, logmel, standardize, wav_paths

        self._crop = crop_or_pad
        self.input_t = input_t
        self.seed = seed
        self.paths = wav_paths(wav_dir)
        self.full_specs = []
        for p in self.paths:
            clip = load_wav(p)
            with naming(p):  # a clip shorter than one hop
                self.full_specs.append(standardize(logmel(clip)))

    def __len__(self):
        return len(self.paths)

    def spec(self, index: int, epoch: int) -> np.ndarray:
        crop_seed = int(
            np.random.SeedSequence([self.seed, epoch, index]).generate_state(1)[0]
        )
        return self._crop(self.full_specs[index], self.input_t, crop_seed)


# A step is split into two shards when one shard's attention scores, shard
# size x n_p x the sum of the decoder windows, reach this many elements.
# Below it the graphs are small and their Python-side work holds the GIL,
# so a second thread only adds contention. Median step times, one graph
# against two shards (batch 8, decoder d_k 2, one BLAS thread, 2 cores):
# 16 patches (2.9k scores) 6.3 against 10.3 ms; 100 patches (126k) 27
# against 37 ms; 150 (313k) 53 against 52 ms; 200 (531k) 78 against
# 60 ms; 250 (717k) 89 against 60 ms. The crossover lies between 313k
# and 531k.
SHARD_MIN_SCORES = 400_000


def _shard_bounds(batch: int, cfg: MaeConfig) -> list[tuple[int, int]]:
    """The examples of each shard: the first ceil(batch/2), then the rest;
    or the whole batch as one shard when it is too small to split."""
    half = -(-batch // 2)
    if batch < 2 or half * cfg.n_p * sum(cfg.dec_schedule.windows) < SHARD_MIN_SCORES:
        return [(0, batch)]
    return [(0, half), (half, batch)]


def _mask_seed(train_seed: int, step: int, position: int) -> int:
    return int(np.random.SeedSequence([train_seed, step, position]).generate_state(1)[0])


@dataclass
class TrainResult:
    params: MaeParams
    losses: np.ndarray
    lrs: np.ndarray


def train(
    dataset,
    mae_cfg: MaeConfig,
    train_cfg: TrainConfig,
    out_ckpt: str | Path | None = None,
    loss_csv: str | Path | None = None,
    max_steps: int | None = None,
    params: MaeParams | None = None,
    log_every: int = 0,
) -> TrainResult:
    """Run the optimization loop; per-step losses go to `loss_csv` if given.

    `dataset` needs __len__ and spec(index, epoch) -> T x F array (a plain
    list-like of arrays works via SpectrogramDataset).

    The loop's position is the global `step`; each epoch starts with one
    permutation drawn from a generator seeded with `train_cfg.seed`.

    A large enough minibatch is split into two fixed shards (see
    `_shard_bounds`), each with its own graph against its own replica of
    the parameter leaves, run on the one `thread_pair()` the call enters.
    Their gradients are summed in shard order before the one AdamW step, so
    the numbers do not depend on which thread or core runs a shard. Inside
    it BLAS runs on one thread, so they do not depend on the caller's BLAS
    thread count either. The loss CSV is written on every exit, with the
    rows of the steps that finished.
    """
    if max_steps is not None:
        check_field("max_steps", max_steps, 1, 1)
    if not hasattr(dataset, "spec"):
        dataset = SpectrogramDataset(dataset)
    n = len(dataset)
    if n == 0:
        raise ContractError("dataset is empty")
    batch = min(train_cfg.batch_size, n)
    steps_per_epoch = max(1, n // batch)
    total_steps = train_cfg.total_epochs * steps_per_epoch
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)
    ckpt_every = train_cfg.ckpt_every_epochs * steps_per_epoch  # in steps; 0 = never

    with thread_pair() as run:
        if params is None:
            params = MaeParams.init(mae_cfg)
        named = params.named()
        no_decay = params.no_decay_names()
        shards = _shard_bounds(batch, mae_cfg)
        state = OptimizerState.init(params.flat, MaeParams.layout(mae_cfg))
        # Replicas view the same buffer; each shard's graph backpropagates
        # into its own gradient buffer.
        shard_params = [params] + [params.replica() for _ in shards[1:]]
        grad_bufs = [state.bind_grads(p.named()) for p in shard_params]
        grads = {k: t.grad for k, t in named.items()}
        order_rng = np.random.default_rng(train_cfg.seed)

        losses = np.zeros(total_steps)
        lrs = np.zeros(total_steps)
        csv_rows = ["step,epoch,lr,loss"]

        def checkpoint(steps_done: int) -> None:
            try:
                save_checkpoint(out_ckpt, mae_cfg, params)
            except ContractError as e:  # a weight beyond float32; the old file stays
                raise TrainingDivergedError(f"weights left float32 range by step {steps_done} "
                                            f"({e}); last checkpoint retained") from None

        try:
            for step in range(total_steps):
                epoch, b = divmod(step, steps_per_epoch)
                if b == 0:
                    order = order_rng.permutation(n)
                idx = order[b * batch:(b + 1) * batch]
                for buf in grad_bufs:
                    buf.fill(0.0)
                specs = np.stack([dataset.spec(int(i), epoch) for i in idx])
                seeds = [_mask_seed(train_cfg.seed, step, j) for j in range(len(idx))]

                def shard(k: int) -> float:
                    # Forward and, if the loss is finite, backward. The loss is
                    # weighted by the shard's share of the batch, so the shards'
                    # leaf gradients sum to the whole batch's mean-loss gradient.
                    lo, hi = shards[k]
                    loss = mae_forward(specs[lo:hi], mae_cfg, shard_params[k],
                                       seed=seeds[lo:hi]).loss
                    if len(shards) > 1:
                        loss = scale(loss, (hi - lo) / len(idx))
                    value = loss.item()
                    if math.isfinite(value):
                        loss.backward()
                    return value

                mean_loss = sum(run(shard, range(len(shards))))
                if not math.isfinite(mean_loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at step {step}; last checkpoint retained"
                    )
                for buf in grad_bufs[1:]:
                    grad_bufs[0] += buf
                lr = lr_at(step, steps_per_epoch, train_cfg)
                adamw_step(named, grads, state, lr, train_cfg, no_decay=no_decay)

                losses[step] = mean_loss
                lrs[step] = lr
                csv_rows.append(f"{step},{epoch},{lr!r},{mean_loss!r}")
                if log_every and step % log_every == 0:
                    print(f"step {step:6d} epoch {epoch:4d} lr {lr:.3e} "
                          f"loss {mean_loss:.6f}", file=sys.stderr)
                # An epoch-end checkpoint, unless the final one follows.
                if (out_ckpt is not None and ckpt_every and (step + 1) % ckpt_every == 0
                        and step + 1 < total_steps):
                    checkpoint(step + 1)
            if out_ckpt is not None:
                checkpoint(total_steps)
        finally:
            if loss_csv is not None:
                write_text(loss_csv, "\n".join(csv_rows) + "\n")
    return TrainResult(params=params, losses=losses, lrs=lrs)
