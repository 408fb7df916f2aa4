"""Downstream evaluation: clip embeddings, a shallow MLP probe, and the
min-max-normalized overall score for comparing models across tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .audio import AudioClip, SAMPLE_RATE, crop_or_pad, logmel, standardize
from .errors import ContractError
from .model import MaeConfig, MaeParams, encode_all, patchify
from .tensor import Layout, Tensor, glorot, no_grad
from .train import OptimizerState, TrainConfig, adamw_step

CHUNK_SECONDS = 2.0

PROBE_HIDDEN = 1024
PROBE_DROPOUT = 0.25
PROBE_LR = 1e-4
PROBE_BETAS = (0.9, 0.95)
PROBE_MAX_EPOCHS = 500
PROBE_PATIENCE = 20
PROBE_BATCH = 1024


def scene_embedding(clip: AudioClip, cfg: MaeConfig, params: MaeParams) -> np.ndarray:
    """Fixed-length clip vector from the frozen encoder.

    The clip is split into non-overlapping 2 s chunks (final partial chunk
    zero-padded). Each chunk goes through logmel -> per-instance
    standardization -> full-visibility encoding; token sequences are
    concatenated in time and averaged into one enc_width vector.
    """
    chunk_len = int(CHUNK_SECONDS * SAMPLE_RATE)
    samples = clip.samples
    # Full chunks are views of the samples; only a partial last one is copied.
    chunks = [samples[at:at + chunk_len] for at in range(0, len(samples), chunk_len)]
    if len(chunks[-1]) < chunk_len:
        chunks[-1] = np.pad(chunks[-1], (0, chunk_len - len(chunks[-1])))

    token_blocks = []
    with no_grad():
        for piece in chunks:
            chunk = AudioClip(piece)
            # truncate, then zero-pad: a spec no longer than input_t is never cropped
            spec = crop_or_pad(standardize(logmel(chunk))[:cfg.input_t], cfg.input_t, seed=0)
            patches = patchify(spec, cfg.patch_t, cfg.patch_f)
            tokens = encode_all(patches, cfg, params)
            token_blocks.append(tokens.data)
    stacked = np.concatenate(token_blocks, axis=0)
    return stacked.mean(axis=0)


@dataclass
class ProbeResult:
    metric_name: str
    test_metric: float
    val_metric: float
    best_epoch: int
    epochs_ran: int


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def _average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """AP for one label column with a positive: mean precision at each hit."""
    order = np.argsort(-scores, kind="stable")
    hits = positives[order].astype(np.float64)
    cum = np.cumsum(hits)
    precision = cum / np.arange(1, len(hits) + 1)
    return float((precision * hits).sum() / hits.sum())


def _mean_average_precision(scores: np.ndarray, targets: np.ndarray) -> float:
    aps = [
        _average_precision(scores[:, c], targets[:, c])
        for c in range(targets.shape[1])
        if targets[:, c].sum() > 0
    ]
    if not aps:
        raise ContractError("no label column has a positive example")
    return float(np.mean(aps))


def _probe_forward(p: dict[str, Tensor], x: np.ndarray, drop_seed: int | None) -> Tensor:
    h = T.gelu(T.linear(Tensor(x), p["w1"], p["b1"]))
    if drop_seed is not None:
        h = T.dropout(h, PROBE_DROPOUT, drop_seed)
    return T.linear(h, p["w2"], p["b2"])


def train_probe(
    features: np.ndarray,
    labels: np.ndarray,
    splits: np.ndarray,
    seed: int = 0,
) -> ProbeResult:
    """Train the shallow MLP probe on frozen features.

    One hidden layer of 1024 GELU units with dropout 0.25, Adam at a fixed
    learning rate, early stopping on the validation metric with patience 20.
    `splits` holds 'train'/'valid'/'test' per row. 2-D `labels` are a binary
    multilabel matrix, scored by mean average precision; 1-D labels are
    class labels, scored by accuracy.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    splits = np.asarray(splits)
    for name in ("train", "valid", "test"):
        if not np.any(splits == name):
            raise ContractError(f"split {name!r} is empty")
    tr, va, te = (splits == "train"), (splits == "valid"), (splits == "test")

    multilabel = labels.ndim == 2
    if multilabel:
        n_out = labels.shape[1]
        y_train = labels[tr].astype(np.float64)
    else:
        classes = np.unique(labels)
        if len(classes) < 2:
            raise ContractError(f"need >= 2 classes, got {len(classes)}")
        n_out = len(classes)
        remap = {c: i for i, c in enumerate(classes)}
        labels = np.array([remap[c] for c in labels])
        y_train = np.eye(n_out)[labels[tr]]

    x_train = features[tr]
    rng = np.random.default_rng(seed)
    layout = Layout({"w1": (features.shape[1], PROBE_HIDDEN), "b1": (PROBE_HIDDEN,),
                     "w2": (PROBE_HIDDEN, n_out), "b2": (n_out,)})
    state = OptimizerState.init(np.zeros(layout.size), layout)
    p = layout.leaves(state.params)
    glorot(rng, p["w1"])
    glorot(rng, p["w2"])
    grad_buf = state.bind_grads(p)
    grads = {k: t.grad for k, t in p.items()}
    adam_cfg = TrainConfig(weight_decay=0.0, betas=PROBE_BETAS)

    def metric(x: np.ndarray, mask: np.ndarray) -> float:
        logits = _probe_forward(p, x, drop_seed=None).data
        if multilabel:
            scores = 1.0 / (1.0 + np.exp(-logits))
            return _mean_average_precision(scores, labels[mask])
        return _accuracy(logits, labels[mask])

    best_val = -np.inf
    best_epoch = 0
    best = state.params.copy()
    n_train = len(x_train)
    epoch = 0
    for epoch in range(1, PROBE_MAX_EPOCHS + 1):
        order = rng.permutation(n_train)
        for start in range(0, n_train, PROBE_BATCH):
            idx = order[start:start + PROBE_BATCH]
            logits = _probe_forward(p, x_train[idx], drop_seed=int(rng.integers(2**31)))
            targets = Tensor(y_train[idx])
            if multilabel:
                # mean over elements of softplus(z) - z*y (stable BCE with logits)
                loss = (T.softplus(logits) - logits * targets).mean()
            else:
                logp = T.log_softmax_lastdim(logits)
                loss = T.scale((logp * targets).sum(), -1.0 / len(idx))
            grad_buf.fill(0.0)
            loss.backward()
            adamw_step(p, grads, state, PROBE_LR, adam_cfg)

        val = metric(features[va], va)
        if val > best_val:
            best_val = val
            best_epoch = epoch
            best = state.params.copy()
        elif epoch - best_epoch >= PROBE_PATIENCE:
            break

    state.params[...] = best
    return ProbeResult(
        metric_name="mAP" if multilabel else "accuracy",
        test_metric=metric(features[te], te),
        val_metric=best_val,
        best_epoch=best_epoch,
        epochs_ran=epoch,
    )


@dataclass
class TaskScoreTable:
    """Per-model, per-task metric matrix."""

    models: list[str]
    tasks: list[str]
    scores: np.ndarray  # (n_models, n_tasks)
    higher_is_better: list[bool] = field(default_factory=list)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.models), len(self.tasks)):
            raise ContractError(
                f"scores shape {self.scores.shape} != "
                f"({len(self.models)}, {len(self.tasks)})"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ContractError("scores must be finite (no missing cells)")
        if not self.higher_is_better:
            self.higher_is_better = [True] * len(self.tasks)
        if len(self.higher_is_better) != len(self.tasks):
            raise ContractError(f"{len(self.higher_is_better)} higher_is_better flags "
                                f"for {len(self.tasks)} tasks")


def overall_score(table: TaskScoreTable, model: str) -> float:
    """Min-max-normalized mean over tasks, in [0, 100].

    Each task contributes 100 * (x - worst) / (best - worst); a task where
    every model ties contributes 100 (everyone matches the best).
    """
    if not table.models or not table.tasks:
        raise ContractError("empty score table")
    if model not in table.models:
        raise ContractError(f"unknown model {model!r}; the table has {table.models}")
    mi = table.models.index(model)
    parts = []
    for ti in range(len(table.tasks)):
        col = table.scores[:, ti]
        worst, best = (col.min(), col.max()) if table.higher_is_better[ti] else (col.max(), col.min())
        if best == worst:
            parts.append(100.0)
        else:
            parts.append(100.0 * (table.scores[mi, ti] - worst) / (best - worst))
    return float(np.mean(parts))
