"""Attention-head diagnostics: entropy, spatial reach, and feature similarity.

Entropy and mean attention distance summarize where a head puts its
probability mass; projection-weighted CCA compares what two heads compute.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .attention import HeadTap
from .errors import ContractError, DegenerateInputError
from .model import (
    MaeConfig,
    MaeParams,
    encode,
    patchify,
    random_mask,
    tap_decoder,
    tap_encoder,
)
from .runtime import thread_pair
from .tensor import no_grad

# Singular values at or below this fraction of the largest count as rank-deficient.
RANK_RTOL = 1e-10

# `collect_stack` and `pwcca_matrix` run on two threads (`thread_pair`)
# when the tapped stack is at least this wide (d_m, the sum of its heads'
# widths). Narrower stacks run on the calling thread: their numpy calls are
# small, the Python around them holds the GIL, and a second thread only
# adds contention. Median ms of `collect_stack` plus `pwcca_matrix`,
# serial / pooled (8 heads over 250 patches, depth 2, one BLAS thread,
# 2 cores); the crossover lies between widths 128 and 160:
#   width       16      64       128      160      192      384
#   16 clips    79/84   130/129  211/216  341/246  389/293  1157/709
#   8 clips     -       76/80    120/118  139/126  229/158  -
#   4 clips     24/30   -        79/65    100/75   157/106  342/243
POOL_MIN_WIDTH = 160


def _map(fn, items, width: int) -> list:
    """`[fn(x) for x in items]`, on a `thread_pair()` for a stack of `width`
    at least `POOL_MIN_WIDTH`, else on the calling thread."""
    if width < POOL_MIN_WIDTH:
        return list(map(fn, items))
    with thread_pair() as run:
        return run(fn, items)


@dataclass
class AttnRecord:
    """Attention probabilities for one head, one array per example: (n, n),
    or the (..., n/win, win, win) window layout `win_attention` taps."""

    layer: int
    head: int
    probs: list[np.ndarray]

    def __post_init__(self):
        for p in self.probs:
            if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
                raise ContractError(f"attention windows must be square, got {p.shape}")
            if np.any(p < -1e-12):
                raise ContractError("attention probabilities must be non-negative")
            rows = p.sum(axis=-1)
            if np.any(np.abs(rows - 1.0) > 1e-6):
                raise ContractError("attention rows must sum to 1")


@dataclass(frozen=True)
class PatchGrid:
    """Integer (time, frequency) coordinates for flattened patch indices."""

    grid_t: int
    grid_f: int

    @property
    def n_p(self) -> int:
        return self.grid_t * self.grid_f

    def positions(self) -> np.ndarray:
        idx = np.arange(self.n_p)
        return np.stack([idx // self.grid_f, idx % self.grid_f], axis=1).astype(np.float64)

    def distances(self, win: int) -> np.ndarray:
        """Euclidean distances between the patches of each window of `win`
        consecutive patches, (n_p/win, win, win); `win = n_p` gives the
        full table as (1, n_p, n_p). Windows may wrap across grid rows."""
        pos = self.positions().reshape(-1, win, 2)
        return np.linalg.norm(pos[:, :, None, :] - pos[:, None, :, :], axis=-1)


def attention_entropy(rec: AttnRecord) -> float:
    """Mean Shannon entropy of attention rows (nats), averaged over examples.

    Higher means more global attention; 0 * ln 0 counts as 0.
    """
    per_example = []
    for p in rec.probs:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, -p * np.log(p), 0.0)
        per_example.append(terms.sum(axis=-1).mean())
    return float(np.mean(per_example))


def mean_attention_distance(rec: AttnRecord, grid: PatchGrid) -> float:
    """Attention-weighted Euclidean distance on the patch grid, in patch units.

    The window size is P's last axis; distances come in P's window layout.
    """
    per_example, dist = [], None
    for p in rec.probs:
        *_, m, win, _ = (1, *p.shape)  # an (n, n) P is one window of n
        if m * win != grid.n_p:
            raise ContractError(
                f"attention is {m * win} tokens but grid has {grid.n_p} patches"
            )
        if dist is None or dist.shape[-1] != win:
            dist = grid.distances(win)
        per_example.append((p * dist).sum(axis=-1).mean())
    return float(np.mean(per_example))


@dataclass(frozen=True)
class Whitened:
    """A feature matrix centred and whitened once, for reuse across PWCCA pairs.

    `u` holds the r leading left singular vectors of the centred matrix
    (n x r) and `proj = s[:r, None] * vt[:r]` (r x d), which equals
    `u.T @ centred` up to rounding. Records from `whiten_heads` also carry
    `gram`, the Gram matrix of the array their `u`s are column blocks of,
    and their own columns `cols` in it.
    """

    u: np.ndarray
    proj: np.ndarray
    gram: np.ndarray | None = field(default=None, repr=False)
    cols: slice | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0], self.proj.shape[1]


def whiten(x: np.ndarray) -> Whitened:
    """Centre the columns of x and whiten them through one SVD.

    Singular values at or below `RANK_RTOL` times the largest are dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"features must be 2-D (rows, dims), got shape {x.shape}")
    if x.shape[0] <= x.shape[1]:
        raise ContractError(f"need more rows than columns: {x.shape}")
    xc = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(xc, full_matrices=False)
    r = int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0
    if r == 0:
        raise DegenerateInputError("rank-0 input after centering")
    return Whitened(u=u[:, :r], proj=s[:r, None] * vt[:r])


def pwcca(x: np.ndarray | Whitened, y: np.ndarray | Whitened) -> float:
    """Projection-weighted canonical correlation between two feature matrices.

    Rows are datapoints, columns are feature dims. Columns are centered, each
    matrix is whitened through its own SVD (rank-truncated at a relative
    singular-value threshold), canonical correlations come from the SVD of
    the whitened cross-covariance, and each correlation is weighted by how
    much of X projects onto its canonical direction.

    Either argument may be a `Whitened` record from `whiten`, which skips
    its SVD. Two records from one `whiten_heads` call read their cross
    product from its shared Gram.
    """
    x, y = (m if isinstance(m, Whitened) else np.asarray(m, dtype=np.float64)
            for m in (x, y))
    if x.shape[0] != y.shape[0]:
        raise ContractError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] <= max(x.shape[1], y.shape[1]):
        raise ContractError(
            f"need more rows than columns: {x.shape} vs {y.shape}"
        )
    wx, wy = (m if isinstance(m, Whitened) else whiten(m) for m in (x, y))

    if wx.gram is not None and wx.gram is wy.gram:
        cross = wx.gram[wx.cols, wy.cols]
    else:
        cross = wx.u.T @ wy.u
    a, rho, _ = np.linalg.svd(cross)
    k = min(wx.u.shape[1], wy.u.shape[1])
    rho = np.clip(rho[:k], 0.0, 1.0)

    # Canonical directions in X-space are u_x @ a; weight each by
    # |projection of X| onto it, which is |a.T @ u_x.T @ xc| = |a.T @ proj|.
    weights = np.abs(a[:, :k].T @ wx.proj).sum(axis=1)
    total = weights.sum()
    if total <= 0:
        raise DegenerateInputError("zero projection weights")
    weights = weights / total
    return float(np.sum(weights * rho))


@dataclass
class StackRecords:
    """Collected attention and features for every head of one stack."""

    n_layers: int
    n_heads: int
    taps: list[list[HeadTap]]  # [example][layer]
    n_tokens: int

    def record(self, layer: int, head: int) -> AttnRecord:
        if not self.taps[0][layer].probs:
            raise ContractError("records were collected without attention probabilities")
        probs = [ex[layer].probs[head] for ex in self.taps]
        return AttnRecord(layer=layer, head=head, probs=probs)

    def features(self, layer: int, head: int) -> np.ndarray:
        """One head's outputs stacked over examples: (n_examples * n, d_k)."""
        return np.concatenate([ex[layer].head_out[head] for ex in self.taps], axis=0)

    def heads(self) -> list[tuple[int, int]]:
        """Every (layer, head), layer-major: the order of `labels`."""
        return [(layer, head) for layer in range(self.n_layers) for head in range(self.n_heads)]

    def labels(self) -> list[str]:
        return [f"L{layer}.H{head}" for layer, head in self.heads()]

    def whiten_heads(self) -> list[Whitened]:
        """Whiten every head's features, in `heads()` order, into its own
        column block of one (rows, sum of ranks) array, then take that
        array's Gram once.

        Features are built one head at a time and each record's `u` is a
        view into the shared array, so no second copy is kept.
        """
        rows, heads = len(self.taps) * self.n_tokens, self.heads()
        basis = np.empty((rows, sum(
            self.taps[0][layer].head_out[head].shape[1] for layer, head in heads)))
        blocks, at = [], 0
        for key in heads:
            w = whiten(self.features(*key))
            if w.u.shape[0] != rows:
                raise ContractError(f"head {key} has {w.u.shape[0]} rows, expected {rows}")
            cols = slice(at, at + w.u.shape[1])
            basis[:, cols] = w.u
            blocks.append((cols, w.proj))
            at = cols.stop
        basis = basis[:, :at]
        gram = basis.T @ basis
        return [Whitened(u=basis[:, cols], proj=proj, gram=gram, cols=cols)
                for cols, proj in blocks]


def collect_stack(
    cfg: MaeConfig,
    params: MaeParams,
    specs: list[np.ndarray],
    stack: str = "encoder",
    probs: bool = True,
) -> StackRecords:
    """Run the model over specs and capture per-head outputs and, with
    `probs`, attention probabilities.

    Each stack runs only up to its last block's attention. The encoder is
    analyzed with full visibility. The decoder needs a mask to build its
    input; a fixed per-example seed keeps results deterministic for a given
    checkpoint and dataset. Examples are tapped one per task of `_map`,
    and come back in `specs` order.
    """
    if not specs:
        raise ContractError("empty dataset")
    if stack not in ("encoder", "decoder"):
        raise ContractError(f"stack must be 'encoder' or 'decoder', got {stack!r}")
    if stack == "encoder":
        depth, n_heads, width = cfg.enc_depth, cfg.enc_heads, cfg.enc_width
    else:
        depth, n_heads, width = cfg.dec_depth, cfg.dec_heads, cfg.dec_width

    def tap(i: int) -> list[HeadTap]:
        patches = patchify(specs[i], cfg.patch_t, cfg.patch_f)
        ex_taps = [HeadTap(keep_probs=probs) for _ in range(depth)]
        with no_grad():  # per thread: a pool thread enters it itself
            if stack == "encoder":
                tap_encoder(patches, cfg, params, ex_taps)
            else:
                mask = random_mask(cfg.n_p, cfg.mask_ratio, seed=i)
                tap_decoder(encode(patches, mask, cfg, params), mask, cfg, params, ex_taps)
        return ex_taps

    taps = _map(tap, range(len(specs)), width)
    return StackRecords(depth, n_heads, taps, cfg.n_p)


def head_table(
    records: StackRecords, metric: Callable[[AttnRecord], float]
) -> list[tuple[int, int, float]]:
    """(layer, head, metric of that head's AttnRecord) for every head, in
    `heads()` order."""
    return [(layer, head, metric(records.record(layer, head)))
            for layer, head in records.heads()]


def window_correlation_summary(
    records: StackRecords, windows: tuple[int, ...], n_tokens: int
) -> tuple[float, float]:
    """Compare cross-layer feature similarity of same-window heads vs globals.

    Returns (same_window, local_vs_global): the mean symmetrized PWCCA between
    heads that share a local window size in different layers, and between
    those local heads and the global heads. A decoupled hierarchy shows
    same_window > local_vs_global. Every pair is read from `pwcca_matrix`,
    the matrix `analyze pwcca` writes. A head is global when its window is
    `n_tokens`, which must be the records' token count.
    """
    if len(windows) != records.n_heads:
        raise ContractError(f"{len(windows)} windows for {records.n_heads} heads")
    if n_tokens != records.n_tokens:
        raise ContractError(f"n_tokens={n_tokens}, but the records hold "
                            f"{records.n_tokens} tokens")
    local_heads = [h for h, w in enumerate(windows) if w != n_tokens]
    global_heads = [h for h, w in enumerate(windows) if w == n_tokens]
    if not local_heads or not global_heads:
        raise ContractError("need both local and global heads for the comparison")
    if records.n_layers < 2:
        raise ContractError(f"need at least two layers for the cross-layer "
                            f"comparison, got {records.n_layers}")
    matrix, _ = pwcca_matrix(records)

    def sym(a, b):
        i, j = (layer * records.n_heads + head for layer, head in (a, b))
        return 0.5 * (matrix[i, j] + matrix[j, i])

    same = [
        sym((l1, h), (l2, h))
        for h in local_heads
        for l1 in range(records.n_layers)
        for l2 in range(l1 + 1, records.n_layers)
    ]
    cross = [
        sym((l1, h), (l2, g))
        for h in local_heads
        for g in global_heads
        for l1 in range(records.n_layers)
        for l2 in range(records.n_layers)
    ]
    return float(np.mean(same)), float(np.mean(cross))


def pwcca_matrix(records: StackRecords) -> tuple[np.ndarray, list[str]]:
    """All-pairs PWCCA over (layer, head) features; entry [i, j] = pwcca(i, j).

    PWCCA is asymmetric, so the matrix is stored as computed; only the
    diagonal is guaranteed to be 1. Each head is whitened once into a shared
    array (`StackRecords.whiten_heads`), so the cost is H SVDs over all
    rows, one Gram of that array, and H^2 small k x k SVDs of its blocks.
    The whitening runs on the calling thread; the rows go one per task of
    `_map`, gated on the summed head widths.
    """
    feats = records.whiten_heads()

    def row(i: int) -> list[float]:
        return [pwcca(feats[i], f) for f in feats]

    width = sum(f.shape[1] for f in feats[:records.n_heads])  # one layer's d_m
    return np.array(_map(row, range(len(feats)), width)), records.labels()
