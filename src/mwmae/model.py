"""Masked autoencoder over log-mel spectrograms.

Asymmetric design: a standard-attention encoder sees only the visible
patches; a decoder with multi-window attention reconstructs every patch.
Pre-norm transformer blocks with a GELU MLP of expansion 4 throughout.
Positional tables are fixed sinusoids added before the visibility gather.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .attention import (
    AttentionParams,
    HeadTap,
    WindowSchedule,
    mha,
    mw_mha,
    window_schedule,
)
from .container import load_tensors, naming, read_json_object, save_tensors, write_text
from .errors import ContractError, DimensionError
from .tensor import Layout, Tensor, glorot

MLP_EXPANSION = 4


@dataclass(frozen=True)
class MaeConfig:
    """Model hyperparameters. Defaults follow the reference configuration."""

    input_t: int = 200
    input_f: int = 80
    patch_t: int = 4
    patch_f: int = 16
    enc_depth: int = 12
    enc_width: int = 768
    enc_heads: int = 12
    dec_depth: int = 4
    dec_width: int = 384
    mask_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        # Each field first: >= 1 but for these four (mask_ratio is below).
        for f in fields(self):
            low = 0 if f.name in ("seed", "enc_depth", "dec_depth", "mask_ratio") else 1
            check_field(f.name, getattr(self, f.name), f.default, low)
        if self.input_t % self.patch_t != 0:
            raise ContractError(f"patch_t={self.patch_t} does not divide input_t={self.input_t}")
        if self.input_f % self.patch_f != 0:
            raise ContractError(f"patch_f={self.patch_f} does not divide input_f={self.input_f}")
        masked_count(self.n_p, self.mask_ratio)
        for name in ("enc_width", "dec_width"):  # the sin/cos table pairs columns
            if getattr(self, name) % 2:
                raise ContractError(f"field {name!r} must be even, got {getattr(self, name)}")
        if self.enc_width % self.enc_heads != 0:
            raise ContractError(
                f"enc_heads={self.enc_heads} does not divide enc_width={self.enc_width}"
            )
        if self.dec_width % self.dec_heads != 0:
            raise ContractError(
                f"decoder width {self.dec_width} not divisible by the "
                f"{self.dec_heads} scheduled heads for n_p={self.n_p}"
            )

    @property
    def n_p(self) -> int:
        return (self.input_t // self.patch_t) * (self.input_f // self.patch_f)

    @property
    def patch_dim(self) -> int:
        return self.patch_t * self.patch_f

    @property
    def dec_schedule(self) -> WindowSchedule:
        return window_schedule(self.n_p)

    @property
    def dec_heads(self) -> int:
        return self.dec_schedule.n_heads

    @property
    def grid_t(self) -> int:
        return self.input_t // self.patch_t

    @property
    def grid_f(self) -> int:
        return self.input_f // self.patch_f


@dataclass(frozen=True)
class MaskSet:
    """Partition of patch indices into visible and masked, each sorted.

    Index arrays are (k,) for one example or (B, k) for a batch, one row per
    example (see `stack`). The decoder restores patch order from the two
    arrays alone (an argsort of visible + masked).
    """

    visible_idx: np.ndarray
    masked_idx: np.ndarray

    def __post_init__(self):
        combined = np.concatenate([self.visible_idx, self.masked_idx], axis=-1)
        n = combined.shape[-1]
        if not np.array_equal(np.sort(combined, axis=-1),
                              np.broadcast_to(np.arange(n), combined.shape)):
            raise ContractError("visible and masked indices must partition 0..n_p-1")

    @property
    def n_p(self) -> int:
        return self.visible_idx.shape[-1] + self.masked_idx.shape[-1]

    @staticmethod
    def stack(masks: list["MaskSet"]) -> "MaskSet":
        """One batched mask from per-example masks of equal sizes."""
        return MaskSet(
            visible_idx=np.stack([m.visible_idx for m in masks]),
            masked_idx=np.stack([m.masked_idx for m in masks]),
        )


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def masked_count(n_p: int, mask_ratio: float) -> int:
    """Patches masked of `n_p`; a ratio outside (0, 1), or one that leaves
    no visible or no masked patch, raises ContractError."""
    if not 0.0 < mask_ratio < 1.0:
        raise ContractError(f"mask_ratio must be in (0, 1), got {mask_ratio}")
    n_masked = round_half_up(mask_ratio * n_p)
    if n_masked < 1 or n_masked > n_p - 1:
        raise ContractError(
            f"mask_ratio={mask_ratio} leaves {n_masked} masked of {n_p} patches; "
            "need at least one visible and one masked"
        )
    return n_masked


def random_mask(n_p: int, mask_ratio: float, seed: int) -> MaskSet:
    """Seeded uniform permutation; the first n_p - n_masked entries stay visible."""
    n_masked = masked_count(n_p, mask_ratio)
    perm = np.random.default_rng(seed).permutation(n_p)
    n_vis = n_p - n_masked
    return MaskSet(visible_idx=np.sort(perm[:n_vis]), masked_idx=np.sort(perm[n_vis:]))


def patchify(spec: np.ndarray, patch_t: int, patch_f: int) -> np.ndarray:
    """Cut a T x F spectrogram into flattened non-overlapping patches.

    Patch order is time-major, frequency-minor; each patch is flattened
    row-major (time rows, frequency columns).
    """
    t, f = spec.shape
    if t % patch_t != 0 or f % patch_f != 0:
        raise DimensionError(
            f"patch size ({patch_t}x{patch_f}) does not divide input ({t}x{f})"
        )
    gt, gf = t // patch_t, f // patch_f
    tiles = spec.reshape(gt, patch_t, gf, patch_f).transpose(0, 2, 1, 3)
    return tiles.reshape(gt * gf, patch_t * patch_f)


def unpatchify(patches: np.ndarray, patch_t: int, patch_f: int, input_t: int, input_f: int) -> np.ndarray:
    gt, gf = input_t // patch_t, input_f // patch_f
    tiles = patches.reshape(gt, gf, patch_t, patch_f).transpose(0, 2, 1, 3)
    return tiles.reshape(input_t, input_f)


def sincos_pos_embed(n_p: int, width: int) -> np.ndarray:
    """Fixed 1-D sin/cos position table, shape (n_p, width)."""
    if width % 2 != 0:
        raise ContractError(f"positional width must be even, got {width}")
    pos = np.arange(n_p)[:, None]
    dim = np.arange(width // 2)[None, :]
    angle = pos / (10000.0 ** (2.0 * dim / width))
    table = np.zeros((n_p, width))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


@dataclass
class LayerNormParams:
    g: Tensor
    b: Tensor


@dataclass
class BlockParams:
    """One pre-norm transformer block: LN -> attention -> LN -> MLP."""

    ln1: LayerNormParams
    attn: AttentionParams
    ln2: LayerNormParams
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


def _run_blocks(
    x: Tensor,
    blocks: list[BlockParams],
    schedule: WindowSchedule | None,
    taps: list[HeadTap] | None = None,
) -> Tensor | None:
    """Pre-norm blocks in order: x + attn(LN(x)), then x + MLP(LN(x)).

    `schedule` None means standard attention. With `taps`, one HeadTap per
    block, the last block stops after its attention and nothing is returned:
    no later op reaches a tap.
    """
    if taps is not None and len(taps) != len(blocks):
        raise ContractError(f"{len(taps)} taps for {len(blocks)} blocks")
    for i, p in enumerate(blocks):
        tap = taps[i] if taps is not None else None
        h = T.layer_norm(x, p.ln1.g, p.ln1.b)
        if schedule is None:
            h = mha(h, p.attn, tap=tap)
        else:
            h = mw_mha(h, p.attn, schedule, tap=tap)
        if taps is not None and i == len(blocks) - 1:
            return None
        x = x + h
        h = T.layer_norm(x, p.ln2.g, p.ln2.b)
        h = T.gelu(T.linear(h, p.mlp_w1, p.mlp_b1))
        x = x + T.linear(h, p.mlp_w2, p.mlp_b2)
    return x


@dataclass
class MaeParams:
    """All trainable tensors plus the fixed positional tables.

    Every leaf is a view of one float64 buffer, `flat`, laid out by
    `layout(cfg)`: an update of `flat` in place reaches every leaf.
    """

    embed_w: Tensor
    embed_b: Tensor
    enc_blocks: list[BlockParams]
    enc_norm: LayerNormParams
    latent_w: Tensor
    latent_b: Tensor
    mask_token: Tensor
    dec_blocks: list[BlockParams]
    dec_norm: LayerNormParams
    head_w: Tensor
    head_b: Tensor
    enc_pos: np.ndarray = field(repr=False, default=None)
    dec_pos: np.ndarray = field(repr=False, default=None)
    cfg: MaeConfig = field(repr=False, default=None)
    flat: np.ndarray = field(repr=False, default=None)
    _named: dict[str, Tensor] = field(repr=False, default=None)

    @staticmethod
    def _tree(cfg: MaeConfig, take, **rest) -> "MaeParams":
        """The parameter tree with each leaf from `take(name, shape)`, called
        in `named()` order: the checkpoint's names and the buffer's order."""

        def norm(prefix: str, width: int) -> LayerNormParams:
            return LayerNormParams(take(f"{prefix}.g", (width,)), take(f"{prefix}.b", (width,)))

        def block(prefix: str, width: int, heads: int) -> BlockParams:
            ln1 = norm(f"{prefix}.ln1", width)
            qkv = [take(f"{prefix}.attn.w{c}{i}", (width, width // heads))
                   for i in range(heads) for c in "qkv"]
            attn = AttentionParams(qkv[0::3], qkv[1::3], qkv[2::3],
                                   take(f"{prefix}.attn.wo", (width, width)))
            hidden = MLP_EXPANSION * width
            return BlockParams(ln1, attn, norm(f"{prefix}.ln2", width),
                               take(f"{prefix}.mlp_w1", (width, hidden)),
                               take(f"{prefix}.mlp_b1", (hidden,)),
                               take(f"{prefix}.mlp_w2", (hidden, width)),
                               take(f"{prefix}.mlp_b2", (width,)))

        enc, dec, patch = cfg.enc_width, cfg.dec_width, cfg.patch_dim
        return MaeParams(
            embed_w=take("embed.w", (patch, enc)), embed_b=take("embed.b", (enc,)),
            enc_blocks=[block(f"enc.block{i}", enc, cfg.enc_heads) for i in range(cfg.enc_depth)],
            enc_norm=norm("enc.norm", enc),
            latent_w=take("latent.w", (enc, dec)), latent_b=take("latent.b", (dec,)),
            mask_token=take("mask_token", (dec,)),
            dec_blocks=[block(f"dec.block{i}", dec, cfg.dec_heads) for i in range(cfg.dec_depth)],
            dec_norm=norm("dec.norm", dec),
            head_w=take("head.w", (dec, patch)), head_b=take("head.b", (patch,)),
            cfg=cfg, **rest,
        )

    @staticmethod
    def layout(cfg: MaeConfig) -> Layout:
        """Every parameter's name, shape and span, from the config alone."""
        shapes = {}
        MaeParams._tree(cfg, lambda name, shape: shapes.setdefault(name, shape))
        return Layout(shapes)

    @staticmethod
    def over(cfg: MaeConfig, flat: np.ndarray, enc_pos=None, dec_pos=None) -> "MaeParams":
        """Fresh leaves over the spans of `flat`, a buffer in `layout(cfg)`.
        The positional tables are computed unless given."""
        named = MaeParams.layout(cfg).leaves(flat)
        if enc_pos is None:
            enc_pos = sincos_pos_embed(cfg.n_p, cfg.enc_width)
            dec_pos = sincos_pos_embed(cfg.n_p, cfg.dec_width)
        return MaeParams._tree(cfg, lambda name, shape: named[name], enc_pos=enc_pos,
                               dec_pos=dec_pos, flat=flat, _named=named)

    @staticmethod
    def init(cfg: MaeConfig) -> "MaeParams":
        """Unit norm gains, zero biases, and from one generator seeded with
        `cfg.seed`, Glorot weights and a N(0, 0.02) mask token, in block order."""
        params = MaeParams.over(cfg, np.zeros(MaeParams.layout(cfg).size))
        for name, t in params._named.items():
            if name.endswith(".g"):
                t.data[...] = 1.0
        rng = np.random.default_rng(cfg.seed)

        def draw(blocks: list[BlockParams]) -> None:
            for blk in blocks:
                blk.attn.draw(rng)
                glorot(rng, blk.mlp_w1)
                glorot(rng, blk.mlp_w2)

        glorot(rng, params.embed_w)
        draw(params.enc_blocks)
        glorot(rng, params.latent_w)
        params.mask_token.data[...] = rng.normal(0.0, 0.02, cfg.dec_width)
        draw(params.dec_blocks)
        glorot(rng, params.head_w)
        return params

    def named(self) -> dict[str, Tensor]:
        """Every leaf by checkpoint name, in the flat buffer's order."""
        return dict(self._named)

    def replica(self, flat: np.ndarray) -> "MaeParams":
        """The same parameters under fresh leaf Tensors over `flat`, a buffer
        in the same layout (`self.flat` itself, or a copy), for a second graph.

        Each leaf keeps its own `.grad`, so two graphs can backpropagate at
        once without writing to a common Tensor. An in-place update of the
        viewed buffer, as `adamw_step` makes, reaches every leaf over it.
        """
        return MaeParams.over(self.cfg, flat, self.enc_pos, self.dec_pos)

    def no_decay_names(self) -> set[str]:
        """Layer-norm gains/biases and the mask token are exempt from weight decay."""
        names = {"mask_token"}
        for name in self.named():
            if ".ln1." in name or ".ln2." in name or ".norm." in name:
                names.add(name)
        return names


@dataclass
class MaeOutput:
    pred_patches: np.ndarray
    loss: Tensor


def _gather_rows(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """numpy counterpart of `T.take_rows` for (k,) or per-example (B, k) indices."""
    if idx.ndim == 1:
        return x[idx]
    return np.take_along_axis(x, idx[..., None], axis=-2)


def _embed_visible(
    patches: np.ndarray, mask: MaskSet, cfg: MaeConfig, params: MaeParams
) -> Tensor:
    """The encoder's input: visible patches embedded, plus their positions."""
    vis = mask.visible_idx
    if patches.shape[-2:] != (cfg.n_p, cfg.patch_dim) or patches.ndim != vis.ndim + 1:
        raise DimensionError(
            f"expected patches {(cfg.n_p, cfg.patch_dim)} (batched: with a leading "
            f"batch dim and a batched mask), got {patches.shape}"
        )
    x = T.linear(Tensor(_gather_rows(patches, vis)), params.embed_w, params.embed_b)
    return x + Tensor(params.enc_pos[vis])


def encode(patches: np.ndarray, mask: MaskSet, cfg: MaeConfig, params: MaeParams) -> Tensor:
    """Keep the visible patches, embed them, add their positions, run encoder blocks.

    `patches` is (n_p, patch_dim) with a 1-D mask, or (B, n_p, patch_dim)
    with a batched mask (`MaskSet.stack`).
    """
    x = _run_blocks(_embed_visible(patches, mask, cfg, params), params.enc_blocks, None)
    return T.layer_norm(x, params.enc_norm.g, params.enc_norm.b)


def _all_visible(n_p: int) -> MaskSet:
    return MaskSet(visible_idx=np.arange(n_p), masked_idx=np.arange(0))


def encode_all(patches: np.ndarray, cfg: MaeConfig, params: MaeParams) -> Tensor:
    """Encoder over every patch (inference path: no masking)."""
    return encode(patches, _all_visible(cfg.n_p), cfg, params)


def _decoder_input(
    latent: Tensor, mask: MaskSet, cfg: MaeConfig, params: MaeParams
) -> Tensor:
    """Project the latent, fill masked slots with the mask token, restore
    patch order and add the decoder positions."""
    n_vis = mask.visible_idx.shape[-1]
    if latent.shape[-2:-1] != (n_vis,) or latent.data.ndim != mask.visible_idx.ndim + 1:
        raise ContractError(
            f"latent of shape {latent.shape} does not match a mask with "
            f"visible indices {mask.visible_idx.shape}"
        )
    if mask.n_p != cfg.n_p:
        raise ContractError(f"mask covers {mask.n_p} patches, config has {cfg.n_p}")
    y = T.linear(latent, params.latent_w, params.latent_b)
    lead = latent.shape[:-2]
    mask_rows = Tensor(np.zeros((*lead, mask.masked_idx.shape[-1], cfg.dec_width)))
    shuffled = T.concat([y, mask_rows + params.mask_token], axis=-2)
    restore = np.argsort(np.concatenate([mask.visible_idx, mask.masked_idx], axis=-1),
                         axis=-1)
    return T.take_rows(shuffled, restore) + Tensor(params.dec_pos)


def decode(latent: Tensor, mask: MaskSet, cfg: MaeConfig, params: MaeParams) -> Tensor:
    """Fill masked slots with the mask token, restore order, run decoder blocks.

    `latent` is (n_visible, enc_width) or (B, n_visible, enc_width), matching
    the rank of the mask's index arrays.
    """
    x = _decoder_input(latent, mask, cfg, params)
    x = _run_blocks(x, params.dec_blocks, cfg.dec_schedule)
    x = T.layer_norm(x, params.dec_norm.g, params.dec_norm.b)
    return T.linear(x, params.head_w, params.head_b)


def tap_encoder(
    patches: np.ndarray, cfg: MaeConfig, params: MaeParams, taps: list[HeadTap]
) -> None:
    """Fill one HeadTap per encoder block over every patch, as `encode_all`
    would, running nothing after the last block's attention."""
    x = _embed_visible(patches, _all_visible(cfg.n_p), cfg, params)
    _run_blocks(x, params.enc_blocks, None, taps)


def tap_decoder(
    latent: Tensor, mask: MaskSet, cfg: MaeConfig, params: MaeParams, taps: list[HeadTap]
) -> None:
    """Fill one HeadTap per decoder block, as `decode` would, running
    nothing after the last block's attention."""
    x = _decoder_input(latent, mask, cfg, params)
    _run_blocks(x, params.dec_blocks, cfg.dec_schedule, taps)


def masked_mse(pred: Tensor, target: np.ndarray, mask: MaskSet) -> Tensor:
    """Mean squared error over masked patches only.

    For a batch, every example masks the same number of patches, so this is
    also the mean of the per-example losses.
    """
    if pred.shape != target.shape:
        raise DimensionError(
            f"pred shape {pred.shape} != target shape {target.shape}"
        )
    if mask.masked_idx.shape[-1] == 0:
        raise ContractError("masked_mse: empty masked set")
    idx = mask.masked_idx
    # a + (-b) rounds exactly as a - b, without a graph node for the negation.
    diff = T.take_rows(pred, idx) + Tensor(-_gather_rows(target, idx))
    return (diff * diff).mean()


def mae_forward(
    spec: np.ndarray, cfg: MaeConfig, params: MaeParams, seed: int | Sequence[int]
) -> MaeOutput:
    """Full pipeline: patchify, mask, encode visible, decode all, masked MSE.

    `spec` is one (T, F) spectrogram with an int mask `seed`, or a (B, T, F)
    batch with one seed per example; the batch's loss is the mean of the
    per-example losses, in one graph.
    """
    spec = np.asarray(spec)
    if spec.ndim not in (2, 3):
        raise DimensionError(f"expected a (T, F) or (B, T, F) spectrogram, got {spec.shape}")
    if spec.ndim == 2:
        patches = patchify(spec, cfg.patch_t, cfg.patch_f)
        mask = random_mask(cfg.n_p, cfg.mask_ratio, seed)
    else:
        seeds = list(seed)
        if len(seeds) != len(spec):
            raise ContractError(f"{len(spec)} spectrograms but {len(seeds)} mask seeds")
        patches = np.stack([patchify(s, cfg.patch_t, cfg.patch_f) for s in spec])
        mask = MaskSet.stack([random_mask(cfg.n_p, cfg.mask_ratio, s) for s in seeds])
    latent = encode(patches, mask, cfg, params)
    pred = decode(latent, mask, cfg, params)
    loss = masked_mse(pred, patches, mask)
    return MaeOutput(pred_patches=pred.data, loss=loss)


# -- checkpointing --


def save_checkpoint(path: str | Path, cfg: MaeConfig, params: MaeParams) -> None:
    """Container with every named tensor plus a JSON config sidecar. The
    sidecar is rendered first, so a config that cannot be written leaves
    both files of a previous checkpoint as they were."""
    path = Path(path)
    sidecar = json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"
    save_tensors(path, {k: v.data for k, v in params.named().items()})
    write_text(path.with_suffix(path.suffix + ".json"), sidecar)


def check_field(name: str, value, default, low=None) -> None:
    """Reject a config value that does not fit its field's default.

    A float field takes an int or a finite float, an int field only an int;
    a bool is never a number, and no value may be below `low`. The
    ContractError names the field; a reader puts its file in front.
    """
    kinds = (int, float) if isinstance(default, float) else int
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ContractError(f"field {name!r} must be {type(default).__name__}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ContractError(f"field {name!r} must be finite, got {value!r}")
    if low is not None and value < low:
        raise ContractError(f"field {name!r} must be >= {low}, got {value}")


def _load_config(sidecar: Path) -> MaeConfig:
    """Read a checkpoint's JSON sidecar into a MaeConfig: a JSON object with
    exactly MaeConfig's fields, each passing MaeConfig's own checks.
    Anything else raises ContractError naming the sidecar and the field."""
    names = [f.name for f in fields(MaeConfig)]
    raw = read_json_object(sidecar, "config sidecar", keys=names, required=names)
    with naming(sidecar):
        return MaeConfig(**raw)


def load_checkpoint(path: str | Path) -> tuple[MaeConfig, MaeParams]:
    """Load and verify: the config sidecar is checked before any tensor is
    read, then every expected tensor must be present with its shape; each
    error names the file at fault. Each stored float32 tensor is copied
    from the file's bytes straight into its span of one float64 buffer in
    the config's layout; nothing is drawn."""
    path = Path(path)
    cfg = _load_config(path.with_suffix(path.suffix + ".json"))
    layout = MaeParams.layout(cfg)
    stored = load_tensors(path, views=True)
    with naming(path):
        missing = sorted(set(layout.shapes) - set(stored))
        extra = sorted(set(stored) - set(layout.shapes))
        if missing or extra:
            raise ContractError(
                f"checkpoint mismatch: missing {missing[:5]}, unexpected {extra[:5]}")
        flat = np.empty(layout.size)
        for name, (start, stop) in layout.spans.items():
            if stored[name].shape != layout.shapes[name]:
                raise ContractError(f"checkpoint tensor {name!r}: shape {stored[name].shape} "
                                    f"!= expected {layout.shapes[name]}")
            flat[start:stop] = stored[name].ravel()
    return cfg, MaeParams.over(cfg, flat)
