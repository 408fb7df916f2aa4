"""Multi-window masked autoencoder for audio spectrograms.

A numpy-backed library: a small reverse-mode autodiff engine, log-mel
features, multi-window multi-head attention, MAE pretraining, attention-head
analysis (entropy, distance, PWCCA), and probe-based downstream evaluation.
"""

from .attention import (
    AttentionParams,
    WindowSchedule,
    attention,
    mha,
    mw_mha,
    win_attention,
    window_schedule,
)
from .audio import AudioClip, crop_or_pad, load_wav, logmel, save_wav, standardize
from .analysis import (
    AttnRecord,
    PatchGrid,
    Whitened,
    attention_entropy,
    collect_stack,
    mean_attention_distance,
    pwcca,
    pwcca_matrix,
    whiten,
)
from .container import load_tensors, save_tensors
from .evalkit import ProbeResult, TaskScoreTable, overall_score, scene_embedding, train_probe
from .model import (
    MaeConfig,
    MaeOutput,
    MaeParams,
    MaskSet,
    decode,
    encode,
    encode_all,
    load_checkpoint,
    mae_forward,
    masked_mse,
    patchify,
    random_mask,
    save_checkpoint,
    sincos_pos_embed,
    unpatchify,
)
from .synth import SynthSpec, default_spec, gen_corpus, render_clip
from .tensor import Tensor, grad_check, no_grad
from .train import (
    OptimizerState,
    SpectrogramDataset,
    TrainConfig,
    TrainResult,
    WavSpecDataset,
    adamw_step,
    effective_lr,
    lr_at,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionParams",
    "AttnRecord",
    "AudioClip",
    "MaeConfig",
    "MaeOutput",
    "MaeParams",
    "MaskSet",
    "OptimizerState",
    "PatchGrid",
    "ProbeResult",
    "SpectrogramDataset",
    "SynthSpec",
    "TaskScoreTable",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "WavSpecDataset",
    "Whitened",
    "WindowSchedule",
    "adamw_step",
    "attention",
    "attention_entropy",
    "collect_stack",
    "crop_or_pad",
    "decode",
    "default_spec",
    "effective_lr",
    "encode",
    "encode_all",
    "gen_corpus",
    "grad_check",
    "load_checkpoint",
    "load_tensors",
    "load_wav",
    "logmel",
    "lr_at",
    "mae_forward",
    "masked_mse",
    "mean_attention_distance",
    "mha",
    "mw_mha",
    "no_grad",
    "overall_score",
    "patchify",
    "pwcca",
    "pwcca_matrix",
    "random_mask",
    "render_clip",
    "save_checkpoint",
    "save_tensors",
    "save_wav",
    "scene_embedding",
    "sincos_pos_embed",
    "standardize",
    "train",
    "train_probe",
    "unpatchify",
    "whiten",
    "win_attention",
    "window_schedule",
]
