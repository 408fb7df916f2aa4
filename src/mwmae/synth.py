"""Synthetic labelled audio corpora.

Small WAV datasets whose labels follow directly from the generation
parameters: pitch bins for tones, sweep direction for chirps, frequency
band for filtered noise, and voice count for tone mixtures. Every clip is
derived from the corpus seed, so a corpus is reproducible byte for byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, AudioClip, save_wav
from .errors import ContractError

KINDS = ("tone", "chirp", "noise-band", "tone-mixture")

# Half-octave pitch bins starting at 110 Hz; all centers sit inside the
# 50-8000 Hz analysis band even after jitter.
PITCH_BASE_HZ = 110.0
PITCH_BINS = 8
NOISE_BANDS = 6
MAX_VOICES = 4

_SPLIT_CYCLE = ("train", "train", "valid", "test")
_SPLITS = ("train", "valid", "test")
_FIELDS = ("filename", "split", "label")


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    n_classes: int
    min_seconds: float = 1.0
    max_seconds: float = 4.0
    snr_db_range: tuple[float, float] = (5.0, 20.0)
    freq_jitter: float = 0.03

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 1.0 <= self.min_seconds <= self.max_seconds <= 10.0:
            raise ContractError("clip durations must lie within 1-10 s")


def default_spec(kind: str, **overrides) -> SynthSpec:
    n_classes = {
        "tone": PITCH_BINS,
        "chirp": 2,
        "noise-band": NOISE_BANDS,
        "tone-mixture": MAX_VOICES,
    }[kind]
    return SynthSpec(kind=kind, n_classes=n_classes, **overrides)


def pitch_bin_hz(bin_index: int) -> float:
    return PITCH_BASE_HZ * 2.0 ** (bin_index / 2.0)


def _tone(rng, duration, freq, jitter):
    n = int(duration * SAMPLE_RATE)
    f = freq * (1.0 + rng.uniform(-jitter, jitter))
    t = np.arange(n) / SAMPLE_RATE
    phase = rng.uniform(0, 2 * np.pi)
    wave = np.sin(2 * np.pi * f * t + phase)
    wave += 0.5 * np.sin(2 * np.pi * 2 * f * t + phase)
    return wave


def _chirp(rng, duration, upward):
    n = int(duration * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(150.0, 400.0)
    f1 = rng.uniform(1500.0, 4000.0)
    if not upward:
        f0, f1 = f1, f0
    inst = f0 + (f1 - f0) * t / duration
    phase = 2 * np.pi * np.cumsum(inst) / SAMPLE_RATE
    return np.sin(phase + rng.uniform(0, 2 * np.pi))


def _noise_band(rng, duration, band, n_bands):
    n = int(duration * SAMPLE_RATE)
    edges = np.geomspace(100.0, 7000.0, n_bands + 1)
    lo, hi = edges[band], edges[band + 1]
    white = rng.normal(0.0, 1.0, n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    out = np.fft.irfft(spectrum, n=n)
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out


def _tone_mixture(rng, duration, n_voices, jitter):
    n = int(duration * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    out = np.zeros(n)
    freqs = np.exp(rng.uniform(np.log(150.0), np.log(3000.0), n_voices))
    for f in freqs:
        f = f * (1.0 + rng.uniform(-jitter, jitter))
        out += np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return out / n_voices


def render_clip(spec: SynthSpec, label: int, seed: int) -> AudioClip:
    """One clip of the given class; fully determined by (spec, label, seed)."""
    rng = np.random.default_rng(seed)
    duration = rng.uniform(spec.min_seconds, spec.max_seconds)
    if spec.kind == "tone":
        wave = _tone(rng, duration, pitch_bin_hz(label), spec.freq_jitter)
    elif spec.kind == "chirp":
        wave = _chirp(rng, duration, upward=(label == 1))
    elif spec.kind == "noise-band":
        wave = _noise_band(rng, duration, label, spec.n_classes)
    else:
        wave = _tone_mixture(rng, duration, label + 1, spec.freq_jitter)

    rms = np.sqrt(np.mean(wave**2))
    wave = wave / max(rms, 1e-9)
    snr_db = rng.uniform(*spec.snr_db_range)
    noise = rng.normal(0.0, 10.0 ** (-snr_db / 20.0), len(wave))
    gain = rng.uniform(0.05, 0.25)
    mixed = gain * (wave + noise)
    return AudioClip(np.clip(mixed, -1.0, 1.0))


def gen_corpus(spec: SynthSpec, n: int, seed: int, out_dir: str | Path) -> Path:
    """Write n WAV clips plus labels.csv (filename, split, label).

    Classes are balanced to within one sample; splits cycle
    train/train/valid/test within each class.
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    per_class_count: dict[int, int] = {}
    for i in range(n):
        label = i % spec.n_classes
        rank = per_class_count.get(label, 0)
        per_class_count[label] = rank + 1
        clip_seed = int(np.random.SeedSequence([seed, n, i]).generate_state(1)[0])
        clip = render_clip(spec, label, clip_seed)
        name = f"{spec.kind.replace('-', '_')}_{i:04d}.wav"
        save_wav(out_dir / name, clip)
        rows.append((name, _SPLIT_CYCLE[rank % len(_SPLIT_CYCLE)], str(label)))
    with open(out_dir / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELDS)
        writer.writerows(rows)
    return out_dir / "labels.csv"


def read_labels(path: str | Path) -> list[tuple[str, str, str]]:
    """Rows of (filename, split, label); multilabel cells use ';' separators.

    The header must be filename,split,label; every row needs those three
    fields and a split of train, valid or test. Anything else raises
    ContractError naming the file, the line and the field.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != list(_FIELDS):
            raise ContractError(
                f"{path}: line 1: labels CSV must start with filename,split,label, got {header}"
            )
        for r in reader:
            where = f"{path}: line {reader.line_num}"
            if len(r) < 3:
                raise ContractError(f"{where}: field {_FIELDS[len(r)]!r} is missing")
            if r[1] not in _SPLITS:
                raise ContractError(
                    f"{where}: field 'split' must be one of {', '.join(_SPLITS)}, got {r[1]!r}"
                )
            rows.append((r[0], r[1], r[2]))
    return rows
