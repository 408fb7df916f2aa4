"""Audio decoding and log-mel spectrogram features.

The feature chain: 16 kHz mono PCM -> STFT (25 ms Hann window, 10 ms hop,
centered with reflect padding) -> power spectrum -> 80 triangular mel
filters (HTK scale, 50-8000 Hz) -> log(x + 1e-6). Spectrograms are laid
out frames x bins (T x F) and standardized per instance.
"""

from __future__ import annotations

import functools
import io
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioFormatError, ContractError

SAMPLE_RATE = 16000
WIN_LENGTH = 400     # 25 ms at 16 kHz
HOP_LENGTH = 160     # 10 ms
N_MELS = 80
FMIN = 50.0
FMAX = 8000.0
LOG_FLOOR = 1e-6


@dataclass
class AudioClip:
    """Mono PCM samples in [-1, 1] at 16 kHz."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or len(self.samples) < 1:
            raise AudioFormatError("samples: expected a non-empty 1-D array")

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


def wav_paths(wav_dir: str | Path) -> list[Path]:
    """Every .wav file under `wav_dir`, recursively, in sorted order."""
    paths = sorted(Path(wav_dir).rglob("*.wav"))
    if not paths:
        raise ContractError(f"no .wav files under {wav_dir}")
    return paths


def _data_chunk_size(raw: bytes) -> int:
    """The size field of the data chunk of a RIFF/WAVE file `wave` has parsed.
    Chunks follow the 12-byte RIFF header, each padded to an even size."""
    at = 12
    while raw[at:at + 4] != b"data":
        size = int.from_bytes(raw[at + 4:at + 8], "little")
        at += 8 + size + size % 2
    return int.from_bytes(raw[at + 4:at + 8], "little")


def load_wav(path: str | Path) -> AudioClip:
    """Read a RIFF/WAVE file that must be PCM16, mono and 16 kHz, and whose
    data chunk declares a whole number of frames, at least one, all present;
    AudioFormatError names the file and field."""
    raw = Path(path).read_bytes()
    try:
        wf = wave.open(io.BytesIO(raw), "rb")
    except (wave.Error, EOFError) as e:
        raise AudioFormatError(f"{path}: header: not a RIFF/WAVE file ({e})") from None
    with wf:
        for field, want, got in (("compression", "NONE", wf.getcomptype()),
                                 ("sample_width", 2, wf.getsampwidth()),
                                 ("channels", 1, wf.getnchannels()),
                                 ("sample_rate", SAMPLE_RATE, wf.getframerate())):
            if got != want:
                raise AudioFormatError(f"{path}: {field}: expected {want!r}, got {got!r}")
        frames = wf.getnframes()
        data = wf.readframes(frames)
    # `wave` rounds the frame count down, so an odd size shows only here.
    declared = _data_chunk_size(raw)
    if frames == 0 or declared != 2 * frames:
        raise AudioFormatError(f"{path}: data: {declared} bytes declared, not whole frames >= 1")
    if len(data) != 2 * frames:
        raise AudioFormatError(f"{path}: data: {frames} frames declared, {len(data)} bytes read")
    pcm = np.frombuffer(data, dtype="<i2")
    return AudioClip(pcm.astype(np.float64) / 32768.0)


def save_wav(path: str | Path, clip: AudioClip) -> None:
    """Write PCM16 mono 16 kHz; values are rounded to the nearest step."""
    pcm = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank(
    n_mels: int = N_MELS,
    n_fft: int = WIN_LENGTH,
    fmin: float = FMIN,
    fmax: float = FMAX,
) -> np.ndarray:
    """Triangular filters on the HTK mel scale, shape (n_mels, n_fft//2 + 1).

    Built once per argument set and shared by every caller, so it is
    read-only.
    """
    edges_hz = _mel_edges(n_mels, fmin, fmax)
    fft_hz = np.arange(n_fft // 2 + 1) * (SAMPLE_RATE / n_fft)
    fb = np.zeros((n_mels, len(fft_hz)))
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (fft_hz - lo) / (center - lo)
        falling = (hi - fft_hz) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False
    return fb


def _mel_edges(n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """The n_mels + 2 band edges (Hz), evenly spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))


def mel_centers(n_mels: int = N_MELS, fmin: float = FMIN, fmax: float = FMAX) -> np.ndarray:
    """Center frequencies (Hz) of the triangular filters."""
    return _mel_edges(n_mels, fmin, fmax)[1:-1]


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def logmel(clip: AudioClip) -> np.ndarray:
    """Log-mel spectrogram, shape (floor(len/hop)+1, 80).

    The frames are read as windows of the padded signal, with no index
    array or gathered copy, and the square and log run in place: `extract`
    computes two clips' spectrograms at once.
    """
    x = clip.samples
    if len(x) < HOP_LENGTH:
        raise ContractError(
            f"clip too short: {len(x)} samples, need at least one hop ({HOP_LENGTH})"
        )
    # len + 1 windows of the padded signal; every hop-th is a frame.
    windows = sliding_window_view(np.pad(x, WIN_LENGTH // 2, mode="reflect"), WIN_LENGTH)
    power = np.abs(np.fft.rfft(windows[::HOP_LENGTH] * _hann_periodic(WIN_LENGTH), axis=1))
    power **= 2
    mel = power @ mel_filterbank().T
    mel += LOG_FLOOR
    return np.log(mel, out=mel)


def standardize(spec: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance over the whole instance; std floored at 1e-8."""
    spec = np.asarray(spec, dtype=np.float64)
    if spec.size < 2:
        raise ContractError("standardize: need at least 2 values")
    std = spec.std()
    return (spec - spec.mean()) / max(std, 1e-8)


def crop_or_pad(spec: np.ndarray, target_t: int, seed: int) -> np.ndarray:
    """Fix the frame count: seeded uniform-random crop or trailing zero-pad."""
    if target_t < 1:
        raise ContractError(f"target_t must be >= 1, got {target_t}")
    t = spec.shape[0]
    if t > target_t:
        start = int(np.random.default_rng(seed).integers(0, t - target_t + 1))
        return spec[start:start + target_t].copy()
    if t < target_t:
        out = np.zeros((target_t, spec.shape[1]))
        out[:t] = spec
        return out
    return spec.copy()

