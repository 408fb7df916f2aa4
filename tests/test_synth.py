"""Synthetic corpus generation: determinism, balance, and label plumbing."""

import collections

import numpy as np
import pytest

from mwmae.audio import SAMPLE_RATE, load_wav, logmel
from mwmae.errors import ContractError
from mwmae.synth import (
    SynthSpec,
    default_spec,
    gen_corpus,
    pitch_bin_hz,
    read_labels,
    render_clip,
)


class TestRenderClip:
    def test_durations_in_range(self):
        spec = default_spec("tone")
        for seed in range(5):
            clip = render_clip(spec, label=seed % spec.n_classes, seed=seed)
            assert 1.0 <= clip.duration <= 10.0

    def test_samples_in_range(self):
        clip = render_clip(default_spec("tone-mixture"), label=2, seed=3)
        assert np.max(np.abs(clip.samples)) <= 1.0

    def test_deterministic(self):
        spec = default_spec("chirp")
        a = render_clip(spec, 1, seed=9)
        b = render_clip(spec, 1, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_tone_peaks_near_bin_frequency(self):
        spec = SynthSpec("tone", n_classes=8, snr_db_range=(30.0, 30.0),
                         freq_jitter=0.0)
        clip = render_clip(spec, label=4, seed=0)  # 440 Hz
        mel = logmel(clip)
        from mwmae.audio import mel_centers

        centers = mel_centers()
        peak_hz = centers[mel.mean(axis=0).argmax()]
        f = pitch_bin_hz(4)
        # fundamental or the (stronger-binned) second harmonic
        assert min(abs(peak_hz - f), abs(peak_hz - 2 * f)) < 0.2 * f


class TestGenCorpus:
    def test_bit_identical_per_seed(self, tmp_path):
        spec = default_spec("tone", max_seconds=2.0)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_corpus(spec, 6, seed=5, out_dir=d1)
        gen_corpus(spec, 6, seed=5, out_dir=d2)
        for p1 in sorted(d1.iterdir()):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()

    def test_different_seed_changes_bytes(self, tmp_path):
        spec = default_spec("tone", max_seconds=2.0)
        gen_corpus(spec, 2, seed=1, out_dir=tmp_path / "a")
        gen_corpus(spec, 2, seed=2, out_dir=tmp_path / "b")
        name = "tone_0000.wav"
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()

    def test_zero_clips_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            gen_corpus(default_spec("tone"), 0, seed=0, out_dir=tmp_path)

    def test_labels_balanced_within_one(self, tmp_path):
        spec = default_spec("noise-band", max_seconds=1.5)
        labels_path = gen_corpus(spec, 21, seed=0, out_dir=tmp_path)
        rows = read_labels(labels_path)
        counts = collections.Counter(label for _, _, label in rows)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_all_splits_present_per_class(self, tmp_path):
        spec = default_spec("tone", max_seconds=1.5)
        labels_path = gen_corpus(spec, 4 * spec.n_classes, seed=0, out_dir=tmp_path)
        rows = read_labels(labels_path)
        by_class = collections.defaultdict(set)
        for _, split, label in rows:
            by_class[label].add(split)
        for label, splits in by_class.items():
            assert splits == {"train", "valid", "test"}, label

    def test_clips_load_as_valid_wavs(self, tmp_path):
        spec = default_spec("tone-mixture", max_seconds=1.5)
        gen_corpus(spec, 4, seed=0, out_dir=tmp_path)
        for p in sorted(tmp_path.glob("*.wav")):
            clip = load_wav(p)
            assert clip.sample_rate == SAMPLE_RATE
            assert len(clip.samples) >= SAMPLE_RATE

    def test_bad_kind_rejected(self):
        with pytest.raises(ContractError):
            SynthSpec("whistle", n_classes=3)

    def test_bad_duration_rejected(self):
        with pytest.raises(ContractError):
            SynthSpec("tone", n_classes=3, min_seconds=0.2)


class TestReadLabels:
    HEADER = "filename,split,label\n"

    def _labels(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        return path

    def test_reads_rows_and_ignores_extra_columns(self, tmp_path):
        path = self._labels(tmp_path, "filename,split,label,note\na.wav,train,1;2,x\n")
        assert read_labels(path) == [("a.wav", "train", "1;2")]

    @pytest.mark.parametrize("text, where, field", [
        ("", "line 1", "filename,split,label"),
        ("name,split,label\n", "line 1", "filename,split,label"),
        (HEADER + "a.wav,train,0\nb.wav,valid\n", "line 3", "'label'"),
        (HEADER + "a.wav,train,0\n\n", "line 3", "'filename'"),
        (HEADER + "a.wav,tset,0\n", "line 2", "'split'"),
    ], ids=["empty", "header", "short-row", "blank-row", "unknown-split"])
    def test_malformed_file_names_file_line_and_field(self, tmp_path, text, where, field):
        path = self._labels(tmp_path, text)
        with pytest.raises(ContractError) as exc:
            read_labels(path)
        msg = str(exc.value)
        assert msg.startswith(f"{path}: {where}: ") and field in msg
