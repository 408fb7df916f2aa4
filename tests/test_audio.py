"""Audio frontend: WAV I/O, log-mel features, standardization, cropping."""

import wave

import numpy as np
import pytest

from mwmae import audio
from mwmae.audio import (
    AudioClip,
    HOP_LENGTH,
    LOG_FLOOR,
    SAMPLE_RATE,
    WIN_LENGTH,
    crop_or_pad,
    load_wav,
    logmel,
    mel_centers,
    mel_filterbank,
    save_wav,
    standardize,
    wav_paths,
)
from mwmae.errors import AudioFormatError, ContractError


def _sine(freq, seconds=2.0, amp=0.5):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return AudioClip(amp * np.sin(2 * np.pi * freq * t))


class TestWavIO:
    def test_silence(self, tmp_path):
        path = tmp_path / "s.wav"
        save_wav(path, AudioClip(np.zeros(SAMPLE_RATE)))
        clip = load_wav(path)
        assert len(clip.samples) == 16000
        np.testing.assert_array_equal(clip.samples, 0.0)

    def test_fullscale_scaling_law(self, tmp_path):
        path = tmp_path / "sq.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(SAMPLE_RATE)
            wf.writeframes(np.full(100, 32767, dtype="<i2").tobytes())
        clip = load_wav(path)
        np.testing.assert_allclose(clip.samples, 32767 / 32768, rtol=0, atol=1e-12)
        assert abs(clip.samples[0] - 0.99997) < 1e-5

    def test_roundtrip_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.99, 0.99, 5000)
        path = tmp_path / "r.wav"
        save_wav(path, AudioClip(samples))
        back = load_wav(path).samples
        assert np.max(np.abs(back - samples)) <= 1.0 / 32768

    def test_wrong_rate_named(self, tmp_path):
        path = tmp_path / "bad.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(44100)
            wf.writeframes(np.zeros(100, dtype="<i2").tobytes())
        with pytest.raises(AudioFormatError, match="sample_rate"):
            load_wav(path)

    def test_wrong_channels_named(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(SAMPLE_RATE)
            wf.writeframes(np.zeros(200, dtype="<i2").tobytes())
        with pytest.raises(AudioFormatError, match="channels"):
            load_wav(path)

    def test_wrong_width_named(self, tmp_path):
        path = tmp_path / "w1.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(SAMPLE_RATE)
            wf.writeframes(np.zeros(100, dtype="u1").tobytes())
        with pytest.raises(AudioFormatError, match="sample_width"):
            load_wav(path)

    @staticmethod
    def _named(path, field):
        with pytest.raises(AudioFormatError, match=field) as err:
            load_wav(path)
        assert str(err.value).startswith(f"{path}: ")

    @staticmethod
    def _thousand_frames(path):
        save_wav(path, AudioClip(np.zeros(1000)))
        return path.read_bytes()

    def test_not_riff_named(self, tmp_path):
        path = tmp_path / "text.wav"
        path.write_bytes(b"this is not a wave file at all")
        self._named(path, "header")

    def test_empty_file_named(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(b"")
        self._named(path, "header")

    def test_odd_payload_named(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(self._thousand_frames(path)[:-1])
        self._named(path, "data: 1000 frames declared, 1999 bytes read")

    def test_cut_mid_payload_named(self, tmp_path):
        # the header still declares 1000 frames; only 500 follow it
        path = tmp_path / "cut.wav"
        path.write_bytes(self._thousand_frames(path)[:-1000])
        self._named(path, "data: 1000 frames declared, 1000 bytes read")

    @staticmethod
    def _data_chunk(path, data: bytes):
        """A PCM16 mono 16 kHz file whose data chunk declares len(data) bytes."""
        save_wav(path, AudioClip(np.zeros(1)))
        # WAVE and the fmt chunk, then the new data chunk
        body = path.read_bytes()[8:36] + b"data" + len(data).to_bytes(4, "little") + data
        path.write_bytes(b"RIFF" + len(body).to_bytes(4, "little") + body)

    def test_odd_chunk_size_named(self, tmp_path):
        # `wave` rounds 1001 bytes down to 500 frames; the declared size counts
        path = tmp_path / "odd-chunk.wav"
        self._data_chunk(path, bytes(1001))
        self._named(path, "data: 1001 bytes declared, not whole frames >= 1")

    def test_no_frames_named(self, tmp_path):
        path = tmp_path / "none.wav"
        self._data_chunk(path, b"")
        self._named(path, "data: 0 bytes declared, not whole frames >= 1")

    def test_whole_frames_after_an_odd_chunk(self, tmp_path):
        # a chunk of odd size before `data` carries one pad byte
        path = tmp_path / "list.wav"
        self._data_chunk(path, np.arange(5, dtype="<i2").tobytes())
        raw = path.read_bytes()
        extra = b"LIST" + (3).to_bytes(4, "little") + b"abc\0"
        body = raw[8:36] + extra + raw[36:]
        path.write_bytes(b"RIFF" + len(body).to_bytes(4, "little") + body)
        np.testing.assert_array_equal(load_wav(path).samples, np.arange(5) / 32768.0)


class TestWavPaths:
    def test_sorted_and_recursive(self, tmp_path):
        for name in ("b.wav", "sub/a.wav", "a.wav", "notes.txt"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(b"")
        assert wav_paths(tmp_path) == [tmp_path / n for n in ("a.wav", "b.wav", "sub/a.wav")]

    def test_none_found(self, tmp_path):
        with pytest.raises(ContractError, match="no .wav files"):
            wav_paths(tmp_path)


class TestLogmel:
    def test_two_seconds_gives_201_frames(self):
        spec = logmel(_sine(440.0, seconds=2.0))
        assert spec.shape == (201, 80)  # floor(32000/160) + 1

    def test_frame_count_rule(self):
        for n in (16000, 24000, 31999, 32001):
            clip = AudioClip(np.random.default_rng(1).normal(0, 0.1, n))
            assert logmel(clip).shape[0] == n // HOP_LENGTH + 1

    def test_silence_is_constant_log_floor(self):
        spec = logmel(AudioClip(np.zeros(SAMPLE_RATE)))
        np.testing.assert_allclose(spec, np.log(LOG_FLOOR), rtol=1e-12)

    def test_pure_tone_argmax_brackets_frequency(self):
        # The strongest mel bin must be one of the two whose centers bracket 1 kHz.
        centers = mel_centers()
        below = int(np.searchsorted(centers, 1000.0)) - 1
        spec = logmel(_sine(1000.0))
        band = spec.mean(axis=0)
        assert band.argmax() in (below, below + 1)

    def test_deterministic(self):
        clip = _sine(523.0)
        a = logmel(clip)
        b = logmel(AudioClip(clip.samples.copy()))
        np.testing.assert_array_equal(a, b)

    def test_energy_scaling_adds_log4(self):
        clip = _sine(800.0, amp=0.2)
        loud = AudioClip(clip.samples * 2.0)
        a, b = logmel(clip), logmel(loud)
        strong = a > np.log(LOG_FLOOR) + 10.0  # far above the floor
        assert strong.sum() > 100
        np.testing.assert_allclose((b - a)[strong], np.log(4.0), atol=1e-3)

    def test_too_short_clip(self):
        with pytest.raises(ContractError, match="too short"):
            logmel(AudioClip(np.zeros(100)))

    def test_short_but_legal_clip(self):
        spec = logmel(AudioClip(np.random.default_rng(2).normal(0, 0.1, 170)))
        assert spec.shape == (2, 80)
        assert np.all(np.isfinite(spec))


def _reflect_pad_reference(x, pad):
    n = len(x)
    if n == 1:
        return np.full(n + 2 * pad, x[0])
    idx = np.arange(-pad, n + pad)
    period = 2 * (n - 1)
    idx = np.abs(np.mod(idx, period))
    idx = np.where(idx >= n, period - idx, idx)
    return x[idx]


def _logmel_reference(clip):
    """Frames gathered through an index array, and a filterbank built anew."""
    x = clip.samples
    padded = _reflect_pad_reference(x, WIN_LENGTH // 2)
    n_frames = len(x) // HOP_LENGTH + 1
    starts = np.arange(n_frames) * HOP_LENGTH
    frames = padded[starts[:, None] + np.arange(WIN_LENGTH)] * audio._hann_periodic(WIN_LENGTH)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    mel = power @ mel_filterbank.__wrapped__().T
    return np.log(mel + LOG_FLOOR)


class TestLogmelReference:
    @pytest.mark.parametrize("n", [HOP_LENGTH, 161, 399, 400, 401, 3199, 2 * SAMPLE_RATE,
                                   3 * SAMPLE_RATE + 123])
    def test_same_bytes_as_gathered_frames(self, n):
        for scale in (1e-9, 0.1, 1.0):
            clip = AudioClip(np.random.default_rng(n).normal(0, scale, n))
            got, want = logmel(clip), _logmel_reference(clip)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 199, 200, 201, 1000])
    def test_reflect_pad(self, n):
        """`logmel` pads with numpy's reflect mode, also where pad >= len(x)."""
        x = np.random.default_rng(n).normal(size=n)
        for pad in (0, 1, 3, 200, 450):
            got = np.pad(x, pad, mode="reflect")
            assert got.tobytes() == _reflect_pad_reference(x, pad).tobytes()


class TestFilterbank:
    def test_rows_sum_positive(self):
        fb = mel_filterbank()
        assert fb.shape == (80, 201)
        assert np.all(fb.sum(axis=1) > 0)

    def test_built_once_and_read_only(self):
        fb = mel_filterbank()
        assert mel_filterbank() is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fb[0, 0] = 1.0
        fresh = mel_filterbank.__wrapped__()
        assert fresh is not fb and fresh.tobytes() == fb.tobytes()

    def test_centers_strictly_increase(self):
        centers = mel_centers()
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 50.0 and centers[-1] < 8000.0


class TestStandardize:
    def test_constant_input_zeros(self):
        out = standardize(np.full((10, 8), 3.7))
        np.testing.assert_array_equal(out, 0.0)

    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(3)
        out = standardize(rng.normal(2.0, 5.0, (50, 80)))
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        once = standardize(rng.normal(size=(30, 80)))
        twice = standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)


class TestCropOrPad:
    def test_crop_start_depends_on_seed_only(self):
        spec = np.arange(201 * 4, dtype=float).reshape(201, 4)
        for seed in range(5):
            a = crop_or_pad(spec, 200, seed)
            b = crop_or_pad(spec, 200, seed)
            np.testing.assert_array_equal(a, b)
            start = int(a[0, 0] // 4)
            assert start in (0, 1)

    def test_identity_when_equal(self):
        spec = np.random.default_rng(5).normal(size=(200, 8))
        np.testing.assert_array_equal(crop_or_pad(spec, 200, 0), spec)

    def test_pad_with_trailing_zeros(self):
        spec = np.ones((150, 8))
        out = crop_or_pad(spec, 200, 0)
        assert out.shape == (200, 8)
        np.testing.assert_array_equal(out[:150], 1.0)
        np.testing.assert_array_equal(out[150:], 0.0)

    def test_all_starts_reachable(self):
        spec = np.arange(10)[:, None] * np.ones((1, 2))
        starts = {int(crop_or_pad(spec, 8, s)[0, 0]) for s in range(100)}
        assert starts == {0, 1, 2}
