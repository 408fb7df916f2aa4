"""CLI surface: exit codes, config validation, and the end-to-end plumbing."""

import csv
import json
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from mwmae import analysis, cli, container
from mwmae.analysis import StackRecords, pwcca, whiten
from mwmae.audio import (AudioClip, crop_or_pad, load_wav, logmel, save_wav, standardize,
                         wav_paths)
from mwmae.cli import load_run_config, main
from mwmae.container import load_tensors, save_tensors
from mwmae.evalkit import scene_embedding
from mwmae.errors import ContractError
from mwmae.model import MaeConfig, MaeParams, load_checkpoint, save_checkpoint
from mwmae.train import _blas_thread_hooks

from _toy import (FailsMidway, blas_threads,  # noqa: F401 (a fixture)
                  dense_distance, dense_entropy, full_stack_taps)

# patch 20x16 over 200x80 -> 50 patches: smallest model that accepts real audio
FAST_CONFIG = {
    "patch_t": 20, "patch_f": 16,
    "enc_depth": 1, "enc_width": 16, "enc_heads": 2,
    "dec_depth": 1, "dec_width": 12,
    "base_lr": 0.05, "batch_size": 4,
    "warmup_epochs": 1, "total_epochs": 3,
    "seed": 0, "max_steps": 4,
}


def _write_config(tmp_path, **overrides):
    cfg = dict(FAST_CONFIG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunConfig:
    def test_defaults_match_reference_values(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        mae_cfg, train_cfg, max_steps = load_run_config(path)
        assert (mae_cfg.input_t, mae_cfg.input_f) == (200, 80)
        assert (mae_cfg.patch_t, mae_cfg.patch_f) == (4, 16)
        assert mae_cfg.mask_ratio == 0.8
        assert (mae_cfg.dec_depth, mae_cfg.dec_width, mae_cfg.dec_heads) == (4, 384, 8)
        assert train_cfg.base_lr == 1.5e-5
        assert train_cfg.batch_size == 1024
        assert (train_cfg.warmup_epochs, train_cfg.total_epochs) == (10, 100)
        assert train_cfg.weight_decay == 0.05
        assert train_cfg.betas == (0.9, 0.999)
        assert train_cfg.min_lr == 0.0
        assert max_steps is None

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"patch_q": 4}))
        with pytest.raises(ContractError, match="patch_q"):
            load_run_config(path)

    def test_invalid_value_names_field(self, tmp_path):
        path = _write_config(tmp_path, mask_ratio=1.0)
        with pytest.raises(ContractError, match="mask_ratio"):
            load_run_config(path)

    @pytest.mark.parametrize("field, value", [
        ("max_steps", "4"),
        ("max_steps", 0),
        ("seed", True),
        ("batch_size", "8"),
        ("mask_ratio", "0.5"),
        ("betas", 5),
        ("betas", [0.9, "0.999"]),
        ("base_lr", float("nan")),
    ])
    def test_wrong_type_names_field(self, tmp_path, field, value):
        path = _write_config(tmp_path, **{field: value})
        with pytest.raises(ContractError, match=field):
            load_run_config(path)

    def test_not_json_names_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 0,')
        with pytest.raises(ContractError, match="config.json.*not JSON"):
            load_run_config(path)

    def test_null_max_steps_means_no_cap(self, tmp_path):
        assert load_run_config(_write_config(tmp_path, max_steps=None))[2] is None

    @pytest.mark.parametrize("field, value", [
        ("betas", [1.5, 0.999]),
        ("betas", [0.9, 1.0]),  # AdamW's bias correction would divide by 0
        ("betas", [-0.1, 0.999]),
        ("base_lr", -1e-3),
        ("weight_decay", -0.05),
        ("min_lr", -1e-6),
    ])
    def test_out_of_range_float_names_field(self, tmp_path, capsys, field, value):
        path = _write_config(tmp_path, **{field: value})
        with pytest.raises(ContractError, match=f"{path}: field '{field}'"):
            load_run_config(path)
        assert main(["pretrain", "--config", str(path), "--data", str(tmp_path),
                     "--out", str(tmp_path / "m.bin"),
                     "--loss-csv", str(tmp_path / "l.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ContractError: ")
        assert f"field '{field}'" in err[0]

    def test_range_edges_accepted(self, tmp_path):
        path = _write_config(tmp_path, betas=[0, 0.999999], base_lr=0, weight_decay=0.0,
                             min_lr=0.0)
        _, train_cfg, _ = load_run_config(path)
        assert train_cfg.betas == (0, 0.999999) and train_cfg.base_lr == 0


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "tone"])
        assert exc.value.code == 2

    def test_bad_config_is_runtime_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, mask_ratio=1.0)
        code = main(["pretrain", "--config", str(config), "--data", str(tmp_path),
                     "--out", str(tmp_path / "m.bin"),
                     "--loss-csv", str(tmp_path / "l.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "mask_ratio" in err
        assert len(err.strip().splitlines()) == 1


class TestSynthCommand:
    def test_writes_corpus_and_is_idempotent(self, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        for out in (out1, out2):
            assert main(["synth", "--kind", "tone", "--n", "4",
                         "--seed", "3", "--out", str(out)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert "labels.csv" in files1 and len(files1) == 5
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_global_seed_fallback(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--seed", "7", "synth", "--kind", "tone", "--n", "2", "--out", str(a)])
        main(["synth", "--kind", "tone", "--n", "2", "--seed", "7", "--out", str(b)])
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> pretrain -> extract, shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    wav_dir = root / "wavs"
    # 4 clips per pitch class so every split is populated
    assert main(["synth", "--kind", "tone", "--n", "32", "--seed", "0",
                 "--out", str(wav_dir)]) == 0
    config = root / "config.json"
    config.write_text(json.dumps(FAST_CONFIG))
    ckpt = root / "model.bin"
    loss_csv = root / "loss.csv"
    assert main(["pretrain", "--config", str(config), "--data", str(wav_dir),
                 "--out", str(ckpt), "--loss-csv", str(loss_csv)]) == 0
    emb = root / "embeddings.bin"
    assert main(["extract", "--ckpt", str(ckpt), "--wav-dir", str(wav_dir),
                 "--out", str(emb)]) == 0
    return root, wav_dir, ckpt, loss_csv, emb


class TestPipeline:
    def test_loss_csv_shape(self, pipeline):
        _, _, _, loss_csv, _ = pipeline
        lines = loss_csv.read_text().strip().splitlines()
        assert lines[0] == "step,epoch,lr,loss"
        assert len(lines) == 1 + FAST_CONFIG["max_steps"]

    def test_checkpoint_sidecar(self, pipeline):
        _, _, ckpt, _, _ = pipeline
        sidecar = json.loads((ckpt.parent / "model.bin.json").read_text())
        assert sidecar["patch_t"] == 20

    def test_embeddings_keyed_by_filename(self, pipeline):
        _, wav_dir, _, _, emb = pipeline
        tensors = load_tensors(emb)
        assert set(tensors) == {p.name for p in wav_dir.glob("*.wav")}
        for v in tensors.values():
            assert v.shape == (FAST_CONFIG["enc_width"],)

    def test_extract_idempotent(self, pipeline, tmp_path):
        _, wav_dir, ckpt, _, emb = pipeline
        again = tmp_path / "again.bin"
        assert main(["extract", "--ckpt", str(ckpt), "--wav-dir", str(wav_dir),
                     "--out", str(again)]) == 0
        assert again.read_bytes() == emb.read_bytes()

    def test_probe_runs(self, pipeline, tmp_path):
        root, wav_dir, _, _, emb = pipeline
        out = tmp_path / "probe.json"
        code = main(["probe", "--embeddings", str(emb),
                     "--labels", str(wav_dir / "labels.csv"),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metric"] == "accuracy"
        assert 0.0 <= payload["test"] <= 1.0

    def test_analyze_entropy_csv_and_idempotence(self, pipeline, tmp_path):
        _, wav_dir, ckpt, _, _ = pipeline
        out = tmp_path / "entropy.csv"
        again = tmp_path / "entropy2.csv"
        for path in (out, again):
            assert main(["analyze", "entropy", "--ckpt", str(ckpt),
                         "--data", str(wav_dir), "--out", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "layer,head,value"
        assert len(lines) == 1 + FAST_CONFIG["enc_depth"] * FAST_CONFIG["enc_heads"]
        assert again.read_bytes() == out.read_bytes()

    def test_analyze_distance_csv(self, pipeline, tmp_path):
        _, wav_dir, ckpt, _, _ = pipeline
        out = tmp_path / "distance.csv"
        assert main(["analyze", "distance", "--ckpt", str(ckpt),
                     "--data", str(wav_dir), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[2]) >= 0 for r in rows)

    def test_analyze_pwcca_csv(self, pipeline, tmp_path):
        _, wav_dir, ckpt, _, _ = pipeline
        out = tmp_path / "pwcca.csv"
        assert main(["analyze", "pwcca", "--ckpt", str(ckpt),
                     "--data", str(wav_dir), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        # decoder stack by default: 50 patches -> schedule [2,5,10,25,50,50]
        n_heads = 6 * FAST_CONFIG["dec_depth"]
        assert header[1] == "L0.H0" and len(header) == 1 + n_heads
        first = lines[1].split(",")
        assert abs(float(first[1]) - 1.0) < 1e-6  # diagonal

    def test_pretrain_deterministic(self, pipeline, tmp_path):
        root, wav_dir, ckpt, loss_csv, _ = pipeline
        config = tmp_path / "config.json"
        config.write_text(json.dumps(FAST_CONFIG))
        ckpt2 = tmp_path / "model.bin"
        csv2 = tmp_path / "loss.csv"
        assert main(["pretrain", "--config", str(config), "--data", str(wav_dir),
                     "--out", str(ckpt2), "--loss-csv", str(csv2)]) == 0
        assert csv2.read_bytes() == loss_csv.read_bytes()
        assert ckpt2.read_bytes() == ckpt.read_bytes()

    def test_pretrain_logs_to_stderr_only(self, pipeline, tmp_path, capsys):
        _, wav_dir, _, _, _ = pipeline
        config = _write_config(tmp_path)
        capsys.readouterr()
        assert main(["pretrain", "--config", str(config), "--data", str(wav_dir),
                     "--out", str(tmp_path / "m.bin"),
                     "--loss-csv", str(tmp_path / "l.csv")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step      0" in captured.err


class TestThreadedExtract:
    """`extract` embeds on a two-thread pool; what it writes and raises is
    what a serial loop over the sorted paths writes and raises."""

    def _extract(self, ckpt, wav_dir, out) -> int:
        return main(["extract", "--ckpt", str(ckpt), "--wav-dir", str(wav_dir),
                     "--out", str(out)])

    def test_same_bytes_as_a_serial_loop(self, pipeline, tmp_path):
        _, wav_dir, ckpt, _, emb = pipeline
        cfg, params = load_checkpoint(ckpt)
        serial = {p.name: scene_embedding(load_wav(p), cfg, params)
                  for p in wav_paths(wav_dir)}
        save_tensors(tmp_path / "serial.bin", serial)
        assert emb.read_bytes() == (tmp_path / "serial.bin").read_bytes()

    def test_module_names_run_once_per_clip(self, pipeline, tmp_path, monkeypatch):
        # perfbench's tracer wraps `cli.scene_embedding` and `cli.load_wav`.
        _, wav_dir, ckpt, _, emb = pipeline
        calls = {"scene_embedding": [], "load_wav": []}
        hooks = _blas_thread_hooks()
        blas_count = hooks[0] if hooks else lambda: 1
        blas_before = blas_count()
        blas_counts = set()
        for name in calls:
            real = getattr(cli, name)

            def spy(*args, _real=real, _name=name):
                calls[_name].append(threading.current_thread().name)
                blas_counts.add(blas_count())
                return _real(*args)

            monkeypatch.setattr(cli, name, spy)
        out = tmp_path / "emb.bin"
        threads = threading.active_count()
        assert self._extract(ckpt, wav_dir, out) == 0
        assert threading.active_count() == threads  # the pool died with the call
        n_clips = len(wav_paths(wav_dir))
        assert len(calls["scene_embedding"]) == len(calls["load_wav"]) == n_clips
        assert threading.main_thread().name not in calls["scene_embedding"]
        assert blas_counts == {1} and blas_count() == blas_before
        assert out.read_bytes() == emb.read_bytes()

    def test_first_bad_file_in_path_order_is_named(self, pipeline, tmp_path, monkeypatch,
                                                   capsys):
        _, wav_dir, ckpt, _, _ = pipeline
        clips = tmp_path / "clips"
        clips.mkdir()
        for i, p in enumerate(wav_paths(wav_dir)[:6]):
            shutil.copy(p, clips / f"{i}.wav")
        (clips / "1b.wav").write_bytes(b"not a wav file")
        (clips / "3b.wav").write_bytes(b"RIFF")
        real = cli.load_wav

        def load(p):
            if p.name == "1b.wav":
                time.sleep(0.5)  # the later bad file fails first
            return real(p)

        monkeypatch.setattr(cli, "load_wav", load)
        out = tmp_path / "emb.bin"
        threads = threading.active_count()
        assert self._extract(ckpt, clips, out) == 1
        assert threading.active_count() == threads
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: AudioFormatError: ") and "1b.wav: header" in err[0]
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clips"]


class TestMalformedInputs:
    """Each bad input exits 1 with one `error:` line naming the file."""

    @staticmethod
    def _one_error_line(capsys) -> str:
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return err[0]

    @pytest.fixture
    def short_clip_dir(self, pipeline, tmp_path):
        _, wav_dir, _, _, _ = pipeline
        clips = tmp_path / "clips"
        clips.mkdir()
        for p in wav_paths(wav_dir)[:2]:
            shutil.copy(p, clips / p.name)
        save_wav(clips / "short.wav", AudioClip(np.zeros(100)))  # < one hop
        return clips

    def test_too_short_wav_is_named_by_pretrain_and_analyze(self, pipeline, tmp_path,
                                                            capsys, short_clip_dir):
        _, _, ckpt, _, _ = pipeline
        short = short_clip_dir / "short.wav"
        assert main(["pretrain", "--config", str(_write_config(tmp_path)),
                     "--data", str(short_clip_dir), "--out", str(tmp_path / "m.bin"),
                     "--loss-csv", str(tmp_path / "l.csv")]) == 1
        assert self._one_error_line(capsys).startswith(
            f"error: ContractError: {short}: clip too short: 100 samples")
        out = tmp_path / "entropy.csv"
        assert main(["analyze", "entropy", "--ckpt", str(ckpt),
                     "--data", str(short_clip_dir), "--out", str(out)]) == 1
        assert self._one_error_line(capsys).startswith(
            f"error: ContractError: {short}: clip too short: 100 samples")
        assert not out.exists() and not (tmp_path / "m.bin").exists()

    def test_extract_pads_a_too_short_wav(self, pipeline, tmp_path, short_clip_dir):
        _, _, ckpt, _, _ = pipeline
        out = tmp_path / "emb.bin"
        assert main(["extract", "--ckpt", str(ckpt), "--wav-dir", str(short_clip_dir),
                     "--out", str(out)]) == 0
        assert "short.wav" in load_tensors(out)

    def test_unknown_split_in_labels_is_named(self, pipeline, tmp_path, capsys):
        _, wav_dir, _, _, emb = pipeline
        lines = (wav_dir / "labels.csv").read_text().splitlines()
        name, _, label = lines[3].split(",")
        lines[3] = f"{name},tset,{label}"
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(lines) + "\n")
        out = tmp_path / "probe.json"
        assert main(["probe", "--embeddings", str(emb), "--labels", str(labels),
                     "--out", str(out)]) == 1
        assert self._one_error_line(capsys) == (
            f"error: ContractError: {labels}: line 4: field 'split' must be one of "
            "train, valid, test, got 'tset'")
        assert not out.exists()


class TestAtomicOutputs:
    def test_failed_analysis_keeps_previous_csv(self, pipeline, tmp_path, monkeypatch):
        _, wav_dir, ckpt, _, _ = pipeline
        out = tmp_path / "pwcca.csv"
        argv = ["analyze", "pwcca", "--ckpt", str(ckpt), "--data", str(wav_dir),
                "--out", str(out)]
        assert main(argv) == 0
        old = out.read_bytes()

        def broken(records):
            raise RuntimeError("analysis failed")

        monkeypatch.setattr(cli, "pwcca_matrix", broken)
        assert main(argv) == 1
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["pwcca.csv"]

    def test_failed_score_write_keeps_previous_json(self, tmp_path, monkeypatch):
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        (metrics / "a.json").write_text(json.dumps({"tasks": {"t1": 1.0}}))
        (metrics / "b.json").write_text(json.dumps({"tasks": {"t1": 2.0}}))
        out = tmp_path / "scores.json"
        out.write_text("previous\n")
        monkeypatch.setattr(container, "open", lambda p, mode: FailsMidway(open(p, mode)),
                            raising=False)
        code = main(["score", "--metrics-dir", str(metrics), "--out", str(out)])
        monkeypatch.undo()
        assert code == 1
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics", "scores.json"]


class TestScoreCommand:
    def test_score_from_metric_files(self, tmp_path):
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        (metrics / "alpha.json").write_text(json.dumps(
            {"model": "alpha", "tasks": {"t1": 10.0, "t2": 50.0}}))
        (metrics / "beta.json").write_text(json.dumps(
            {"model": "beta", "tasks": {"t1": 20.0, "t2": 100.0}}))
        out = tmp_path / "scores.json"
        assert main(["score", "--metrics-dir", str(metrics), "--out", str(out)]) == 0
        scores = json.loads(out.read_text())["scores"]
        assert scores["beta"] == 100.0 and scores["alpha"] == 0.0

    def test_incomplete_tables_rejected(self, tmp_path, capsys):
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        (metrics / "a.json").write_text(json.dumps({"tasks": {"t1": 1.0}}))
        (metrics / "b.json").write_text(json.dumps({"tasks": {"t2": 1.0}}))
        code = main(["score", "--metrics-dir", str(metrics),
                     "--out", str(tmp_path / "s.json")])
        assert code == 1

    @pytest.mark.parametrize("text, field", [
        ("{not json", "not JSON"),
        ("[1, 2]", "JSON object"),
        ('{"model": "b"}', "'tasks'"),
        ('{"model": "b", "tasks": [1.0]}', "'tasks'"),
        ('{"model": "b", "tasks": {"t1": "high"}}', "'tasks.t1'"),
        ('{"model": "a", "tasks": {"t1": 2.0}}', "'model'"),
        ('{"model": 3, "tasks": {"t1": 2.0}}', "'model'"),
        ('{"model": "b", "tasks": {"t1": NaN}}', "'tasks.t1'"),
        ('{"model": "b", "tasks": {"t1": 2.0}, "lower_is_better": "t1"}',
         "'lower_is_better'"),
    ])
    def test_bad_metric_file_named(self, tmp_path, capsys, text, field):
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        (metrics / "a.json").write_text(json.dumps({"model": "a", "tasks": {"t1": 1.0}}))
        (metrics / "b.json").write_text(text)
        out = tmp_path / "s.json"
        assert main(["score", "--metrics-dir", str(metrics), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ContractError: {metrics / 'b.json'}: ")
        assert field in err and not out.exists()

    def test_lower_is_better_must_name_a_task(self, tmp_path, capsys):
        # ignoring the misspelt name would score `err` as higher-is-better
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        (metrics / "a.json").write_text(json.dumps(
            {"model": "a", "tasks": {"err": 1.0}, "lower_is_better": ["ERR"]}))
        (metrics / "b.json").write_text(json.dumps({"model": "b", "tasks": {"err": 9.0}}))
        out = tmp_path / "s.json"
        assert main(["score", "--metrics-dir", str(metrics), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ContractError: {metrics / 'a.json'}: ")
        assert "'lower_is_better'" in err and "'ERR'" in err and not out.exists()


def test_selftest_passes():
    assert main(["selftest"]) == 0


class TestAnalyzeAt250Patches:
    """`analyze` CSVs at the 200x80, 250-patch input against the untruncated
    path: full-stack taps, and PWCCA from heads whitened once per pair of
    calls with their own cross products."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("analyze250")
        wav_dir = root / "wavs"
        assert main(["synth", "--kind", "tone", "--n", "3", "--seed", "1",
                     "--out", str(wav_dir)]) == 0
        cfg = MaeConfig(patch_t=4, patch_f=16, enc_depth=2, enc_width=16, enc_heads=2,
                        dec_depth=2, dec_width=16, seed=3)
        save_checkpoint(root / "model.bin", cfg, MaeParams.init(cfg))
        # the reference runs on the stored (float32-rounded) weights
        _, params = load_checkpoint(root / "model.bin")
        specs = [crop_or_pad(standardize(logmel(load_wav(p))), cfg.input_t, seed=i)
                 for i, p in enumerate(wav_paths(wav_dir))]
        return root, wav_dir, cfg, params, specs

    @staticmethod
    def _analyze(root, wav_dir, metric, stack):
        out = root / f"{metric}-{stack}.csv"
        assert main(["analyze", metric, "--ckpt", str(root / "model.bin"),
                     "--data", str(wav_dir), "--out", str(out), "--stack", stack]) == 0
        with open(out, newline="") as fh:
            return list(csv.reader(fh))

    def test_pwcca_matches_and_keeps_no_probabilities(self, setup, monkeypatch):
        root, wav_dir, cfg, params, specs = setup
        collected = []

        def spy(*args, **kwargs):
            collected.append(collect(*args, **kwargs))
            return collected[-1]

        collect = cli.collect_stack
        monkeypatch.setattr(cli, "collect_stack", spy)
        rows = self._analyze(root, wav_dir, "pwcca", "decoder")
        (records,) = collected
        assert all(tap.probs == [] for ex in records.taps for tap in ex)

        ref = StackRecords(cfg.dec_depth, cfg.dec_heads,
                           full_stack_taps(cfg, params, specs, "decoder"), cfg.n_p)
        feats = [whiten(ref.features(layer, head))
                 for layer in range(cfg.dec_depth) for head in range(cfg.dec_heads)]
        want = np.array([[pwcca(a, b) for b in feats] for a in feats])
        assert rows[0] == [""] + ref.labels()
        got = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def _check_against_dense(self, setup, metric, stack, dense):
        """The CSV against `dense(per-example probs)` on each head's n x n
        block-diagonal embedding, from the untruncated stack's taps."""
        root, wav_dir, cfg, params, specs = setup
        rows = self._analyze(root, wav_dir, metric, stack)
        depth, heads = ((cfg.enc_depth, cfg.enc_heads) if stack == "encoder"
                        else (cfg.dec_depth, cfg.dec_heads))
        taps = full_stack_taps(cfg, params, specs, stack)
        want = [(layer, head, dense([ex[layer].probs[head] for ex in taps]))
                for layer in range(depth) for head in range(heads)]
        assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [w[:2] for w in want]
        np.testing.assert_allclose([float(r[2]) for r in rows[1:]], [w[2] for w in want],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stack", ["encoder", "decoder"])
    def test_entropy_matches(self, setup, stack):
        n_p = setup[2].n_p
        self._check_against_dense(setup, "entropy", stack,
                                  lambda probs: dense_entropy(probs, n_p))

    @pytest.mark.parametrize("stack", ["encoder", "decoder"])
    def test_distance_matches(self, setup, stack):
        cfg = setup[2]
        self._check_against_dense(setup, "distance", stack,
                                  lambda probs: dense_distance(probs, cfg.grid_t, cfg.grid_f))


class TestThreadedAnalyze:
    """`analyze` over stacks above `analysis.POOL_MIN_WIDTH` taps its clips
    and PWCCA rows on two threads and writes what the calling thread's loop
    writes, byte for byte, at one BLAS thread throughout (OpenBLAS on two
    threads rounds some products differently, pool or not)."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("analyze_pool")
        wav_dir = root / "wavs"
        assert main(["synth", "--kind", "tone", "--n", "3", "--seed", "2",
                     "--out", str(wav_dir)]) == 0
        cfg = MaeConfig(patch_t=4, patch_f=16, enc_depth=1, enc_width=256, enc_heads=4,
                        dec_depth=2, dec_width=384, seed=4)
        assert min(cfg.enc_width, cfg.dec_width) >= analysis.POOL_MIN_WIDTH
        save_checkpoint(root / "model.bin", cfg, MaeParams.init(cfg))
        return root, wav_dir

    @staticmethod
    def _argv(root, wav_dir, metric, stack, out):
        return ["analyze", metric, "--ckpt", str(root / "model.bin"), "--data", str(wav_dir),
                "--out", str(out), "--stack", stack]

    @pytest.mark.parametrize("metric, stack", [
        ("pwcca", "decoder"), ("entropy", "encoder"), ("entropy", "decoder"),
        ("distance", "encoder"), ("distance", "decoder")])
    def test_csv_bytes_match_the_serial_path(self, setup, tmp_path, monkeypatch,
                                             blas_threads, metric, stack):
        root, wav_dir = setup
        _, set_ = blas_threads
        set_(1)  # for both runs, as perfbench sets it
        workers = []
        real = analysis.patchify

        def spy(*args):
            workers.append(threading.current_thread() is not threading.main_thread())
            return real(*args)

        monkeypatch.setattr(analysis, "patchify", spy)
        pooled = tmp_path / "pooled.csv"
        assert main(self._argv(root, wav_dir, metric, stack, pooled)) == 0
        monkeypatch.setattr(analysis, "POOL_MIN_WIDTH", sys.maxsize)
        serial = tmp_path / "serial.csv"
        assert main(self._argv(root, wav_dir, metric, stack, serial)) == 0
        assert workers == [True] * 3 + [False] * 3
        assert pooled.read_bytes() == serial.read_bytes()

    def test_error_on_one_clip_leaves_no_thread_or_file(self, setup, tmp_path, monkeypatch,
                                                        capsys, blas_threads):
        root, wav_dir = setup
        get, set_ = blas_threads
        set_(2)
        real = analysis.random_mask

        def mask(n_p, ratio, seed):
            if seed == 1:
                raise FloatingPointError("clip 1 went non-finite")
            return real(n_p, ratio, seed=seed)

        monkeypatch.setattr(analysis, "random_mask", mask)
        out = tmp_path / "pwcca.csv"
        threads = threading.active_count()
        assert main(self._argv(root, wav_dir, "pwcca", "decoder", out)) == 1
        assert threading.active_count() == threads and get() == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: FloatingPointError: clip 1 went non-finite"]
        assert list(tmp_path.iterdir()) == []
