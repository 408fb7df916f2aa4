"""Scene embeddings, the shallow probe, and the normalized overall score."""

import numpy as np
import pytest

from mwmae import evalkit
from mwmae import tensor as T
from mwmae.audio import SAMPLE_RATE, AudioClip, crop_or_pad, logmel, standardize
from mwmae.errors import ContractError
from mwmae.evalkit import (
    TaskScoreTable,
    overall_score,
    scene_embedding,
    train_probe,
)
from mwmae.cli import main
from mwmae.container import save_tensors
from mwmae.model import MaeConfig, MaeParams, encode_all, patchify
from mwmae.tensor import Layout

from _toy import assert_views_spans


def _embed_config():
    return MaeConfig(input_t=200, input_f=80, patch_t=4, patch_f=16,
                     enc_depth=1, enc_width=16, enc_heads=2,
                     dec_depth=1, dec_width=16, seed=0)


def _tone(freq, seconds):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return AudioClip(0.3 * np.sin(2 * np.pi * freq * t))


class TestSceneEmbedding:
    def setup_method(self):
        self.cfg = _embed_config()
        self.params = MaeParams.init(self.cfg)

    def test_two_second_clip_single_chunk(self):
        emb = scene_embedding(_tone(440, 2.0), self.cfg, self.params)
        assert emb.shape == (self.cfg.enc_width,)
        assert np.all(np.isfinite(emb))

    def test_six_second_clip_three_chunks(self):
        emb = scene_embedding(_tone(440, 6.0), self.cfg, self.params)
        assert emb.shape == (self.cfg.enc_width,)

    def test_repeated_chunks_leave_embedding_unchanged(self):
        base = _tone(300, 2.0)
        doubled = AudioClip(np.concatenate([base.samples, base.samples]))
        e1 = scene_embedding(base, self.cfg, self.params)
        e2 = scene_embedding(doubled, self.cfg, self.params)
        np.testing.assert_allclose(e2, e1, atol=1e-9)

    def test_short_clip_padded(self):
        emb = scene_embedding(_tone(500, 0.7), self.cfg, self.params)
        assert emb.shape == (self.cfg.enc_width,)

    def test_deterministic(self):
        clip = _tone(880, 3.1)
        a = scene_embedding(clip, self.cfg, self.params)
        b = scene_embedding(clip, self.cfg, self.params)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("chunks", [0.35, 1.0, 1.5])
    def test_same_bytes_as_padding_the_whole_clip(self, chunks):
        # The reference zero-pads the whole clip to a multiple of the chunk
        # length and slices every chunk from that copy.
        chunk_len = int(evalkit.CHUNK_SECONDS * SAMPLE_RATE)
        clip = _tone(610, chunks * evalkit.CHUNK_SECONDS)
        n_chunks = -(-len(clip.samples) // chunk_len)
        padded = np.zeros(n_chunks * chunk_len)
        padded[:len(clip.samples)] = clip.samples
        blocks = []
        with T.no_grad():
            for c in range(n_chunks):
                spec = standardize(logmel(AudioClip(padded[c * chunk_len:(c + 1) * chunk_len])))
                spec = crop_or_pad(spec[:self.cfg.input_t], self.cfg.input_t, seed=0)
                patches = patchify(spec, self.cfg.patch_t, self.cfg.patch_f)
                blocks.append(encode_all(patches, self.cfg, self.params).data)
        want = np.concatenate(blocks, axis=0).mean(axis=0)
        got = scene_embedding(clip, self.cfg, self.params)
        assert got.tobytes() == want.tobytes()


def _blobs(n_per_class, n_classes, dim, margin, seed):
    """Unit-variance Gaussian clouds whose centers sit `margin` sigmas apart."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centers = directions * margin
    feats, labels = [], []
    for c in range(n_classes):
        feats.append(centers[c] + rng.normal(size=(n_per_class, dim)))
        labels.extend([c] * n_per_class)
    feats = np.concatenate(feats)
    labels = np.array(labels)
    splits = np.array((["train"] * 2 + ["valid", "test"]) * (len(labels) // 4 + 1))
    return feats, labels, splits[:len(labels)]


def _probe_cli(tmp_path, multilabel):
    """Write a small embeddings file and label CSV; return a function that
    runs `mwmae probe` on them at a fixed seed and returns the JSON bytes."""
    feats, labels, splits = _blobs(12, 3, 6, margin=2.0, seed=6)
    save_tensors(tmp_path / "emb.bin", {f"c{i}.wav": f for i, f in enumerate(feats)})
    rows = ["filename,split,label"] + [
        f"c{i}.wav,{sp},{f'k{lab};x{i % 2}' if multilabel else lab}"
        for i, (lab, sp) in enumerate(zip(labels, splits))]
    (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n")

    def probe_json(name):
        out = tmp_path / name
        assert main(["--seed", "4", "probe", "--embeddings", str(tmp_path / "emb.bin"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)]) == 0
        return out.read_bytes()

    return probe_json


def _inline_probe_adam():
    """A stand-in for adamw_step that runs the Adam loop train_probe used to
    inline: per-tensor moment dicts, PROBE_BETAS and PROBE_LR, no decay."""
    run = {}

    def step(named, grads, state, lr, cfg, no_decay=frozenset(), eps=1e-8):
        if run.get("state") is not state:
            run.update(state=state, adam_t=0,
                       m={k: np.zeros_like(t.data) for k, t in named.items()},
                       v={k: np.zeros_like(t.data) for k, t in named.items()})
        m, v = run["m"], run["v"]
        b1c, b2c = evalkit.PROBE_BETAS
        run["adam_t"] += 1
        k1 = 1.0 - b1c ** run["adam_t"]
        k2 = 1.0 - b2c ** run["adam_t"]
        for k, t in named.items():
            g = t.grad
            m[k] = b1c * m[k] + (1 - b1c) * g
            v[k] = b2c * v[k] + (1 - b2c) * g * g
            t.data -= evalkit.PROBE_LR * (m[k] / k1) / (np.sqrt(v[k] / k2) + 1e-8)

    return step


class TestTrainProbe:
    def test_separable_blobs(self):
        feats, labels, splits = _blobs(200, 2, 8, margin=6.0, seed=0)
        result = train_probe(feats, labels, splits, seed=0)
        assert result.metric_name == "accuracy"
        assert result.test_metric >= 0.99

    def test_shuffled_labels_at_chance(self):
        rng = np.random.default_rng(1)
        n = 1600
        feats = rng.normal(size=(n, 12))
        labels = np.tile(np.arange(4), n // 4)
        splits = np.array((["train"] * 2 + ["valid", "test"]) * (n // 4))
        shuffled = rng.permutation(labels)
        result = train_probe(feats, shuffled, splits, seed=1)
        assert abs(result.test_metric - 0.25) <= 0.05

    def test_same_seed_same_metric(self):
        feats, labels, splits = _blobs(30, 3, 6, margin=2.0, seed=2)
        a = train_probe(feats, labels, splits, seed=9)
        b = train_probe(feats, labels, splits, seed=9)
        assert a.test_metric == b.test_metric
        assert a.best_epoch == b.best_epoch

    @pytest.mark.parametrize("multilabel", [False, True])
    def test_probe_json_same_as_composed_matmul_add(self, tmp_path, monkeypatch, multilabel):
        # T.linear runs the same float ops as matmul followed by a bias add,
        # so the probe's output file must not change by a single byte.
        probe_json = _probe_cli(tmp_path, multilabel)
        fused = probe_json("fused.json")
        matmul = T.matmul
        monkeypatch.setattr(T, "linear", lambda a, w, b: matmul(a, w) + b)
        assert probe_json("composed.json") == fused

    @pytest.mark.parametrize("multilabel", [False, True])
    def test_probe_json_same_as_inline_adam_loop(self, tmp_path, monkeypatch, multilabel):
        # adamw_step with weight_decay=0 runs the old loop's float ops in the
        # same order, so the probe's output file must not change by a byte.
        # The parameters after every step are compared too, since a metric
        # rarely moves with the last bit of a weight.
        probe_json = _probe_cli(tmp_path, multilabel)
        runs = []
        for step, name in ((evalkit.adamw_step, "flat.json"),
                           (_inline_probe_adam(), "inline.json")):
            trail = []

            def recording(named, *args, step=step, trail=trail, **kwargs):
                step(named, *args, **kwargs)
                trail.append(b"".join(t.data.tobytes() for t in named.values()))

            monkeypatch.setattr(evalkit, "adamw_step", recording)
            runs.append((probe_json(name), trail))
        (flat_json, flat_trail), (inline_json, inline_trail) = runs
        assert inline_json == flat_json
        assert len(flat_trail) > 0 and inline_trail == flat_trail

    def test_best_epoch_restored_into_the_flat_buffer(self, monkeypatch):
        feats, labels, splits = _blobs(30, 3, 6, margin=2.0, seed=2)
        seen = {"after": []}
        real = evalkit.adamw_step

        def spy(named, grads, state, *args, **kwargs):
            real(named, grads, state, *args, **kwargs)
            seen.update(named=named, state=state)
            seen["after"].append(state.params.copy())

        monkeypatch.setattr(evalkit, "adamw_step", spy)
        result = train_probe(feats, labels, splits, seed=9)
        # one batch per epoch, so step k ends epoch k
        assert len(seen["after"]) == result.epochs_ran > result.best_epoch
        named, state = seen["named"], seen["state"]
        assert all(np.shares_memory(t.data, state.params) for t in named.values())
        best = seen["after"][result.best_epoch - 1]
        assert state.params.tobytes() == best.tobytes() != seen["after"][-1].tobytes()

    def test_leaves_view_one_buffer_at_their_spans(self, monkeypatch):
        feats, labels, splits = _blobs(30, 3, 6, margin=2.0, seed=2)
        seen = []
        real = evalkit.adamw_step

        def spy(named, grads, state, *args, **kwargs):
            seen.append((named, state))
            real(named, grads, state, *args, **kwargs)

        monkeypatch.setattr(evalkit, "adamw_step", spy)
        train_probe(feats, labels, splits, seed=9)
        named, state = seen[0]
        hidden = evalkit.PROBE_HIDDEN
        layout = Layout({"w1": (6, hidden), "b1": (hidden,), "w2": (hidden, 3), "b2": (3,)})
        assert all(n is named and s is state for n, s in seen)
        assert state.spans == layout.spans
        assert_views_spans(named, state.params, layout)

    def test_single_class_rejected(self):
        feats = np.random.default_rng(3).normal(size=(40, 4))
        labels = np.zeros(40, dtype=int)
        splits = np.array((["train", "train", "valid", "test"]) * 10)
        with pytest.raises(ContractError):
            train_probe(feats, labels, splits, seed=0)

    def test_missing_split_rejected(self):
        feats = np.random.default_rng(4).normal(size=(10, 4))
        labels = np.tile([0, 1], 5)
        splits = np.array(["train"] * 10)
        with pytest.raises(ContractError, match="valid"):
            train_probe(feats, labels, splits, seed=0)

    def test_multilabel_map(self):
        rng = np.random.default_rng(5)
        n = 400
        # two informative binary labels driven by feature signs
        feats = rng.normal(size=(n, 10))
        labels = np.stack([feats[:, 0] > 0, feats[:, 1] > 0], axis=1).astype(float)
        splits = np.array((["train"] * 2 + ["valid", "test"]) * (n // 4))
        result = train_probe(feats, labels, splits, seed=2)
        assert result.metric_name == "mAP"
        assert result.test_metric > 0.8


class TestOverallScore:
    def _table(self):
        return TaskScoreTable(
            models=["A", "B", "C"],
            tasks=["t1", "t2"],
            scores=np.array([[10.0, 50.0], [20.0, 50.0], [30.0, 100.0]]),
        )

    def test_worked_example(self):
        # s(B) = (100*10/20 + 100*0/50) / 2 = 25
        assert overall_score(self._table(), "B") == 25.0

    def test_best_everywhere_is_100(self):
        assert overall_score(self._table(), "C") == 100.0

    def test_worst_everywhere_is_0(self):
        assert overall_score(self._table(), "A") == 0.0

    def test_affine_rescaling_preserves_scores(self):
        t = self._table()
        rescaled = TaskScoreTable(
            models=t.models, tasks=t.tasks,
            scores=np.stack([t.scores[:, 0] * 3.0 + 7.0, t.scores[:, 1]], axis=1),
        )
        for m in t.models:
            assert abs(overall_score(t, m) - overall_score(rescaled, m)) < 1e-12

    def test_tie_task_adds_100_and_keeps_ranking(self):
        t = self._table()
        with_tie = TaskScoreTable(
            models=t.models, tasks=t.tasks + ["tie"],
            scores=np.concatenate([t.scores, np.full((3, 1), 5.0)], axis=1),
        )
        base = {m: overall_score(t, m) for m in t.models}
        tied = {m: overall_score(with_tie, m) for m in t.models}
        base_rank = sorted(t.models, key=base.get)
        tied_rank = sorted(t.models, key=tied.get)
        assert base_rank == tied_rank
        assert tied["C"] == 100.0

    def test_lower_is_better_flag(self):
        t = TaskScoreTable(
            models=["A", "B"], tasks=["err"],
            scores=np.array([[0.1], [0.9]]),
            higher_is_better=[False],
        )
        assert overall_score(t, "A") == 100.0
        assert overall_score(t, "B") == 0.0

    @pytest.mark.parametrize("n_tasks, flags", [(2, [False]), (1, [True, False, True])])
    def test_one_flag_per_task(self, n_tasks, flags):
        tasks = [f"t{i}" for i in range(n_tasks)]
        with pytest.raises(ContractError, match=f"{len(flags)} higher_is_better flags "
                                                f"for {n_tasks} tasks"):
            TaskScoreTable(models=["A", "B"], tasks=tasks,
                           scores=np.ones((2, n_tasks)), higher_is_better=flags)

    def test_unknown_model_is_named(self):
        with pytest.raises(ContractError, match="unknown model 'zzz'"):
            overall_score(self._table(), "zzz")

    def test_incomplete_table_rejected(self):
        with pytest.raises(ContractError):
            TaskScoreTable(models=["A"], tasks=["t"], scores=np.array([[np.nan]]))
