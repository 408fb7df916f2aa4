"""Masked autoencoder: patch layout, masking, encode/decode, loss, checkpoints."""

import dataclasses
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmae import tensor as T
from mwmae.analysis import collect_stack
from mwmae.attention import window_schedule
from mwmae.errors import ContractError, DimensionError
from mwmae.model import (
    MaeConfig,
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
from mwmae.tensor import Tensor, grad_check

from _toy import (assert_views_spans, full_stack_taps, param_grad_errors, tiny_config,
                  toy_spectrograms)


class TestPatchify:
    def test_reference_counts_4x16(self):
        spec = np.random.default_rng(0).normal(size=(200, 80))
        patches = patchify(spec, 4, 16)
        assert patches.shape == (250, 64)

    def test_reference_counts_5x5(self):
        spec = np.random.default_rng(1).normal(size=(200, 80))
        assert patchify(spec, 5, 5).shape == (640, 25)

    def test_constant_input(self):
        patches = patchify(np.full((8, 8), 2.5), 2, 2)
        np.testing.assert_array_equal(patches, 2.5)

    def test_roundtrip_exact(self):
        spec = np.random.default_rng(2).normal(size=(200, 80))
        back = unpatchify(patchify(spec, 4, 16), 4, 16, 200, 80)
        np.testing.assert_array_equal(back, spec)

    def test_time_major_frequency_minor_order(self):
        # patch index = t_block * (F/pf) + f_block
        spec = np.arange(8 * 8, dtype=float).reshape(8, 8)
        patches = patchify(spec, 2, 2)
        np.testing.assert_array_equal(patches[0], [0, 1, 8, 9])        # (t0, f0)
        np.testing.assert_array_equal(patches[1], [2, 3, 10, 11])      # (t0, f1)
        np.testing.assert_array_equal(patches[4], [16, 17, 24, 25])    # (t1, f0)

    def test_nondividing_rejected(self):
        with pytest.raises(DimensionError):
            patchify(np.zeros((200, 80)), 3, 16)


class TestPosEmbed:
    def test_position_zero_alternates_zero_one(self):
        table = sincos_pos_embed(4, 8)
        np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_bounded(self):
        table = sincos_pos_embed(500, 32)
        assert np.all(table >= -1.0) and np.all(table <= 1.0)

    def test_rows_distinct(self):
        table = sincos_pos_embed(10_000, 16)
        # sorted-neighbors scan: all pairwise-distinct iff no adjacent duplicates
        order = np.lexsort(table.T)
        adjacent = table[order[1:]] - table[order[:-1]]
        assert np.all(np.abs(adjacent).max(axis=1) > 0)

    def test_odd_width_rejected(self):
        with pytest.raises(ContractError):
            sincos_pos_embed(10, 7)


class TestRandomMask:
    def test_reference_counts(self):
        mask = random_mask(250, 0.8, seed=0)
        assert len(mask.masked_idx) == 200
        assert len(mask.visible_idx) == 50

    def test_deterministic(self):
        a = random_mask(100, 0.8, seed=42)
        b = random_mask(100, 0.8, seed=42)
        np.testing.assert_array_equal(a.visible_idx, b.visible_idx)
        np.testing.assert_array_equal(a.masked_idx, b.masked_idx)

    def test_partition_and_sortedness(self):
        mask = random_mask(64, 0.75, seed=7)
        assert np.array_equal(np.sort(np.concatenate([mask.visible_idx, mask.masked_idx])),
                              np.arange(64))
        assert np.all(np.diff(mask.visible_idx) > 0)
        assert np.all(np.diff(mask.masked_idx) > 0)

    def test_visible_frequency(self):
        # each index should be visible about 20% of the time
        n_p, trials = 50, 10_000
        counts = np.zeros(n_p)
        for seed in range(trials):
            counts[random_mask(n_p, 0.8, seed).visible_idx] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ContractError):
            random_mask(10, 0.99, seed=0)  # rounds to 10 masked, 0 visible
        with pytest.raises(ContractError):
            random_mask(10, 0.01, seed=0)  # rounds to 0 masked

    def test_maskset_validates_partition(self):
        with pytest.raises(ContractError):
            MaskSet(np.array([0, 1]), np.array([1, 2]))


class TestEncodeDecode:
    def setup_method(self):
        self.cfg = tiny_config()
        self.params = MaeParams.init(self.cfg)
        self.rng = np.random.default_rng(3)
        self.spec = self.rng.normal(size=(8, 8))
        self.patches = patchify(self.spec, 2, 2)
        self.mask = random_mask(self.cfg.n_p, 0.8, seed=5)

    def test_latent_shape(self):
        latent = encode(self.patches, self.mask, self.cfg, self.params)
        assert latent.shape == (len(self.mask.visible_idx), self.cfg.enc_width)

    def test_reference_visible_fraction(self):
        cfg = MaeConfig(seed=0)  # 200x80, 4x16 -> 250 patches
        mask = random_mask(cfg.n_p, cfg.mask_ratio, seed=1)
        assert len(mask.visible_idx) == 50

    def test_masked_patch_contents_do_not_affect_latent(self):
        latent = encode(self.patches, self.mask, self.cfg, self.params).data
        tampered = self.patches.copy()
        tampered[self.mask.masked_idx] = self.rng.normal(size=(len(self.mask.masked_idx), 4))
        latent2 = encode(tampered, self.mask, self.cfg, self.params).data
        np.testing.assert_array_equal(latent, latent2)

    def test_decode_output_shape(self):
        latent = encode(self.patches, self.mask, self.cfg, self.params)
        pred = decode(latent, self.mask, self.cfg, self.params)
        assert pred.shape == (self.cfg.n_p, self.cfg.patch_dim)

    def test_decode_rejects_wrong_latent(self):
        latent = encode(self.patches, self.mask, self.cfg, self.params)
        bad = random_mask(self.cfg.n_p, 0.5, seed=5)
        with pytest.raises(ContractError):
            decode(latent, bad, self.cfg, self.params)

    def test_decoder_uses_reference_schedule(self):
        cfg = MaeConfig(seed=0)
        assert cfg.dec_schedule.windows == (2, 5, 10, 25, 50, 125, 250, 250)

    def test_depth_zero_decoder_does_not_mix(self):
        # with no decoder blocks, a masked row sees only the mask token and
        # its position: outputs there cannot depend on the spectrogram
        cfg = tiny_config(dec_depth=0)
        params = MaeParams.init(cfg)
        mask = random_mask(cfg.n_p, 0.8, seed=3)
        rng = np.random.default_rng(6)
        preds = []
        for _ in range(2):
            patches = patchify(rng.normal(size=(8, 8)), 2, 2)
            latent = encode(patches, mask, cfg, params)
            preds.append(decode(latent, mask, cfg, params).data)
        np.testing.assert_array_equal(preds[0][mask.masked_idx],
                                      preds[1][mask.masked_idx])
        assert not np.allclose(preds[0][mask.visible_idx],
                               preds[1][mask.visible_idx])


class TestMaskedMse:
    def test_visible_rows_excluded(self):
        rng = np.random.default_rng(4)
        target = rng.normal(size=(6, 4))
        mask = random_mask(6, 0.5, seed=0)
        pred = target.copy()
        pred[mask.visible_idx] = 999.0  # garbage on visible rows
        loss = masked_mse(Tensor(pred), target, mask)
        assert loss.item() == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(5)
        target = rng.normal(size=(8, 3))
        mask = random_mask(8, 0.5, seed=1)
        pred = target.copy()
        pred[mask.masked_idx] += 0.7
        loss = masked_mse(Tensor(pred), target, mask)
        np.testing.assert_allclose(loss.item(), 0.49, rtol=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        target = rng.normal(size=(6, 4))
        pred = rng.normal(size=(6, 4))
        mask = random_mask(6, 0.5, seed=2)
        total = 0.0
        for i in mask.masked_idx:
            for j in range(4):
                total += (pred[i, j] - target[i, j]) ** 2
        ref = total / (len(mask.masked_idx) * 4)
        got = masked_mse(Tensor(pred), target, mask).item()
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_empty_mask_rejected(self):
        full = MaskSet(np.arange(4), np.arange(0))
        with pytest.raises(ContractError):
            masked_mse(Tensor(np.zeros((4, 2))), np.zeros((4, 2)), full)


class TestMaeForward:
    def test_bit_reproducible(self):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        spec = np.random.default_rng(7).normal(size=(8, 8))
        a = mae_forward(spec, cfg, params, seed=3)
        b = mae_forward(spec, cfg, params, seed=3)
        assert a.loss.item() == b.loss.item()
        np.testing.assert_array_equal(a.pred_patches, b.pred_patches)

    def test_loss_finite_and_nonnegative(self):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        spec = np.random.default_rng(8).normal(size=(8, 8))
        out = mae_forward(spec, cfg, params, seed=0)
        assert np.isfinite(out.loss.item()) and out.loss.item() >= 0

    def test_loss_ignores_visible_targets(self):
        # handled at the masked_mse level; checked end to end in acceptance
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        spec = np.random.default_rng(9).normal(size=(8, 8))
        patches = patchify(spec, 2, 2)
        mask = random_mask(cfg.n_p, cfg.mask_ratio, seed=11)
        latent = encode(patches, mask, cfg, params)
        pred = decode(latent, mask, cfg, params)
        base = masked_mse(pred, patches, mask).item()
        tampered = patches.copy()
        tampered[mask.visible_idx] += 123.0
        again = masked_mse(pred, tampered, mask).item()
        assert abs(base - again) < 1e-12


def _config_250(**overrides):
    """200x80 input in 4x16 patches: 250 patches, decoder windows 2..125 plus
    two global heads."""
    kwargs = dict(patch_t=4, patch_f=16, enc_depth=1, enc_width=16, enc_heads=2,
                  dec_depth=1, dec_width=16)
    kwargs.update(overrides)
    return MaeConfig(**kwargs)


class TestBatchedForward:
    """One graph per minibatch against the per-example mean it replaces."""

    @pytest.mark.parametrize("make_cfg", [tiny_config, _config_250], ids=["tiny", "250"])
    def test_loss_and_every_gradient_match_per_example_mean(self, make_cfg):
        cfg = make_cfg()
        params = MaeParams.init(cfg)
        named = params.named()
        specs = np.random.default_rng(20).normal(size=(4, cfg.input_t, cfg.input_f))
        seeds = [31, 32, 33, 34]

        losses, preds = [], []
        for spec, seed in zip(specs, seeds):
            out = mae_forward(spec, cfg, params, seed=seed)
            out.loss.backward()
            losses.append(out.loss.item())
            preds.append(out.pred_patches)
        ref = {k: t.grad / len(specs) for k, t in named.items()}
        for t in named.values():
            t.zero_grad()

        out = mae_forward(specs, cfg, params, seed=seeds)
        out.loss.backward()
        assert abs(out.loss.item() - np.mean(losses)) <= 1e-12
        np.testing.assert_allclose(out.pred_patches, np.stack(preds), rtol=0, atol=1e-12)
        for name, t in named.items():
            np.testing.assert_allclose(t.grad, ref[name], rtol=0, atol=1e-12, err_msg=name)

    def test_each_example_keeps_its_mask(self):
        masks = [random_mask(16, 0.8, seed) for seed in (1, 2, 3)]
        stacked = MaskSet.stack(masks)
        assert stacked.visible_idx.shape == (3, 3)
        assert stacked.n_p == 16
        for row, m in zip(stacked.masked_idx, masks):
            np.testing.assert_array_equal(row, m.masked_idx)
        with pytest.raises(ContractError):
            MaskSet(np.array([[0, 1], [0, 2]]), np.array([[2], [2]]))

    def test_batch_and_seed_counts_must_agree(self):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        specs = np.zeros((3, 8, 8))
        with pytest.raises(ContractError):
            mae_forward(specs, cfg, params, seed=[1, 2])
        with pytest.raises(DimensionError):
            encode(np.zeros((3, 16, 4)), random_mask(16, 0.8, 0), cfg, params)


def _seed_win_attention(q, k, v, win, tap=None):
    """Windowed attention from composed ops, with a tap that copies P: the
    reference for the fused node in the eval paths."""
    n, d_k = q.shape
    qw, kw, vw = (T.reshape(t, (n // win, win, d_k)) for t in (q, k, v))
    probs = T.softmax_lastdim(T.scale(T.matmul(qw, T.transpose(kw)), 1.0 / np.sqrt(d_k)))
    if tap is not None:
        tap.probs.append(probs.data.copy())
    return T.reshape(T.matmul(probs, vw), (n, d_k))


def test_eval_paths_match_composed_attention(monkeypatch):
    cfg = _config_250(dec_depth=2)
    params = MaeParams.init(cfg)
    specs = list(np.random.default_rng(21).normal(size=(2, 200, 80)))

    def run():
        records = collect_stack(cfg, params, specs, stack="decoder")
        tokens = encode_all(patchify(specs[0], 4, 16), cfg, params).data
        return records, tokens

    fused, fused_tokens = run()
    monkeypatch.setattr(importlib.import_module("mwmae.attention"), "win_attention",
                        _seed_win_attention)
    ref, ref_tokens = run()
    np.testing.assert_allclose(fused_tokens, ref_tokens, rtol=0, atol=1e-12)
    for ex_got, ex_ref in zip(fused.taps, ref.taps):
        for got, want in zip(ex_got, ex_ref):
            assert len(got.probs) == len(want.probs) == cfg.dec_heads
            for a, b in zip(got.probs + got.head_out, want.probs + want.head_out):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stack", ["encoder", "decoder"])
@pytest.mark.parametrize("make_cfg", [tiny_config,
                                      lambda: _config_250(enc_depth=2, dec_depth=2)],
                         ids=["tiny", "250"])
def test_truncated_stacks_tap_what_the_full_stack_taps(make_cfg, stack):
    cfg = make_cfg()
    params = MaeParams.init(cfg)
    specs = list(np.random.default_rng(22).normal(size=(2, cfg.input_t, cfg.input_f)))
    got = collect_stack(cfg, params, specs, stack=stack).taps
    want = full_stack_taps(cfg, params, specs, stack)
    depth = cfg.enc_depth if stack == "encoder" else cfg.dec_depth
    for ex_got, ex_want in zip(got, want, strict=True):
        assert len(ex_got) == len(ex_want) == depth
        for g, w in zip(ex_got, ex_want):
            assert len(g.probs) == len(w.probs) == len(g.head_out) == len(w.head_out) > 0
            for a, b in zip(g.probs + g.head_out, w.probs + w.head_out):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("stack,want", [
    # embed; two full blocks (2 norms, 2 MLP linears, 1 GELU each); ln1 of the last
    ("encoder", {"layer_norm": 5, "linear": 5, "gelu": 2}),
    # the full encoder (7 norms, 7 linears, 3 GELUs), the latent projection,
    # two full decoder blocks and ln1 of the last: no final norm, no head
    ("decoder", {"layer_norm": 12, "linear": 12, "gelu": 5}),
])
def test_taps_run_nothing_after_the_last_attention(monkeypatch, stack, want):
    cfg = tiny_config(enc_depth=3, dec_depth=3)
    calls = dict.fromkeys(want, 0)
    for name in want:
        def counted(*args, _name=name, _fn=getattr(T, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(T, name, counted)
    collect_stack(cfg, MaeParams.init(cfg), toy_spectrograms(1), stack=stack)
    assert calls == want


class TestEndToEndGradients:
    def test_every_parameter_group_passes_grad_check(self):
        cfg = tiny_config(enc_depth=1, dec_depth=1, enc_width=8)
        params = MaeParams.init(cfg)
        spec = np.random.default_rng(10).normal(size=(8, 8))
        errors = param_grad_errors(cfg, params, spec)
        bad = {k: v for k, v in errors.items() if v >= 1e-4}
        assert not bad, f"gradient mismatches: {bad}"

    def test_grad_check_wrt_predictions(self):
        cfg = tiny_config()
        spec = np.random.default_rng(12).normal(size=(8, 8))
        patches0 = patchify(spec, 2, 2)
        mask = random_mask(cfg.n_p, cfg.mask_ratio, seed=4)
        pred0 = Tensor(np.random.default_rng(13).normal(size=patches0.shape))
        err = grad_check(lambda t: masked_mse(t, patches0, mask), pred0, eps=1e-5)
        assert err < 1e-4


class TestMaeConfig:
    def test_validation_names_field(self):
        with pytest.raises(ContractError, match="mask_ratio"):
            tiny_config(mask_ratio=1.0)
        with pytest.raises(ContractError, match="patch_t"):
            MaeConfig(input_t=200, input_f=80, patch_t=3, patch_f=16)

    @pytest.mark.parametrize("field, value, match", [
        ("patch_t", 0, "field 'patch_t' must be >= 1, got 0"),  # was a ZeroDivisionError
        ("enc_heads", 0, "field 'enc_heads' must be >= 1, got 0"),
        ("seed", -1, "field 'seed' must be >= 0, got -1"),
        ("enc_width", 16.0, "field 'enc_width' must be int, got 16.0"),
        ("mask_ratio", float("nan"), "field 'mask_ratio' must be finite"),
        ("dec_width", 9, "field 'dec_width' must be even, got 9"),  # was refused by init
    ])
    def test_each_field_is_checked_first(self, field, value, match):
        with pytest.raises(ContractError, match=match):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("ratio, match", [
        (0.01, "mask_ratio=0.01 leaves 0 masked of 16 patches"),
        (0.99, "mask_ratio=0.99 leaves 16 masked of 16 patches"),
    ])
    def test_ratio_that_leaves_no_masked_or_no_visible_patch(self, ratio, match):
        with pytest.raises(ContractError, match=match):  # was refused at the first step
            tiny_config(mask_ratio=ratio)

    def test_fields_cannot_be_assigned(self):
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = -1  # would skip the checks and save a sidecar that does not load
        assert dataclasses.replace(cfg, seed=3).seed == 3

    def test_derived_quantities(self):
        cfg = MaeConfig()
        assert cfg.n_p == 250
        assert cfg.patch_dim == 64
        assert cfg.dec_heads == 8
        assert (cfg.grid_t, cfg.grid_f) == (50, 5)


class TestReplica:
    def test_shares_arrays_not_leaves(self):
        params = MaeParams.init(tiny_config())
        replica = params.replica()
        named, twin = params.named(), replica.named()
        assert list(twin) == list(named)
        for k, t in named.items():
            assert twin[k] is not t and twin[k].requires_grad
        assert_views_spans(twin, params.flat, MaeParams.layout(tiny_config()))
        assert replica.enc_pos is params.enc_pos and replica.dec_pos is params.dec_pos

    def test_backward_writes_only_its_own_leaves(self):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        replica = params.replica()
        spec = np.random.default_rng(3).normal(size=(8, 8))
        mae_forward(spec, cfg, replica, seed=1).loss.backward()
        assert all(t.grad is None for t in params.named().values())
        assert all(t.grad is not None for t in replica.named().values())


class TestFlatParameters:
    """Every leaf views one float64 buffer, laid out from the config alone."""

    def test_init_leaves_view_one_buffer(self):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        layout = MaeParams.layout(cfg)
        assert params.flat.shape == (layout.size,)
        assert_views_spans(params.named(), params.flat, layout)

    def test_load_views_one_buffer_and_draws_nothing(self, tmp_path, monkeypatch):
        cfg = tiny_config(seed=4)
        params = MaeParams.init(cfg)
        save_checkpoint(tmp_path / "m.bin", cfg, params)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from a generator")

        for module in ("mwmae.model", "mwmae.attention"):
            monkeypatch.setattr(importlib.import_module(module), "glorot", no_draw)
        monkeypatch.setattr(importlib.import_module("mwmae.model").np.random, "default_rng",
                            no_draw)
        cfg2, loaded = load_checkpoint(tmp_path / "m.bin")
        assert cfg2 == cfg
        assert_views_spans(loaded.named(), loaded.flat, MaeParams.layout(cfg))
        np.testing.assert_array_equal(loaded.flat, params.flat.astype(np.float32))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        for name, t in params.named().items():
            np.testing.assert_allclose(params2.named()[name].data, t.data, atol=1e-6)

    def test_forward_close_after_roundtrip(self, tmp_path):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        spec = np.random.default_rng(11).normal(size=(8, 8))
        before = mae_forward(spec, cfg, params, seed=0).loss.item()
        save_checkpoint(tmp_path / "m.bin", cfg, params)
        cfg2, params2 = load_checkpoint(tmp_path / "m.bin")
        after = mae_forward(spec, cfg2, params2, seed=0).loss.item()
        assert abs(before - after) < 1e-4

    def test_unwritable_config_leaves_the_previous_pair(self, tmp_path):
        path = tmp_path / "m.bin"
        sidecar = tmp_path / "m.bin.json"
        save_checkpoint(path, tiny_config(), MaeParams.init(tiny_config()))
        before = path.read_bytes(), sidecar.read_bytes()
        wide = tiny_config(enc_width=32)
        object.__setattr__(wide, "seed", np.int64(5))  # past the checks; json cannot write it
        with pytest.raises(TypeError):
            save_checkpoint(path, wide, MaeParams.init(wide))
        assert (path.read_bytes(), sidecar.read_bytes()) == before
        assert load_checkpoint(path)[0] == tiny_config()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "m.bin.json"]

    def test_tampered_checkpoint_rejected(self, tmp_path):
        from mwmae.container import load_tensors, save_tensors

        cfg = tiny_config()
        params = MaeParams.init(cfg)
        path = tmp_path / "m.bin"
        save_checkpoint(path, cfg, params)
        tensors = load_tensors(path)
        del tensors["mask_token"]
        save_tensors(path, tensors)
        with pytest.raises(ContractError, match="mask_token"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change, match", [
        ("drop", "checkpoint mismatch: missing \\['head.b'\\], unexpected \\[\\]"),
        ("extra", "checkpoint mismatch: missing \\[\\], unexpected \\['head.c'\\]"),
        ("shape", "checkpoint tensor 'head.b': shape \\(3,\\) != expected \\(4,\\)"),
    ])
    def test_tensor_errors_name_the_file(self, tmp_path, change, match):
        from mwmae.container import load_tensors, save_tensors

        path = tmp_path / "m.bin"
        save_checkpoint(path, tiny_config(), MaeParams.init(tiny_config()))
        tensors = load_tensors(path)
        if change == "drop":
            del tensors["head.b"]
        elif change == "extra":
            tensors["head.c"] = tensors["head.b"]
        else:
            tensors["head.b"] = tensors["head.b"][:3]
        save_tensors(path, tensors)
        with pytest.raises(ContractError, match=match) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: checkpoint ")


def _good_sidecar():
    return json.dumps(dataclasses.asdict(tiny_config()))


class TestCheckpointSidecar:
    """A malformed config sidecar raises ContractError naming the sidecar
    and the field, before any tensor is read."""

    @pytest.fixture
    def ckpt(self, tmp_path, monkeypatch):
        path = tmp_path / "m.bin"
        save_checkpoint(path, tiny_config(), MaeParams.init(tiny_config()))

        def no_tensors(p):
            raise AssertionError("tensors loaded before the sidecar was checked")

        monkeypatch.setattr(importlib.import_module("mwmae.model"), "load_tensors",
                            no_tensors)
        return path

    def _rejects(self, ckpt, text, match):
        sidecar = ckpt.with_suffix(".bin.json")
        if text is None:
            sidecar.unlink()
        else:
            sidecar.write_text(text)
        with pytest.raises(ContractError, match=match) as info:
            load_checkpoint(ckpt)
        assert str(sidecar) in str(info.value)

    def test_unknown_key(self, ckpt):
        text = _good_sidecar()[:-1] + ', "dec_heads": 4}'
        self._rejects(ckpt, text, "unknown fields \\['dec_heads'\\]")

    def test_missing_key(self, ckpt):
        text = json.dumps({k: v for k, v in json.loads(_good_sidecar()).items()
                           if k != "patch_f"})
        self._rejects(ckpt, text, "missing fields \\['patch_f'\\]")

    def test_not_an_object(self, ckpt):
        self._rejects(ckpt, "[1, 2, 3]", "must be a JSON object, got list")

    def test_not_json(self, ckpt):
        self._rejects(ckpt, "input_t = 8\n", "not JSON")

    def test_seed_of_wrong_type(self, ckpt):
        text = _good_sidecar().replace('"seed": 0', '"seed": "x"')
        self._rejects(ckpt, text, "field 'seed' must be int, got 'x'")

    def test_bool_is_not_an_int(self, ckpt):
        text = _good_sidecar().replace('"enc_depth": 2', '"enc_depth": true')
        self._rejects(ckpt, text, "field 'enc_depth' must be int")

    def test_zero_patch_size(self, ckpt):
        text = _good_sidecar().replace('"patch_t": 2', '"patch_t": 0')
        self._rejects(ckpt, text, "field 'patch_t' must be >= 1")

    def test_config_check_names_sidecar(self, ckpt):
        text = _good_sidecar().replace('"mask_ratio": 0.8', '"mask_ratio": 1.5')
        self._rejects(ckpt, text, "mask_ratio")

    def test_missing_sidecar(self, ckpt):
        self._rejects(ckpt, None, "sidecar is missing")


@st.composite
def _small_configs(draw):
    """Small valid MaeConfig keyword sets: at least two patches, even widths
    that the encoder heads and the scheduled decoder heads divide, and a
    ratio from one masked patch to one visible patch, clear of the rounding
    edges half a patch further out."""
    patch_t, patch_f = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid_t = draw(st.integers(1, 4))
    grid_f = draw(st.integers(2 if grid_t == 1 else 1, 4))
    n_p = grid_t * grid_f
    enc_heads = draw(st.integers(1, 3))
    return dict(
        input_t=patch_t * grid_t, input_f=patch_f * grid_f,
        patch_t=patch_t, patch_f=patch_f,
        enc_depth=draw(st.integers(0, 2)), enc_heads=enc_heads,
        enc_width=enc_heads * 2 * draw(st.integers(1, 3)),
        dec_depth=draw(st.integers(0, 2)),
        dec_width=window_schedule(n_p).n_heads * 2 * draw(st.integers(1, 2)),
        mask_ratio=draw(st.floats(1 / n_p, (n_p - 1) / n_p)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(_small_configs())
@settings(max_examples=40, deadline=None)
def test_every_accepted_config_saves_and_loads_back(tmp_path_factory, kwargs):
    cfg = MaeConfig(**kwargs)
    params = MaeParams.init(cfg)
    path = tmp_path_factory.mktemp("ckpt") / "m.bin"
    save_checkpoint(path, cfg, params)
    cfg2, params2 = load_checkpoint(path)
    assert cfg2 == cfg
    for name, t in params.named().items():
        np.testing.assert_array_equal(params2.named()[name].data, t.data.astype(np.float32))
