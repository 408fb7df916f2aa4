"""Entropy, attention distance, and PWCCA against closed forms and brute force."""

import sys
import threading

import numpy as np
import pytest

from mwmae import analysis, tensor
from mwmae.analysis import (
    AttnRecord,
    PatchGrid,
    attention_entropy,
    collect_stack,
    mean_attention_distance,
    pwcca,
    pwcca_matrix,
    whiten,
)
from mwmae.attention import window_schedule
from mwmae.errors import ContractError, DegenerateInputError
from mwmae.model import MaeConfig, MaeParams
from mwmae.runtime import _blas_thread_hooks, thread_pair

from _toy import (blas_threads, dense_distance,  # noqa: F401 (a fixture)
                  dense_entropy, tiny_config, toy_spectrograms)


def _pwcca_reference(x, y, rank_rtol=1e-10):
    """The composed PWCCA formula: both SVD whitenings redone for every pair."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    ux, sx, _ = np.linalg.svd(xc, full_matrices=False)
    uy, sy, _ = np.linalg.svd(yc, full_matrices=False)
    rx = int(np.sum(sx > rank_rtol * sx[0]))
    ry = int(np.sum(sy > rank_rtol * sy[0]))
    ux, uy = ux[:, :rx], uy[:, :ry]
    a, rho, _ = np.linalg.svd(ux.T @ uy)
    k = min(rx, ry)
    rho = np.clip(rho[:k], 0.0, 1.0)
    weights = np.abs((ux @ a[:, :k]).T @ xc).sum(axis=1)
    return float(np.sum(weights / weights.sum() * rho))


def _rand_stochastic(rng, n):
    p = rng.uniform(0.01, 1.0, size=(n, n))
    return p / p.sum(axis=1, keepdims=True)


class TestEntropy:
    def test_uniform_250(self):
        rec = AttnRecord(0, 0, [np.full((250, 250), 1.0 / 250)])
        assert abs(attention_entropy(rec) - np.log(250)) < 1e-9
        assert abs(attention_entropy(rec) - 5.52146) < 1e-5

    def test_one_hot_rows(self):
        rec = AttnRecord(0, 0, [np.eye(16)])
        assert attention_entropy(rec) == 0.0

    def test_half_half_row(self):
        row = np.array([[0.5, 0.5, 0.0, 0.0]])
        rec = AttnRecord(0, 0, [np.repeat(row, 4, axis=0)])
        assert abs(attention_entropy(rec) - np.log(2)) < 1e-12

    def test_mean_over_examples(self):
        a = np.full((4, 4), 0.25)
        b = np.eye(4)
        rec = AttnRecord(0, 0, [a, b])
        assert abs(attention_entropy(rec) - np.log(4) / 2) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 17):
            rec = AttnRecord(0, 0, [_rand_stochastic(rng, n) for _ in range(3)])
            h = attention_entropy(rec)
            assert 0.0 <= h <= np.log(n) + 1e-12

    def test_rejects_negative(self):
        bad = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ContractError):
            AttnRecord(0, 0, [bad])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ContractError):
            AttnRecord(0, 0, [np.full((3, 3), 0.5)])


class TestMeanAttentionDistance:
    def test_identity_attention(self):
        rec = AttnRecord(0, 0, [np.eye(9)])
        assert mean_attention_distance(rec, PatchGrid(3, 3)) == 0.0

    def test_two_patch_uniform(self):
        rec = AttnRecord(0, 0, [np.full((2, 2), 0.5)])
        assert abs(mean_attention_distance(rec, PatchGrid(1, 2)) - 0.5) < 1e-15

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        grid = PatchGrid(3, 3)
        p = _rand_stochastic(rng, 9)
        expected = 0.0
        for i in range(9):
            pos_i = np.array([i // 3, i % 3])
            for j in range(9):
                pos_j = np.array([j // 3, j % 3])
                expected += p[i, j] * np.linalg.norm(pos_i - pos_j)
        expected /= 9
        got = mean_attention_distance(AttnRecord(0, 0, [p]), grid)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_bounded_by_grid_diameter(self):
        rng = np.random.default_rng(2)
        grid = PatchGrid(4, 2)
        diameter = np.linalg.norm([3, 1])
        rec = AttnRecord(0, 0, [_rand_stochastic(rng, 8) for _ in range(4)])
        d = mean_attention_distance(rec, grid)
        assert 0.0 <= d <= diameter

    def test_grid_mismatch_rejected(self):
        rec = AttnRecord(0, 0, [np.eye(4)])
        with pytest.raises(ContractError):
            mean_attention_distance(rec, PatchGrid(3, 3))


def _rand_windows(rng, n, win):
    p = rng.uniform(0.01, 1.0, size=(n // win, win, win))
    p[..., 0] = 0.0  # exact zeros, as a saturated softmax gives
    return p / p.sum(axis=-1, keepdims=True)


class TestWindowLayout:
    """Entropy and distance on (n/win, win, win) window attention against the
    n x n block-diagonal embedding, on the 50 x 5 grid of 250 patches."""

    grid = PatchGrid(50, 5)

    @pytest.mark.parametrize("win", sorted(set(window_schedule(250).windows)))
    def test_matches_dense_reference(self, win):
        rng = np.random.default_rng(win)
        probs = [_rand_windows(rng, 250, win) for _ in range(3)]
        rec = AttnRecord(0, 0, probs)
        assert abs(attention_entropy(rec) - dense_entropy(probs, 250)) <= 1e-12
        dist = mean_attention_distance(rec, self.grid)
        assert abs(dist - dense_distance(probs, 50, 5)) <= 1e-12

    def test_window_tables_wrap_across_grid_rows(self):
        pos = self.grid.positions()
        full = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        assert self.grid.distances(2)[2, 0, 1] == np.sqrt(17.0)  # tokens 4 and 5
        for win in (2, 25, 250):
            table = self.grid.distances(win)
            assert table.shape == (250 // win, win, win)
            for b in range(250 // win):
                s = slice(b * win, (b + 1) * win)
                np.testing.assert_array_equal(table[b], full[s, s])

    def test_token_count_mismatch_rejected(self):
        rec = AttnRecord(0, 0, [np.full((4, 2, 2), 0.5)])  # 8 tokens
        with pytest.raises(ContractError, match="8 tokens"):
            mean_attention_distance(rec, PatchGrid(3, 3))

    def test_non_square_rejected(self):
        with pytest.raises(ContractError, match="square"):
            AttnRecord(0, 0, [np.full((9, 4), 0.25)])
        with pytest.raises(ContractError, match="square"):
            AttnRecord(0, 0, [np.full((3, 3, 2), 0.5)])


class TestPwcca:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 8))
        assert abs(pwcca(x, x) - 1.0) < 1e-6

    def test_invariance_to_invertible_maps(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2000, 8))
        for trial in range(20):
            a = rng.normal(size=(8, 8))
            while abs(np.linalg.det(a)) < 1e-3:
                a = rng.normal(size=(8, 8))
            assert abs(pwcca(x, x @ a) - 1.0) < 1e-6, trial

    def test_independent_matrices_low(self):
        values = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = rng.normal(size=(2000, 8))
            y = rng.normal(size=(2000, 8))
            values.append(pwcca(x, y))
        assert max(values) <= 0.25

    def test_range(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 6))
        y = x + 0.5 * rng.normal(size=(300, 6))
        v = pwcca(x, y)
        assert 0.0 <= v <= 1.0

    def test_asymmetric_in_general(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(400, 4))
        y = np.concatenate([x[:, :2], rng.normal(size=(400, 6))], axis=1)
        assert pwcca(x, y) != pwcca(y, x)

    def test_row_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ContractError):
            pwcca(rng.normal(size=(100, 4)), rng.normal(size=(99, 4)))

    def test_needs_more_rows_than_cols(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ContractError):
            pwcca(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))

    def test_constant_columns_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pwcca(np.ones((100, 3)), np.random.default_rng(9).normal(size=(100, 3)))


class TestFactoredPwcca:
    @staticmethod
    def _pairs(rng):
        # unequal column counts, and duplicated columns so the whitened
        # ranks r differ from the column counts and from each other
        base = rng.normal(size=(600, 7))
        x = base[:, :5] + 0.3 * rng.normal(size=(600, 5))
        y = np.concatenate([base[:, 2:], rng.normal(size=(600, 3))], axis=1)
        x_dup = np.concatenate([x, x[:, :2], 2.0 * x[:, 1:2]], axis=1)
        y_dup = np.concatenate([y[:, :4], y[:, :4]], axis=1)
        feats = [x, y, x_dup, y_dup, rng.normal(size=(600, 2))]
        return [(a, b) for a in feats for b in feats]

    def test_whitened_inputs_match_reference(self):
        rng = np.random.default_rng(21)
        for i, (x, y) in enumerate(self._pairs(rng)):
            ref = _pwcca_reference(x, y)
            wx, wy = whiten(x), whiten(y)
            for args in ((x, y), (wx, wy), (wx, y), (x, wy)):
                assert abs(pwcca(*args) - ref) <= 1e-12, i

    def test_whiten_truncates_rank(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(300, 4))
        w = whiten(np.concatenate([x, x[:, :3]], axis=1))
        assert w.shape == (300, 7)
        assert w.u.shape == (300, 4) and w.proj.shape == (4, 7)
        xc = np.concatenate([x, x[:, :3]], axis=1)
        xc = xc - xc.mean(axis=0)
        np.testing.assert_allclose(w.proj, w.u.T @ xc, atol=1e-12)

    def test_matrix_matches_reference_on_decoder_record(self):
        cfg = tiny_config(dec_depth=2)
        records = collect_stack(cfg, MaeParams.init(cfg), toy_spectrograms(8, seed=8),
                                stack="decoder")
        matrix, _ = pwcca_matrix(records)
        feats = [records.features(layer, head)
                 for layer in range(records.n_layers) for head in range(records.n_heads)]
        for i, fi in enumerate(feats):
            for j, fj in enumerate(feats):
                assert abs(matrix[i, j] - _pwcca_reference(fi, fj)) <= 1e-12, (i, j)

    def test_window_summary_matches_reference(self):
        from mwmae.analysis import window_correlation_summary

        records = TestWindowCorrelationSummary._fabricated_records(np.random.default_rng(11))
        same, cross = window_correlation_summary(records, (4, 32, 32), 32)

        def sym(a, b):
            fa, fb = records.features(*a), records.features(*b)
            return 0.5 * (_pwcca_reference(fa, fb) + _pwcca_reference(fb, fa))

        ref_same = sym((0, 0), (1, 0))
        ref_cross = np.mean([sym((l1, 0), (l2, g)) for g in (1, 2)
                             for l1 in range(2) for l2 in range(2)])
        assert abs(same - ref_same) <= 1e-12
        assert abs(cross - ref_cross) <= 1e-12

    def test_error_types_with_whitened_inputs(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ContractError):
            pwcca(whiten(rng.normal(size=(100, 4))), whiten(rng.normal(size=(99, 4))))
        with pytest.raises(ContractError):
            pwcca(whiten(rng.normal(size=(10, 4))), rng.normal(size=(10, 12)))
        with pytest.raises(ContractError):
            whiten(rng.normal(size=(8, 8)))
        with pytest.raises(DegenerateInputError):
            pwcca(np.ones((100, 3)), whiten(rng.normal(size=(100, 3))))
        with pytest.raises(DegenerateInputError):
            whiten(np.ones((100, 3)))


class TestHeadFeatures:
    def setup_method(self):
        self.cfg = tiny_config()
        self.params = MaeParams.init(self.cfg)
        self.specs = toy_spectrograms(6, seed=7)

    def test_shape_contract(self):
        records = collect_stack(self.cfg, self.params, self.specs, stack="decoder")
        feats = records.features(0, 0)
        assert feats.shape == (6 * self.cfg.n_p, self.cfg.dec_width // self.cfg.dec_heads)

    def test_deterministic(self):
        a = collect_stack(self.cfg, self.params, self.specs, stack="decoder")
        b = collect_stack(self.cfg, self.params, self.specs, stack="decoder")
        np.testing.assert_array_equal(a.features(1, 2), b.features(1, 2))

    def test_encoder_stack_shapes(self):
        records = collect_stack(self.cfg, self.params, self.specs, stack="encoder")
        feats = records.features(0, 1)
        assert feats.shape == (6 * self.cfg.n_p, self.cfg.enc_width // self.cfg.enc_heads)

    def test_tied_global_heads_have_pwcca_one(self):
        # the last two decoder heads are both global; tying their projections
        # makes their features identical up to numerical noise
        params = MaeParams.init(self.cfg)
        for blk in params.dec_blocks:
            for plist in (blk.attn.w_q, blk.attn.w_k, blk.attn.w_v):
                plist[-1].data = plist[-2].data.copy()
        records = collect_stack(self.cfg, params, self.specs, stack="decoder")
        h = self.cfg.dec_heads
        f_a = records.features(0, h - 2)
        f_b = records.features(0, h - 1)
        assert abs(pwcca(f_a, f_b) - 1.0) < 1e-6

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            collect_stack(self.cfg, self.params, [], stack="decoder")

    def test_missing_head_rejected(self):
        records = collect_stack(self.cfg, self.params, self.specs, stack="decoder")
        with pytest.raises(IndexError):
            records.features(0, 99)

    @pytest.mark.parametrize("stack", ["encoder", "decoder"])
    def test_without_probs_taps_keep_only_head_outputs(self, stack):
        full = collect_stack(self.cfg, self.params, self.specs, stack=stack)
        lean = collect_stack(self.cfg, self.params, self.specs, stack=stack, probs=False)
        for ex_full, ex_lean in zip(full.taps, lean.taps, strict=True):
            for f, g in zip(ex_full, ex_lean, strict=True):
                assert g.probs == [] and len(f.probs) == len(g.head_out) > 0
                for a, b in zip(f.head_out, g.head_out, strict=True):
                    assert np.array_equal(a, b)
        with pytest.raises(ContractError, match="without attention probabilities"):
            lean.record(0, 0)


class TestPwccaMatrix:
    def test_diagonal_is_one_and_labels(self):
        cfg = tiny_config(dec_depth=2)
        params = MaeParams.init(cfg)
        specs = toy_spectrograms(8, seed=8)
        records = collect_stack(cfg, params, specs, stack="decoder")
        matrix, labels = pwcca_matrix(records)
        h = cfg.dec_heads * cfg.dec_depth
        assert matrix.shape == (h, h)
        assert labels[0] == "L0.H0" and labels[-1] == f"L1.H{cfg.dec_heads - 1}"
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-6)
        assert np.all(matrix >= -1e-9) and np.all(matrix <= 1.0 + 1e-9)

    def test_matches_a_per_pair_loop(self):
        cfg = tiny_config(dec_depth=2)
        records = collect_stack(cfg, MaeParams.init(cfg), toy_spectrograms(8, seed=8),
                                stack="decoder", probs=False)
        matrix, _ = pwcca_matrix(records)
        feats = [records.features(layer, head)
                 for layer in range(records.n_layers) for head in range(records.n_heads)]
        loop = np.array([[pwcca(fi, fj) for fj in feats] for fi in feats])
        np.testing.assert_allclose(matrix, loop, rtol=0, atol=1e-12)

    def test_whitened_heads_share_one_array_and_its_gram(self):
        cfg = tiny_config(dec_depth=2)
        records = collect_stack(cfg, MaeParams.init(cfg), toy_spectrograms(8, seed=8),
                                stack="decoder", probs=False)
        got = records.whiten_heads()
        assert len(got) == len(records.heads()) == len(records.labels())
        base = got[0].u.base
        for key, w in zip(records.heads(), got, strict=True):
            alone = whiten(records.features(*key))
            assert w.u.base is base and w.gram is got[0].gram
            np.testing.assert_array_equal(w.u, alone.u)
            np.testing.assert_array_equal(w.proj, alone.proj)
            for other in got:
                np.testing.assert_allclose(w.gram[w.cols, other.cols], w.u.T @ other.u,
                                           rtol=0, atol=1e-12)


class TestWindowCorrelationSummary:
    @staticmethod
    def _fabricated_records(rng, n_examples=8, n_tokens=32, d_k=3):
        # layer 0 and 1 of the local head share a signal; globals are noise
        from mwmae.attention import HeadTap
        from mwmae.analysis import StackRecords

        taps = []
        for _ in range(n_examples):
            shared = rng.normal(size=(n_tokens, d_k))
            layers = []
            for layer in range(2):
                tap = HeadTap()
                tap.head_out = [
                    shared + 0.05 * rng.normal(size=(n_tokens, d_k)),  # local head
                    rng.normal(size=(n_tokens, d_k)),                  # global
                    rng.normal(size=(n_tokens, d_k)),                  # global
                ]
                layers.append(tap)
            taps.append(layers)
        return StackRecords(n_layers=2, n_heads=3, taps=taps, n_tokens=n_tokens)

    def test_shared_signal_dominates(self):
        from mwmae.analysis import window_correlation_summary

        rng = np.random.default_rng(11)
        records = self._fabricated_records(rng)
        same, cross = window_correlation_summary(records, (4, 32, 32), 32)
        assert same > 0.9
        assert cross < same

    def test_needs_local_and_global(self):
        from mwmae.analysis import window_correlation_summary

        rng = np.random.default_rng(12)
        records = self._fabricated_records(rng)
        with pytest.raises(ContractError):
            window_correlation_summary(records, (32, 32, 32), 32)

    def test_window_per_head(self):
        # a fourth window would alias layer 1's first head in the matrix
        from mwmae.analysis import window_correlation_summary

        records = self._fabricated_records(np.random.default_rng(13))
        with pytest.raises(ContractError, match="4 windows for 3 heads"):
            window_correlation_summary(records, (4, 32, 32, 32), 32)

    def test_token_count_must_match_records(self):
        from mwmae.analysis import window_correlation_summary

        records = self._fabricated_records(np.random.default_rng(13))
        # a wrong count moves heads between the groups: at 4, head 0 is global
        with pytest.raises(ContractError, match="n_tokens=4, .* 32 tokens"):
            window_correlation_summary(records, (4, 32, 32), 4)

    def test_reads_the_symmetrised_pwcca_matrix(self):
        from mwmae.analysis import window_correlation_summary

        cfg = tiny_config(dec_width=20, dec_depth=3)
        windows = window_schedule(cfg.n_p).windows
        assert windows == cfg.dec_schedule.windows
        records = collect_stack(cfg, MaeParams.init(cfg), toy_spectrograms(8, seed=14),
                                stack="decoder")
        matrix, _ = pwcca_matrix(records)
        h = records.n_heads

        def at(layer, head, other_layer, other_head):
            i, j = layer * h + head, other_layer * h + other_head
            return 0.5 * (matrix[i, j] + matrix[j, i])

        local = [k for k, w in enumerate(windows) if w != cfg.n_p]
        glob = [k for k, w in enumerate(windows) if w == cfg.n_p]
        same = [at(l1, k, l2, k) for k in local
                for l1 in range(3) for l2 in range(l1 + 1, 3)]
        cross = [at(l1, k, l2, g) for k in local for g in glob
                 for l1 in range(3) for l2 in range(3)]
        assert window_correlation_summary(records, windows, cfg.n_p) == (
            float(np.mean(same)), float(np.mean(cross)))

    def test_one_layer_has_no_pair_to_compare(self):
        # no two layers, so no same-window pair: a mean of none would be NaN
        from mwmae.analysis import window_correlation_summary

        cfg = tiny_config(dec_depth=1)
        records = collect_stack(cfg, MaeParams.init(cfg), toy_spectrograms(4, seed=15),
                                stack="decoder", probs=False)
        with pytest.raises(ContractError, match="at least two layers .*, got 1"):
            window_correlation_summary(records, cfg.dec_schedule.windows, cfg.n_p)


class TestAttentionRecordsFromModel:
    def test_window_head_entropy_bounded_by_window(self):
        # a head with window w cannot exceed ln(w) entropy
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        specs = toy_spectrograms(4, seed=9)
        records = collect_stack(cfg, params, specs, stack="decoder")
        windows = cfg.dec_schedule.windows
        for head, win in enumerate(windows):
            h = attention_entropy(records.record(0, head))
            assert h <= np.log(win) + 1e-9

    def test_rows_are_stochastic(self):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        records = collect_stack(cfg, params, toy_spectrograms(2, seed=10), stack="decoder")
        rec = records.record(1, 0)  # smallest window
        for p in rec.probs:
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_records_are_the_tapped_windows(self):
        cfg = tiny_config()
        records = collect_stack(cfg, MaeParams.init(cfg), toy_spectrograms(2, seed=10),
                                stack="decoder")
        for head, win in enumerate(cfg.dec_schedule.windows):
            for ex, p in zip(records.taps, records.record(1, head).probs, strict=True):
                assert p is ex[1].probs[head] and p.shape == (cfg.n_p // win, win, win)


# perfbench's decoders: the companion's (width 16, d_k 2) and the evaluate
# workload's paper-width one (width 384, 8 heads of d_k 48), on the
# pipeline's 250-patch encoder.
COMPANION = MaeConfig(patch_t=4, patch_f=16, enc_depth=2, enc_width=32, enc_heads=2,
                      dec_depth=2, dec_width=16, seed=5)
EVALUATE = MaeConfig(patch_t=4, patch_f=16, enc_depth=2, enc_width=32, enc_heads=2,
                     dec_depth=2, dec_width=384, seed=5)


def _spy(monkeypatch, owner, name, seen):
    """Wrap `owner.name` to record, per call, whether it ran on the calling
    thread, the grad mode and the BLAS thread count."""
    real = getattr(owner, name)
    hooks = _blas_thread_hooks()
    caller = threading.get_ident()

    def spy(*args, **kwargs):
        seen.append((threading.get_ident() == caller, tensor._grad_mode.enabled,
                     hooks[0]() if hooks else 1))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _serial(monkeypatch):
    """Every `_map` below the gate: the calling thread's plain loop."""
    monkeypatch.setattr(analysis, "POOL_MIN_WIDTH", sys.maxsize)


class TestPoolGate:
    """Stacks narrower than `POOL_MIN_WIDTH` keep the tap and PWCCA loops
    on the calling thread; the paper-width decoder runs them on the pool."""

    @pytest.mark.parametrize("cfg, on_pool", [(COMPANION, False), (EVALUATE, True)])
    def test_threads_by_decoder_width(self, monkeypatch, cfg, on_pool):
        assert (cfg.dec_width >= analysis.POOL_MIN_WIDTH) == on_pool
        taps, rows = [], []
        _spy(monkeypatch, analysis, "tap_decoder", taps)
        _spy(monkeypatch, analysis, "pwcca", rows)
        threads = threading.active_count()
        records = collect_stack(cfg, MaeParams.init(cfg),
                                toy_spectrograms(2, shape=(200, 80), seed=3),
                                stack="decoder", probs=False)
        pwcca_matrix(records)
        assert threading.active_count() == threads
        assert len(taps) == 2 and len(rows) == (2 * cfg.dec_heads) ** 2
        assert {caller for caller, _, _ in taps + rows} == {not on_pool}


class TestThreadedAnalysis:
    """Above the gate, the pool's taps and PWCCA matrix are bit-equal to the
    calling thread's loop at the pool's one BLAS thread, and the pool leaves
    no thread or BLAS count behind. (OpenBLAS rounds some products
    differently on two threads, so the loop is pinned as the pool is.)"""

    @pytest.fixture(scope="class")
    def model(self):
        cfg = EVALUATE
        return cfg, MaeParams.init(cfg), toy_spectrograms(5, shape=(200, 80), seed=4)

    @pytest.mark.parametrize("probs", [False, True])
    def test_taps_bit_equal_to_the_serial_loop(self, model, monkeypatch, probs):
        cfg, params, specs = model
        seen = []
        _spy(monkeypatch, analysis, "tap_decoder", seen)
        pooled = collect_stack(cfg, params, specs, stack="decoder", probs=probs)
        # every clip on a worker, with grad mode off there and one BLAS thread
        assert seen == [(False, False, 1)] * len(specs)
        _serial(monkeypatch)
        with thread_pair():
            serial = collect_stack(cfg, params, specs, stack="decoder", probs=probs)
        assert [caller for caller, _, _ in seen[len(specs):]] == [True] * len(specs)
        for ex_a, ex_b in zip(pooled.taps, serial.taps, strict=True):
            for a, b in zip(ex_a, ex_b, strict=True):
                assert len(a.head_out) == len(b.head_out) == cfg.dec_heads
                assert len(a.probs) == len(b.probs) == (cfg.dec_heads if probs else 0)
                for x, y in zip(a.head_out + a.probs, b.head_out + b.probs, strict=True):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_pwcca_matrix_bit_equal_to_the_serial_loop(self, model, monkeypatch):
        cfg, params, specs = model
        records = collect_stack(cfg, params, specs, stack="decoder", probs=False)
        seen = []
        _spy(monkeypatch, analysis, "pwcca", seen)
        with thread_pair():  # the whitening runs on the calling thread
            pooled, labels = pwcca_matrix(records)
        h = cfg.dec_depth * cfg.dec_heads
        assert [(caller, blas) for caller, _, blas in seen] == [(False, 1)] * h * h
        _serial(monkeypatch)
        with thread_pair():
            serial, serial_labels = pwcca_matrix(records)
        assert labels == serial_labels
        assert pooled.shape == (h, h) and pooled.tobytes() == serial.tobytes()

    def test_error_on_clip_k_surfaces_and_the_pool_is_gone(self, model, monkeypatch,
                                                          blas_threads):
        cfg, params, specs = model
        get, set_ = blas_threads
        set_(2)
        boom = RuntimeError("clip 3 failed")
        real_mask = analysis.random_mask

        def mask(n_p, ratio, seed):
            if seed == 3:
                raise boom
            return real_mask(n_p, ratio, seed=seed)

        monkeypatch.setattr(analysis, "random_mask", mask)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            collect_stack(cfg, params, specs, stack="decoder", probs=False)
        assert caught.value is boom
        assert threading.active_count() == threads and get() == 2
