"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight criteria (toy training, the directional PWCCA check,
and the full synthetic pipeline) run real training loops and take a few
minutes combined.
"""

import time

import numpy as np

from mwmae import tensor as T
from mwmae.analysis import (
    AttnRecord,
    PatchGrid,
    attention_entropy,
    collect_stack,
    mean_attention_distance,
    pwcca,
    window_correlation_summary,
)
from mwmae.attention import attention, win_attention, window_schedule
from mwmae.audio import load_wav
from mwmae.evalkit import TaskScoreTable, overall_score, scene_embedding, train_probe
from mwmae.model import (
    MaeConfig,
    MaeParams,
    decode,
    encode,
    masked_mse,
    patchify,
    random_mask,
)
from mwmae.synth import SynthSpec, gen_corpus, read_labels
from mwmae.tensor import Layout, Tensor, grad_check
from mwmae.train import (
    OptimizerState,
    TrainConfig,
    WavSpecDataset,
    adamw_step,
    effective_lr,
    lr_at,
    train,
)

from _toy import param_grad_errors, tiny_config, toy_spectrograms, toy_train_config


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_01_window_schedule_fidelity():
    start = time.time()
    ok = window_schedule(250).windows == (2, 5, 10, 25, 50, 125, 250, 250)
    counts = {n_p: window_schedule(n_p).n_heads for n_p in (125, 250, 500, 640)}
    ok = ok and counts == {125: 4, 250: 8, 500: 12, 640: 16}
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(1, "window-schedule fidelity", ok, f"head counts {counts}, {elapsed:.3f}s")


def test_criterion_02_attention_equivalence_oracle():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_windowed = 0.0
    pairs = 0
    while pairs < 100:
        n = int(rng.integers(2, 65))
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        win = int(divisors[rng.integers(0, len(divisors))])
        d_k = int(rng.integers(2, 8))
        q, k, v = (rng.normal(size=(n, d_k)) for _ in range(3))
        got = win_attention(Tensor(q), Tensor(k), Tensor(v), win).data
        ref = np.zeros_like(got)
        for b in range(n // win):
            sl = slice(b * win, (b + 1) * win)
            ref[sl] = attention(Tensor(q[sl]), Tensor(k[sl]), Tensor(v[sl])).data
        worst_windowed = max(worst_windowed, float(np.abs(got - ref).max()))
        pairs += 1

    worst_global = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 65))
        q, k, v = (rng.normal(size=(n, 5)) for _ in range(3))
        a = win_attention(Tensor(q), Tensor(k), Tensor(v), n).data
        b = attention(Tensor(q), Tensor(k), Tensor(v)).data
        worst_global = max(worst_global, float(np.abs(a - b).max()))
    elapsed = time.time() - start
    ok = worst_windowed < 1e-10 and worst_global < 1e-12 and elapsed < 10.0
    _report(2, "windowed attention equals brute-force slices", ok,
            f"max diffs {worst_windowed:.1e}/{worst_global:.1e}, {elapsed:.1f}s")


def test_criterion_03_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 4)))
    gain = Tensor(rng.normal(size=(4,)))
    bias = Tensor(rng.normal(size=(4,)))
    w = Tensor(rng.normal(size=(4, 3)))
    cotan = Tensor(rng.normal(size=(3, 4)))
    wide = Tensor(rng.normal(size=(3, 8)))
    gathered = Tensor(rng.normal(size=(3, 4)))
    op_cases = {
        "matmul": lambda t: T.matmul(t, w).sum(),
        "add": lambda t: (T.add(t, cotan) * cotan).sum(),
        "mul": lambda t: T.mul(t, cotan).sum(),
        "scale": lambda t: T.scale(t, 1.7).sum(),
        "reshape": lambda t: (T.reshape(t, (4, 3)) * w).sum(),
        "transpose": lambda t: (T.transpose(t) * w).sum(),
        "concat": lambda t: (T.concat_lastdim([t, cotan]) * wide).sum(),
        "split": lambda t: T.split_lastdim(t, [1, 3])[1].sum(),
        "take_rows": lambda t: (T.take_rows(t, np.array([0, 2, 2])) * gathered).sum(),
        "layer_norm": lambda t: (T.layer_norm(t, gain, bias) * cotan).sum(),
        "gelu": lambda t: T.gelu(t).sum(),
        "dropout": lambda t: (T.dropout(t, 0.4, seed=3) * cotan).sum(),
        "softmax": lambda t: (T.softmax_lastdim(t) * cotan).sum(),
        "log_softmax": lambda t: (T.log_softmax_lastdim(t) * cotan).sum(),
        "sigmoid": lambda t: T.sigmoid(t).sum(),
        "softplus": lambda t: T.softplus(t).sum(),
        "mean": lambda t: t.mean(),
        "sum": lambda t: T.scale(t.sum(), 0.3),
    }
    op_errors = {name: grad_check(f, x, eps=1e-5) for name, f in op_cases.items()}

    cfg = tiny_config(enc_depth=1, dec_depth=1, enc_width=8)
    params = MaeParams.init(cfg)
    spec = np.random.default_rng(2).normal(size=(8, 8))
    e2e_errors = param_grad_errors(cfg, params, spec)

    worst_op = max(op_errors.values())
    worst_e2e = max(e2e_errors.values())
    elapsed = time.time() - start
    ok = worst_op < 1e-4 and worst_e2e < 1e-4 and elapsed < 60.0
    _report(3, "gradient suite (ops + end-to-end masked MSE)", ok,
            f"worst op {worst_op:.1e}, worst end-to-end {worst_e2e:.1e}, {elapsed:.0f}s")


def test_criterion_04_masking_contract():
    mask = random_mask(250, 0.8, seed=0)
    counts_ok = len(mask.masked_idx) == 200 and len(mask.visible_idx) == 50

    cfg = tiny_config()
    params = MaeParams.init(cfg)
    spec = np.random.default_rng(3).normal(size=(8, 8))
    patches = patchify(spec, 2, 2)
    m = random_mask(cfg.n_p, cfg.mask_ratio, seed=9)
    latent = encode(patches, m, cfg, params)
    pred = decode(latent, m, cfg, params)
    base = masked_mse(pred, patches, m).item()
    tampered = patches.copy()
    tampered[m.visible_idx] = np.random.default_rng(4).normal(
        size=(len(m.visible_idx), 4)) * 100
    perturbed = masked_mse(pred, tampered, m).item()
    diff = abs(base - perturbed)
    ok = counts_ok and diff < 1e-12
    _report(4, "masking contract (200/50 split, visible targets inert)", ok,
            f"loss diff {diff:.1e}")


def test_criterion_05_toy_training_descent(tmp_path):
    start = time.time()
    specs = toy_spectrograms(64, seed=0)
    cfg = tiny_config()

    def run(csv_name):
        path = tmp_path / csv_name
        result = train(specs, cfg, toy_train_config(seed=1), max_steps=200,
                       loss_csv=path)
        return result, path.read_bytes()

    result, csv_a = run("a.csv")
    _, csv_b = run("b.csv")
    smoothed = np.convolve(result.losses, np.ones(20) / 20, mode="valid")
    halved = smoothed[-1] <= 0.5 * smoothed[0]
    identical = csv_a == csv_b
    elapsed = time.time() - start
    ok = halved and identical and elapsed < 300.0
    _report(5, "toy-training descent + bit-identical loss CSVs", ok,
            f"smoothed {smoothed[0]:.3f}->{smoothed[-1]:.3f}, "
            f"identical={identical}, {elapsed:.0f}s")


def test_criterion_06_schedule_and_optimizer_numerics():
    eff_ok = effective_lr(1.5e-5, 1024) == 6e-5

    cfg = TrainConfig(base_lr=1.5e-5, batch_size=1024)
    spe = 13
    boundary = cfg.warmup_epochs * spe
    eff = effective_lr(cfg.base_lr, cfg.batch_size)
    ramp_step = eff / boundary
    left_limit = lr_at(boundary - 1, spe, cfg) + ramp_step
    continuity = abs(lr_at(boundary, spe, cfg) - left_limit)

    layout = Layout({"w": (8,)})
    state = OptimizerState.init(np.full(8, 3.0), layout)
    p = layout.leaves(state.params)
    step_cfg = TrainConfig(weight_decay=0.05)
    adamw_step(p, {"w": np.zeros(8)}, state, lr=0.02, cfg=step_cfg)
    decay_exact = np.array_equal(p["w"].data, np.full(8, 3.0 * (1 - 0.02 * 0.05)))

    ok = eff_ok and continuity < 1e-12 and decay_exact
    _report(6, "effective-LR rule, warmup continuity, decay-only AdamW step", ok,
            f"continuity {continuity:.1e}")


def test_criterion_07_analysis_oracles():
    uniform = AttnRecord(0, 0, [np.full((250, 250), 1.0 / 250)])
    entropy_ok = abs(attention_entropy(uniform) - np.log(250)) < 1e-9

    identity = AttnRecord(0, 0, [np.eye(12)])
    distance_ok = mean_attention_distance(identity, PatchGrid(4, 3)) == 0.0

    rng = np.random.default_rng(5)
    x = rng.normal(size=(2000, 8))
    self_ok = abs(pwcca(x, x) - 1.0) < 1e-6
    inv_worst = 0.0
    for _ in range(20):
        a = rng.normal(size=(8, 8))
        while abs(np.linalg.det(a)) < 1e-3:
            a = rng.normal(size=(8, 8))
        inv_worst = max(inv_worst, abs(pwcca(x, x @ a) - 1.0))
    indep_worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(4000 + seed)
        indep_worst = max(
            indep_worst, pwcca(r.normal(size=(2000, 8)), r.normal(size=(2000, 8)))
        )
    ok = entropy_ok and distance_ok and self_ok and inv_worst < 1e-6 and indep_worst <= 0.25
    _report(7, "analysis oracles (entropy, distance, PWCCA)", ok,
            f"invertible worst {inv_worst:.1e}, independent worst {indep_worst:.3f}")


def test_criterion_08_directional_pwcca_reproduction():
    start = time.time()
    cfg = tiny_config(dec_width=20)  # schedule (2,4,8,16,16), dec_depth=2
    assert cfg.dec_schedule.n_heads >= 4 and cfg.dec_depth >= 2
    specs = toy_spectrograms(64, seed=0)
    analysis_specs = toy_spectrograms(32, seed=100)
    outcomes = []
    for seed in range(1, 6):
        result = train(specs, cfg, toy_train_config(seed=seed), max_steps=200)
        records = collect_stack(cfg, result.params, analysis_specs, stack="decoder")
        same, cross = window_correlation_summary(
            records, cfg.dec_schedule.windows, cfg.n_p)
        outcomes.append((same, cross, same > cross))
    passes = sum(1 for _, _, hit in outcomes if hit)
    elapsed = time.time() - start
    detail = ", ".join(f"{s:.2f}{'>' if hit else '<='}{c:.2f}"
                       for s, c, hit in outcomes)
    ok = passes >= 3 and elapsed < 900.0
    _report(8, "same-window heads correlate across decoder layers", ok,
            f"{passes}/5 seeds, {detail}, {elapsed:.0f}s")


def test_criterion_09_overall_score():
    table = TaskScoreTable(
        models=["A", "B", "C"],
        tasks=["t1", "t2"],
        scores=np.array([[10.0, 50.0], [20.0, 50.0], [30.0, 100.0]]),
    )
    worked = overall_score(table, "B") == 25.0
    bounds = overall_score(table, "C") == 100.0 and overall_score(table, "A") == 0.0

    rescaled = TaskScoreTable(
        models=table.models, tasks=table.tasks,
        scores=np.stack([table.scores[:, 0] * 2.5 + 11.0,
                         table.scores[:, 1] * 0.04 + 3.0], axis=1),
    )
    base_rank = sorted(table.models, key=lambda m: overall_score(table, m))
    new_rank = sorted(table.models, key=lambda m: overall_score(rescaled, m))
    ok = worked and bounds and base_rank == new_rank
    _report(9, "normalized overall score (worked example, bounds, invariance)", ok)


PIPELINE_CORPUS = SynthSpec("tone", n_classes=12, min_seconds=2.0,
                            max_seconds=2.0, snr_db_range=(0.0, 10.0))
PIPELINE_MAE = dict(patch_t=4, patch_f=16, enc_depth=2, enc_width=32,
                    enc_heads=2, dec_depth=2, dec_width=16, seed=0)
PIPELINE_STEPS = 1200


def test_criterion_10_end_to_end_pipeline(tmp_path):
    start = time.time()
    wav_dir = tmp_path / "tones"
    labels_path = gen_corpus(PIPELINE_CORPUS, 144, seed=0, out_dir=wav_dir)
    rows = read_labels(labels_path)

    cfg = MaeConfig(**PIPELINE_MAE)
    spe = 144 // 8
    train_cfg = TrainConfig(base_lr=0.1, batch_size=8, warmup_epochs=3,
                            total_epochs=PIPELINE_STEPS // spe, seed=1)
    dataset = WavSpecDataset(wav_dir, cfg.input_t, seed=1)
    result = train(dataset, cfg, train_cfg, max_steps=PIPELINE_STEPS)

    def probe_accuracy(params):
        feats, labels, splits = [], [], []
        for name, split, label in rows:
            feats.append(scene_embedding(load_wav(wav_dir / name), cfg, params))
            labels.append(label)
            splits.append(split)
        return train_probe(np.array(feats), np.array(labels), np.array(splits),
                           seed=0).test_metric

    acc_trained = probe_accuracy(result.params)
    acc_random = probe_accuracy(MaeParams.init(cfg))
    elapsed = time.time() - start
    ok = acc_trained >= 0.9 and acc_random < acc_trained and elapsed < 1200.0
    _report(10, "synth -> pretrain -> extract -> probe pipeline", ok,
            f"trained {acc_trained:.3f} vs untrained {acc_random:.3f}, {elapsed:.0f}s")
