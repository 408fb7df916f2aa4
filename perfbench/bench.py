"""Workloads of the mwmae benchmark: seeded inputs, timed stages, output checks.

Every workload runs the same two stages, so every run reports every metric:

- a train stage: one `mwmae.train.train` call with a final checkpoint and a
  loss CSV, as `mwmae pretrain` makes them;
- an eval stage: `mwmae extract`, then `mwmae probe` (once per probe seed),
  then `mwmae analyze pwcca --stack decoder`, all in-process through
  `mwmae.cli.main` on a frozen seeded checkpoint.

A workload puts its volume into one stage and runs the other at a small
companion size (see README.md for the sizes and the reasons).
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from mwmae import cli
from mwmae.audio import standardize
from mwmae.container import load_tensors
from mwmae.model import MaeConfig, MaeParams, save_checkpoint
from mwmae.synth import SynthSpec, gen_corpus, read_labels
from mwmae.train import TrainConfig, WavSpecDataset, train

# The package re-exports the function `train` under the module's name.
TRAIN_MODULE = importlib.import_module("mwmae.train")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Acceptance criterion 10's model, and the same encoder with a decoder of the
# paper's width (8 heads of d_k 48) for the evaluate workload.
PIPELINE_MAE = dict(patch_t=4, patch_f=16, enc_depth=2, enc_width=32, enc_heads=2,
                    dec_depth=2, dec_width=16)
# Acceptance criteria 5 and 8's tiny model: 8x8 input, 16 patches, 5 decoder heads.
TINY_MAE = dict(input_t=8, input_f=8, patch_t=2, patch_f=2, enc_depth=2, enc_width=16,
                enc_heads=2, dec_depth=2, dec_width=10, mask_ratio=0.8)
PIPELINE_CORPUS = dict(kind="tone", n_classes=12, min_seconds=2.0, max_seconds=2.0,
                       snr_db_range=(0.0, 10.0))
BATCH = 8


def train_config(model: str, seed: int) -> TrainConfig:
    if model == "pipeline":
        return TrainConfig(base_lr=0.1, batch_size=BATCH, warmup_epochs=3,
                           total_epochs=66, seed=seed)
    return TrainConfig(base_lr=0.8, batch_size=BATCH, warmup_epochs=5,
                       total_epochs=25, seed=seed)


def mae_config(model: str, seed: int, dec_width: int | None = None) -> MaeConfig:
    kwargs = dict(PIPELINE_MAE if model == "pipeline" else TINY_MAE, seed=seed)
    if dec_width is not None:
        kwargs["dec_width"] = dec_width
    return MaeConfig(**kwargs)


@dataclass(frozen=True)
class TrainPlan:
    model: str      # "pipeline" (WAV corpus through WavSpecDataset) or "tiny"
    clips: int      # WAV clips or in-memory toy spectrograms
    steps: int      # optimizer steps per train() call


@dataclass(frozen=True)
class EvalPlan:
    dec_width: int        # decoder width of the frozen checkpoint
    clips: int            # clips for extract and probe
    seconds: tuple[float, float]  # clip duration range
    analysis_clips: int   # clips for analyze pwcca
    probe_seeds: int      # probe calls per repetition, one seed each
    repeats: int          # extract and analyze calls per repetition


@dataclass(frozen=True)
class Workload:
    name: str
    train: TrainPlan
    eval: EvalPlan


# The companion eval stage: the pipeline checkpoint, 16 clips of 3 s (two
# chunks each, the second zero-padded) so that the chunk count does not vary
# with the seed, and PWCCA over 4 clips at the pipeline decoder's d_k of 2.
# Its calls are short, so each is repeated for enough samples per run.
COMPANION_EVAL = EvalPlan(dec_width=16, clips=16, seconds=(3.0, 3.0), analysis_clips=4,
                          probe_seeds=4, repeats=3)

WORKLOADS = {
    w.name: w for w in (
        Workload("pretrain-pipeline", TrainPlan("pipeline", 144, 10), COMPANION_EVAL),
        Workload("pretrain-tiny", TrainPlan("tiny", 64, 17), COMPANION_EVAL),
        Workload("evaluate", TrainPlan("tiny", 64, 18),
                 EvalPlan(dec_width=384, clips=144, seconds=(1.0, 4.0), analysis_clips=16,
                          probe_seeds=4, repeats=1)),
    )
}


def smoke(w: Workload) -> Workload:
    """A few steps of each stage on small inputs, for tests."""
    return Workload(
        w.name,
        TrainPlan(w.train.model, 16, 3),
        EvalPlan(w.eval.dec_width, 16, w.eval.seconds, 2, 1, 1),
    )


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def toy_spectrograms(n: int, seed: int, shape=(8, 8), noise: float = 0.15):
    """Standardized mixtures of four fixed patterns plus noise, as in the tiny
    acceptance criteria: masked reconstruction has structure to learn."""
    rng = np.random.default_rng(seed)
    t, f = shape
    tt, ff = np.meshgrid(np.arange(t), np.arange(f), indexing="ij")
    patterns = [
        np.sin(2 * np.pi * tt / t) * np.cos(2 * np.pi * ff / f),
        np.where(ff < f // 2, 1.0, -1.0) * np.sin(2 * np.pi * tt / t),
        np.cos(2 * np.pi * (tt + ff) / (t + f)),
        np.where((tt + ff) % 4 < 2, 1.0, -1.0),
    ]
    return [
        standardize(rng.uniform(0.5, 1.5) * patterns[i % 4] + noise * rng.normal(size=shape))
        for i in range(n)
    ]


def write_probe_labels(rows, path: Path) -> None:
    """Two labels per clip (pitch bin, low/high) and a single validation clip.

    With one validation clip the validation mAP is 1 from the first epoch, so
    early stopping always ends after patience + 1 epochs and every seed gets
    the same probe work. On the corpus's own split the epoch count swings
    between about 45 and 140 with the seed, which no run length can average.
    The other validation clips join the training split.
    """
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["filename", "split", "label"])
        have_valid = False
        for name, split, label in rows:
            if split == "valid":
                split = "train" if have_valid else "valid"
                have_valid = True
            k = int(label)
            out.writerow([name, split, f"pitch{k};{'low' if k < 4 else 'high'}"])


@dataclass
class Inputs:
    train_data: object
    ckpt: Path
    eval_wavs: Path
    probe_labels: Path
    analysis_wavs: Path


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    """Everything a workload reads, generated from its seed (timed as setup_s)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    plan = w.train
    if plan.model == "pipeline":
        wavs = work / "train_wavs"
        gen_corpus(SynthSpec(**PIPELINE_CORPUS), plan.clips, sub_seed(seed, 1), wavs)
        data = WavSpecDataset(wavs, mae_config("pipeline", seed).input_t, seed=seed)
    else:
        data = toy_spectrograms(plan.clips, sub_seed(seed, 1))
    ev = w.eval
    eval_wavs = work / "eval_wavs"
    lo, hi = ev.seconds
    # At least four clips per pitch class, so that every class reaches the
    # corpus's train, train, valid, test split cycle.
    labels = gen_corpus(SynthSpec("tone", n_classes=min(8, ev.clips // 4), min_seconds=lo,
                                  max_seconds=hi), ev.clips, sub_seed(seed, 2), eval_wavs)
    write_probe_labels(read_labels(labels), work / "probe_labels.csv")
    analysis_wavs = work / "analysis_wavs"
    gen_corpus(SynthSpec("tone", n_classes=8, min_seconds=2.0, max_seconds=2.0),
               ev.analysis_clips, sub_seed(seed, 3), analysis_wavs)
    cfg = mae_config("pipeline", sub_seed(seed, 4), dec_width=ev.dec_width)
    save_checkpoint(work / "frozen.ckpt", cfg, MaeParams.init(cfg))
    return Inputs(data, work / "frozen.ckpt", eval_wavs, work / "probe_labels.csv",
                  analysis_wavs)


def pwcca_matrix_ok(path: Path) -> bool:
    """Diagonal is 1 within 1e-6; every entry lies in [0, 1] (1e-12 rounding slack)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    m = np.array([[float(v) for v in r[1:]] for r in rows])
    return (m.shape[0] == m.shape[1] > 0
            and bool(np.all(np.abs(np.diag(m) - 1.0) <= 1e-6))
            and bool(np.all((m >= -1e-12) & (m <= 1.0 + 1e-12))))


class NullSpans:
    """Stands in for the tracer in untraced repetitions."""

    def span(self, name, attrs=None):
        return contextlib.nullcontext()


class Bench:
    """One workload at one seed: its stages, samples, checks and failure count."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.inputs: Inputs | None = None
        self.spans = NullSpans()
        self.attempted = 0
        self.failed = 0
        self.flags: list[str] = []
        self.samples: dict[str, list[float]] = {
            "setup_s": [], "train_examples_per_s": [], "train_step_ms": [],
            "extract_clips_per_s": [], "probe_s": [], "analyze_pwcca_s": [],
        }
        self._first_csv: bytes | None = None
        self._first_probe: dict[int, bytes] = {}
        self._step_ends: list[float] = []
        self.reference = json.loads(REFERENCE_PATH.read_text())

    # -- bookkeeping --

    def attempt(self, what: str, fn) -> None:
        """Run one operation; an exception or a failed check counts as a failure."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception:  # noqa: BLE001 - any failure is counted and reported
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print(f"perfbench: failed: {what}", file=sys.stderr)

    def watch_steps(self):
        """Record when each `adamw_step` returns: the only step boundary
        visible from outside `train`. Returns the function that undoes it."""
        orig = TRAIN_MODULE.adamw_step
        ends = self._step_ends

        def adamw_step(*args, **kwargs):
            out = orig(*args, **kwargs)
            ends.append(perf_counter())
            return out

        TRAIN_MODULE.adamw_step = adamw_step

        def undo():
            TRAIN_MODULE.adamw_step = orig

        return undo

    # -- stages --

    def setup(self) -> bool:
        with self.spans.span("stage.setup"):
            t0 = perf_counter()
            self.inputs = make_inputs(self.w, self.seed, self.work / "inputs")
            self.samples["setup_s"].append(perf_counter() - t0)
        return True

    def train_stage(self) -> bool:
        plan = self.w.train
        csv_path = self.work / "loss.csv"
        self._step_ends.clear()
        with self.spans.span("train.train"):
            t0 = perf_counter()
            train(self.inputs.train_data, mae_config(plan.model, self.seed),
                  train_config(plan.model, self.seed), out_ckpt=self.work / "pretrain.ckpt",
                  loss_csv=csv_path, max_steps=plan.steps)
            wall = perf_counter() - t0
        self.samples["train_examples_per_s"].append(plan.steps * BATCH / wall)
        self.samples["train_step_ms"].extend(np.diff(self._step_ends) * 1e3)
        got = csv_path.read_bytes()
        if self._first_csv is None:
            self._first_csv = got
        return got == self._first_csv and len(self._step_ends) == plan.steps

    def _cli(self, cmd: str, argv: list[str]) -> tuple[int, float]:
        with self.spans.span(f"cli.{cmd}"):
            t0 = perf_counter()
            code = cli.main([str(a) for a in argv])
            return code, perf_counter() - t0

    def extract(self) -> bool:
        emb = self.work / "embeddings.bin"
        code, wall = self._cli("extract", ["extract", "--ckpt", self.inputs.ckpt,
                                           "--wav-dir", self.inputs.eval_wavs, "--out", emb])
        self.samples["extract_clips_per_s"].append(self.w.eval.clips / wall)
        if code != 0:
            return False
        got = load_tensors(emb)
        names = sorted(p.name for p in self.inputs.eval_wavs.glob("*.wav"))
        width = PIPELINE_MAE["enc_width"]
        return sorted(got) == names and all(
            v.shape == (width,) and np.all(np.isfinite(v)) for v in got.values())

    def probe(self, k: int) -> bool:
        out = self.work / f"probe{k}.json"
        code, wall = self._cli("probe", ["--seed", sub_seed(self.seed, 5, k), "probe",
                                         "--embeddings", self.work / "embeddings.bin",
                                         "--labels", self.inputs.probe_labels, "--out", out])
        self.samples["probe_s"].append(wall)
        if code != 0:
            return False
        got = out.read_bytes()
        first = self._first_probe.setdefault(k, got)
        epochs = json.loads(got)["epochs_ran"]
        if epochs != self.reference["probe_epochs"]:
            self.flag(f"probe ran {epochs} epochs, reference {self.reference['probe_epochs']}: "
                      "probe_s is not comparable with the parent")
        return got == first

    def analyze(self) -> bool:
        out = self.work / "pwcca.csv"
        code, wall = self._cli("analyze", ["analyze", "pwcca", "--ckpt", self.inputs.ckpt,
                                           "--data", self.inputs.analysis_wavs, "--out", out,
                                           "--stack", "decoder"])
        self.samples["analyze_pwcca_s"].append(wall)
        return code == 0 and pwcca_matrix_ok(out)

    def extracts(self) -> None:
        for _ in range(self.w.eval.repeats):
            self.attempt("extract", self.extract)

    def probes(self) -> None:
        for k in range(self.w.eval.probe_seeds):
            self.attempt(f"probe seed {k}", lambda k=k: self.probe(k))

    def analyses(self) -> None:
        for _ in range(self.w.eval.repeats):
            self.attempt("analyze pwcca", self.analyze)

    def repetition(self) -> None:
        """A train call before each eval command. The machine's speed drifts
        over seconds; interleaving spreads every metric's samples over the
        run instead of bunching one stage's samples into one stretch."""
        for unit in (self.extracts, self.probes, self.analyses):
            self.attempt("train", self.train_stage)
            unit()

    def flag(self, msg: str) -> None:
        if msg not in self.flags:
            self.flags.append(msg)
            print(f"perfbench: flag: {msg}", file=sys.stderr)

    # -- stored reference --

    def reference_check(self) -> bool:
        """Loss trajectory of a short fixed-seed run against reference.json."""
        model = self.w.train.model
        want = self.reference["losses"][model]
        got = reference_losses(model, self.work / "reference")
        rtol = self.reference["rtol"]
        return len(got) == len(want) and all(
            abs(a - b) <= rtol * abs(b) for a, b in zip(got, want))


REFERENCE_SEED = 0
REFERENCE_STEPS = {"pipeline": 4, "tiny": 8}


def reference_losses(model: str, work: Path) -> list[float]:
    """Per-step losses of a short run at the reference seed: 16 pipeline WAV
    clips (two steps per epoch) or 64 tiny spectrograms."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cfg = mae_config(model, REFERENCE_SEED)
    if model == "pipeline":
        gen_corpus(SynthSpec(**PIPELINE_CORPUS), 16, REFERENCE_SEED, work / "wavs")
        data = WavSpecDataset(work / "wavs", cfg.input_t, seed=REFERENCE_SEED)
    else:
        data = toy_spectrograms(64, REFERENCE_SEED)
    result = train(data, cfg, train_config(model, REFERENCE_SEED),
                   max_steps=REFERENCE_STEPS[model])
    shutil.rmtree(work)
    return [float(x) for x in result.losses]


def write_reference() -> None:
    """Regenerate reference.json from the current code."""
    work = REFERENCE_PATH.parent / "out" / "reference"
    doc = {
        "seed": REFERENCE_SEED,
        "rtol": 1e-6,
        # One validation clip keeps the validation mAP at 1, so the probe stops
        # after its patience (20) plus one epoch.
        "probe_epochs": 21,
        "losses": {m: reference_losses(m, work) for m in REFERENCE_STEPS},
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=2) + "\n")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


TRAIN_CALLS_PER_REPETITION = 3  # one before each eval step in Bench.repetition


def min_repetitions(w: Workload) -> int:
    """At least 3, so that every median over eval calls has three samples,
    and enough train() calls for 100 step gaps, so that 10 or more samples
    lie beyond the reported p90."""
    return max(3, math.ceil(100 / (TRAIN_CALLS_PER_REPETITION * (w.train.steps - 1))))
