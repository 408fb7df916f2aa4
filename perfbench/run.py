"""mwmae benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pretrain-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the last stdout line holds the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run. A record with the
environment, every sample and any flags goes to `perfbench/out/`.
`--smoke` runs each stage once at a few steps; `--write-reference`
regenerates `reference.json`.
"""

import os

# Before numpy loads: one BLAS thread. Default threading made small matmuls
# 10-100x slower on a loaded 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "mwmae" / "__init__.py").is_file():
    sys.exit(f"perfbench: no mwmae package under {ROOT / 'src'}; run from a source checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import bench  # noqa: E402
import spans as spans_mod  # noqa: E402

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "ex/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p90": "ms",
    "extract_clips_per_s": "clips/s",
    "probe_s": "s",
    "analyze_pwcca_s": "s",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown: numpy.show_config(mode='dicts') unavailable"
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


def fits(start: float, last: float, seconds: float) -> bool:
    """Whether another repetition, as long as the last one, ends within the budget."""
    return perf_counter() - start + last <= seconds


def run_untraced(b: bench.Bench, seconds: float, min_reps: int) -> dict:
    for _ in range(SETUP_REPEATS):
        b.attempt("setup", b.setup)
    b.attempt("reference trajectory", b.reference_check)
    start, reps, last = perf_counter(), 0, 0.0
    while reps < min_reps or fits(start, last, seconds):
        t0 = perf_counter()
        b.repetition()
        reps, last = reps + 1, perf_counter() - t0
    s = b.samples
    values = {
        "setup_s": bench.median(s["setup_s"]),
        "train_examples_per_s": bench.median(s["train_examples_per_s"]),
        "train_step_ms_p50": bench.percentile(s["train_step_ms"], 50),
        "train_step_ms_p90": bench.percentile(s["train_step_ms"], 90),
        "extract_clips_per_s": bench.median(s["extract_clips_per_s"]),
        "probe_s": bench.median(s["probe_s"]),
        "analyze_pwcca_s": bench.median(s["analyze_pwcca_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_traced(b: bench.Bench, seconds: float, tracer: spans_mod.Tracer) -> dict:
    """Traced set-up, then untraced and traced repetitions in turn."""
    b.spans = tracer
    tracer.install()
    b.attempt("setup", b.setup)
    tracer.uninstall()
    b.attempt("reference trajectory", b.reference_check)
    walls = {False: [], True: []}
    start, k = perf_counter(), 0
    while k == 0 or fits(start, walls[False][-1] + walls[True][-1], seconds):
        for traced in (False, True):
            b.spans = tracer if traced else bench.NullSpans()
            if traced:
                tracer.run = f"rep{k}"
                tracer.install()
            t0 = perf_counter()
            try:
                b.repetition()
            finally:
                walls[traced].append(perf_counter() - t0)
                tracer.uninstall()
        k += 1
    runs = spans_mod.split_runs(tracer.spans)
    reps = [spans_mod.rep_metrics(runs[f"rep{i}"]) for i in range(k)]
    values = {name: bench.median([r[name] for r in reps]) for name in reps[0]}
    values.update(spans_mod.audio_metrics(runs["setup"] + runs["rep0"]))
    values["trace.overhead_ratio"] = (bench.median(walls[True]) / bench.median(walls[False])
                                      - 1.0)
    return {k: {"value": v, "unit": spans_mod.unit(k)} for k, v in sorted(values.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        bench.write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    workload = bench.WORKLOADS[args.workload]
    min_reps = bench.min_repetitions(workload)
    if args.smoke:
        workload, min_reps, args.seconds = bench.smoke(workload), 1, 0.0
    out_dir = HERE / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    b = bench.Bench(workload, args.seed, work)
    undo = b.watch_steps()
    tracer = spans_mod.Tracer()
    try:
        if args.trace:
            metrics = run_traced(b, args.seconds, tracer)
        else:
            metrics = run_untraced(b, args.seconds, min_reps)
    finally:
        undo()
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "env": environment(), "flags": b.flags,
              "sample_counts": {k: len(v) for k, v in b.samples.items()},
              "samples": {k: [float(x) for x in v] for k, v in b.samples.items()},
              "result": result}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(out_dir / f"{tag}-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
