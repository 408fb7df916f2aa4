"""Command-line entry point.

Subcommands: synth, pretrain, extract, probe, analyze, score, selftest.
Configuration is plain JSON with unknown keys rejected; logs go to stderr,
data only to files. Exit codes: 0 success, 2 usage error, 1 anything else
(with a single machine-parsable line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analysis import (PatchGrid, attention_entropy, collect_stack, head_table,
                       mean_attention_distance, pwcca_matrix)
from .audio import crop_or_pad, load_wav, wav_paths
from .audio import logmel  # noqa: F401 - perfbench's tracer wraps `cli.logmel`
from .container import atomic_file, load_tensors, save_tensors
from .errors import ContractError
from .evalkit import TaskScoreTable, overall_score, scene_embedding, train_probe
from .model import MaeConfig, check_config_field, load_checkpoint
from .synth import default_spec, gen_corpus, read_labels, KINDS
from .train import TrainConfig, WavSpecDataset, train, two_thread_map

_MAE_DEFAULTS = {f.name: f.default for f in fields(MaeConfig)}
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}
# Int fields where 0 is meaningful; every other int field must be >= 1.
_ZERO_OK = {"seed", "warmup_epochs", "ckpt_every_epochs"}
# Float fields that must be >= 0.
_RATES = {"base_lr", "weight_decay", "min_lr"}


def load_run_config(path: str | Path) -> tuple[MaeConfig, TrainConfig, int | None]:
    """Flat JSON union of model and training fields; one shared seed.

    Every value is type-checked before any config is built, with the rules
    of a checkpoint's sidecar (`model.check_config_field`); `betas` is two
    numbers in [0, 1), `base_lr`, `weight_decay` and `min_lr` are >= 0, and
    `max_steps` is an int >= 1 or null. A bad value raises ContractError
    naming the field.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ContractError(f"{path}: config is not JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ContractError("config must be a JSON object")
    # A default's type sets the rule for the field's value.
    defaults = {**_MAE_DEFAULTS, **_TRAIN_DEFAULTS, "max_steps": 1}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ContractError(f"unknown config keys: {unknown}")
    for name, value in raw.items():
        if name == "betas":
            if not (isinstance(value, list) and len(value) == 2):
                raise ContractError(f"{path}: field 'betas' must be two numbers, got {value!r}")
            for b in value:
                check_config_field(path, name, b, 0.0)
                if not 0.0 <= b < 1.0:  # beta = 1 zeroes AdamW's bias correction
                    raise ContractError(
                        f"{path}: field 'betas' must be two numbers in [0, 1), got {value!r}")
        elif not (name == "max_steps" and value is None):  # null: no step cap
            check_config_field(path, name, value, defaults[name],
                               low=0 if name in _ZERO_OK else 1)
            if name in _RATES and value < 0:
                raise ContractError(f"{path}: field {name!r} must be >= 0, got {value}")
    mae_kwargs = {k: raw[k] for k in raw if k in _MAE_DEFAULTS}
    train_kwargs = {k: raw[k] for k in raw if k in _TRAIN_DEFAULTS}
    if "betas" in train_kwargs:
        train_kwargs["betas"] = tuple(train_kwargs["betas"])
    mae_cfg = MaeConfig(**mae_kwargs)
    train_cfg = TrainConfig(**train_kwargs)
    return mae_cfg, train_cfg, raw.get("max_steps")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_seed(args) -> int:
    sub = getattr(args, "seed", None)
    if sub is not None:
        return sub
    if args.global_seed is not None:
        return args.global_seed
    return 0


def _cmd_synth(args) -> int:
    spec = default_spec(args.kind)
    seed = _resolve_seed(args)
    labels = gen_corpus(spec, args.n, seed, args.out)
    _log(f"wrote {args.n} clips and {labels}")
    return 0


def _cmd_pretrain(args) -> int:
    mae_cfg, train_cfg, max_steps = load_run_config(args.config)
    if args.global_seed is not None:
        mae_cfg.seed = args.global_seed
        train_cfg.seed = args.global_seed
    dataset = WavSpecDataset(args.data, mae_cfg.input_t, seed=train_cfg.seed)
    _log(f"pretraining on {len(dataset)} clips")
    result = train(
        dataset, mae_cfg, train_cfg,
        out_ckpt=args.out, loss_csv=args.loss_csv, max_steps=max_steps,
        log_every=50,
    )
    _log(f"final loss {result.losses[-1]:.6f}; checkpoint at {args.out}")
    return 0


def _cmd_extract(args) -> int:
    """Embed the clips on two threads (`two_thread_map`); the frozen
    parameters are only read. Results and the first error come in path
    order, as from a serial loop."""
    cfg, params = load_checkpoint(args.ckpt)
    paths = wav_paths(args.wav_dir)

    def embed(p: Path) -> np.ndarray:
        return scene_embedding(load_wav(p), cfg, params)

    vectors = two_thread_map(embed, paths)
    out = {str(p.relative_to(args.wav_dir)): v for p, v in zip(paths, vectors)}
    save_tensors(args.out, out)
    _log(f"wrote {len(out)} embeddings to {args.out}")
    return 0


def _cmd_probe(args) -> int:
    embeddings = load_tensors(args.embeddings)
    rows = read_labels(args.labels)
    feats, labels, splits = [], [], []
    for name, split, label in rows:
        if name not in embeddings:
            raise ContractError(f"no embedding for {name!r}")
        feats.append(embeddings[name])
        labels.append(label)
        splits.append(split)
    if any(";" in lab for lab in labels):
        vocab = sorted({tok for lab in labels for tok in lab.split(";") if tok})
        y = np.zeros((len(labels), len(vocab)))
        for i, lab in enumerate(labels):
            for tok in lab.split(";"):
                if tok:
                    y[i, vocab.index(tok)] = 1.0
    else:
        y = np.array(labels)
    result = train_probe(np.array(feats), y, np.array(splits), seed=_resolve_seed(args))
    payload = {
        "metric": result.metric_name,
        "test": result.test_metric,
        "valid": result.val_metric,
        "best_epoch": result.best_epoch,
        "epochs_ran": result.epochs_ran,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    _log(f"{result.metric_name}: test {result.test_metric:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    cfg, params = load_checkpoint(args.ckpt)
    full = WavSpecDataset(args.data, cfg.input_t).full_specs
    specs = [crop_or_pad(s, cfg.input_t, seed=i) for i, s in enumerate(full)]
    stack = args.stack or ("decoder" if args.metric == "pwcca" else "encoder")
    records = collect_stack(cfg, params, specs, stack=stack, probs=args.metric != "pwcca")
    if args.metric == "pwcca":
        matrix, names = pwcca_matrix(records)
        rows = [[""] + names]
        rows += [[name] + [repr(float(v)) for v in row] for name, row in zip(names, matrix)]
    else:
        grid = PatchGrid(cfg.grid_t, cfg.grid_f)
        table = head_table(records, attention_entropy if args.metric == "entropy"
                           else lambda rec: mean_attention_distance(rec, grid))
        rows = [["layer", "head", "value"]]
        rows += [[layer, head, repr(value)] for layer, head, value in table]
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    _write_text(args.out, text.getvalue())
    _log(f"wrote {args.metric} ({stack}) to {args.out}")
    return 0


def _write_text(path, text: str) -> None:
    """Replace `path` whole, or on any error leave it as it was."""
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def _read_metrics(path: Path) -> dict:
    """A metric file: a JSON object whose `tasks` maps task names to finite
    numbers, with an optional string `model` and an optional list
    `lower_is_better` of names from `tasks`. Anything else raises
    ContractError naming the file and the field."""
    try:
        doc = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ContractError(f"{path}: metric file is not JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: metric file must be a JSON object")
    if not isinstance(doc.get("tasks"), dict):
        raise ContractError(f"{path}: field 'tasks' must be an object of task scores")
    for task, value in doc["tasks"].items():
        check_config_field(path, f"tasks.{task}", value, 0.0)
    if not isinstance(doc.get("model", ""), str):
        raise ContractError(f"{path}: field 'model' must be a string, got {doc['model']!r}")
    lower = doc.get("lower_is_better", [])
    if not isinstance(lower, list) or not all(isinstance(t, str) for t in lower):
        raise ContractError(f"{path}: field 'lower_is_better' must be a list of task names")
    for task in lower:
        if task not in doc["tasks"]:
            raise ContractError(f"{path}: field 'lower_is_better': {task!r} is not in 'tasks'")
    return doc


def _cmd_score(args) -> int:
    files = sorted(Path(args.metrics_dir).glob("*.json"))
    if not files:
        raise ContractError(f"no .json metric files under {args.metrics_dir}")
    per_model, lower = {}, set()
    for f in files:
        doc = _read_metrics(f)
        name = doc.get("model", f.stem)
        if name in per_model:
            raise ContractError(f"{f}: field 'model': {name!r} is in another metric file too")
        per_model[name] = doc["tasks"]
        lower.update(doc.get("lower_is_better", []))
    tasks = sorted({t for scores in per_model.values() for t in scores})
    for name in per_model:
        missing = [t for t in tasks if t not in per_model[name]]
        if missing:
            raise ContractError(f"model {name!r} is missing tasks {missing}")
    scores = np.array([[per_model[m][t] for t in tasks] for m in per_model])
    table = TaskScoreTable(
        models=list(per_model), tasks=tasks, scores=scores,
        higher_is_better=[t not in lower for t in tasks],
    )
    payload = {"scores": {m: overall_score(table, m) for m in per_model}}
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _log(f"scored {len(per_model)} models over {len(tasks)} tasks")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwmae",
        description="Multi-window masked autoencoder: pretraining, analysis, evaluation.",
    )
    parser.add_argument(
        "--seed", type=int, default=None, dest="global_seed",
        help="global seed override",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled WAV corpus")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pretrain", help="train from a JSON config on a WAV directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv", required=True)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("extract", help="scene embeddings for every WAV in a directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("probe", help="train the shallow MLP probe on embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("analyze", help="attention entropy/distance/pwcca tables")
    p.add_argument("metric", choices=["entropy", "distance", "pwcca"])
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stack", choices=["encoder", "decoder"], default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("score", help="normalized overall score from per-model metrics")
    p.add_argument("--metrics-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single-line error contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
