"""Spans around mwmae's public calls, installed from outside the package.

Every wrapper is set on the namespace that *calls* the function, because the
package's modules import names directly (`from .model import mae_forward`):
patching the defining module would miss those callers. Wrappers pass their
arguments and return values through untouched.

A span is (name, start, end, parent, run id, attrs). Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _graph_nodes(root) -> int:
    """Tensors reachable from a backward root through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _win_attrs(args, kwargs):
    q = args[0]
    win = args[3] if len(args) > 3 else kwargs["win"]
    return {"win": int(win), "n": int(q.shape[0])}


def _backward_attrs(args, kwargs):
    return {"nodes": _graph_nodes(args[0])}


def _load_attrs(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _after_save(span, args, kwargs, out):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _after_probe(span, args, kwargs, out):
    span.attrs["epochs"] = out.epochs_ran


class Tracer:
    """Records spans; `install()` wraps the package, `uninstall()` restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.run = "setup"

    # -- span bookkeeping --

    def begin(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, perf_counter(), 0.0, parent, self.run, attrs or {})
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        s = self.begin(name, attrs)
        try:
            yield s
        finally:
            self.end(s)

    # -- wrapping --

    def _wrap(self, fn, name, attrs=None, after=None, during=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs else None
            span = tracer.begin(name, extra)
            undo = during() if during else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if undo:
                    undo()
                tracer.end(span)
            if after:
                after(span, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, **hooks) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, **hooks))

    def _svd_inside(self):
        """Wrap numpy.linalg.svd for the duration of one pwcca_matrix call."""
        orig = np.linalg.svd
        np.linalg.svd = self._wrap(orig, "numpy.linalg.svd")

        def undo():
            np.linalg.svd = orig

        return undo

    def install(self) -> None:
        # The package re-exports `train` and `attention` as functions, so the
        # modules must come from importlib, not from attribute access.
        mod = {n: importlib.import_module(f"mwmae.{n}") for n in (
            "analysis", "attention", "audio", "cli", "evalkit", "model",
            "tensor", "train")}
        p = self._patch
        p(mod["tensor"].Tensor, "backward", "tensor.backward", attrs=_backward_attrs)
        p(mod["train"], "mae_forward", "model.mae_forward")
        p(mod["train"], "adamw_step", "train.adamw_step")
        p(mod["train"], "save_checkpoint", "train.save_checkpoint")
        p(mod["train"].WavSpecDataset, "spec", "train.data")
        p(mod["train"].SpectrogramDataset, "spec", "train.data")
        p(mod["model"], "mw_mha", "attention.mw_mha")
        p(mod["model"], "mha", "attention.mha")
        p(mod["attention"], "win_attention", "attention.win_attention", attrs=_win_attrs)
        p(mod["evalkit"], "encode_all", "model.encode_all")
        for owner in (mod["audio"], mod["evalkit"], mod["cli"]):
            p(owner, "logmel", "audio.logmel")
        for owner in (mod["audio"], mod["cli"]):
            p(owner, "load_wav", "audio.load_wav")
        for owner in (mod["model"], mod["cli"]):
            p(owner, "save_tensors", "container.save", after=_after_save)
            p(owner, "load_tensors", "container.load", attrs=_load_attrs)
        p(mod["cli"], "scene_embedding", "evalkit.scene_embedding")
        p(mod["cli"], "train_probe", "evalkit.train_probe", after=_after_probe)
        p(mod["cli"], "collect_stack", "analysis.collect_stack")
        p(mod["cli"], "pwcca_matrix", "analysis.pwcca_matrix", during=self._svd_inside)
        p(mod["analysis"], "pwcca", "analysis.pwcca")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run,
                                     "attrs": s.attrs}) + "\n")


# -- derived metrics --


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start - covered) * 1e3)
    return out


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


# Window sizes of the decoder schedule at the 250-patch (200x80) input.
PIPELINE_WINDOWS = (2, 5, 10, 25, 50, 125, 250)


def rep_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (spans of one run id)."""
    idx = range(len(spans))
    under_train = [any(a.name == "train.train" for a in _ancestors(spans, i)) for i in idx]
    selfs = self_ms(spans)

    def pick(name, train_only=False):
        return [spans[i] for i in idx if spans[i].name == name
                and (under_train[i] or not train_only)]

    def total(name, train_only=False):
        return sum(s.ms for s in pick(name, train_only))

    def mean(name):
        got = pick(name)
        return sum(s.ms for s in got) / len(got)

    steps = len(pick("train.adamw_step", train_only=True))
    backward = pick("tensor.backward", train_only=True)
    clips = len(pick("evalkit.scene_embedding"))
    analyses = len(pick("analysis.pwcca_matrix"))
    m = {
        "tensor.backward_ms_per_step": total("tensor.backward", True) / steps,
        "tensor.backward_calls_per_step": len(backward) / steps,
        "tensor.graph_nodes_per_example":
            sum(s.attrs["nodes"] for s in backward) / len(backward),
        "model.forward_ms_per_step": total("model.mae_forward", True) / steps,
        "model.encode_all_ms_per_clip": total("model.encode_all") / clips,
        "attention.mw_mha_ms_per_step": total("attention.mw_mha", True) / steps,
        "attention.mha_ms_per_step": total("attention.mha", True) / steps,
    }
    win_ms = defaultdict(list)
    for i in idx:
        s = spans[i]
        if s.name == "attention.win_attention" and s.attrs["n"] == 250 and any(
                a.name == "attention.mw_mha" for a in _ancestors(spans, i)):
            win_ms[s.attrs["win"]].append(s.ms)
    for w in PIPELINE_WINDOWS:
        m[f"attention.win_attention_ms.w{w}"] = statistics.median(win_ms[w])
    m.update({
        "train.adamw_ms_per_step": total("train.adamw_step", True) / steps,
        "train.data_ms_per_step": total("train.data", True) / steps,
        "train.checkpoint_ms": mean("train.save_checkpoint"),
        "container.save_ms": mean("container.save"),
        "container.load_ms": mean("container.load"),
        "container.bytes_written": sum(s.attrs["bytes"] for s in pick("container.save")),
        "container.bytes_read": sum(s.attrs["bytes"] for s in pick("container.load")),
        "evalkit.scene_embedding_ms_per_clip": mean("evalkit.scene_embedding"),
        "evalkit.chunks_per_clip": len(pick("model.encode_all")) / clips,
        "evalkit.train_probe_ms": mean("evalkit.train_probe"),
        "evalkit.probe_epochs": statistics.mean(
            s.attrs["epochs"] for s in pick("evalkit.train_probe")),
        "analysis.collect_stack_ms": mean("analysis.collect_stack"),
        "analysis.pwcca_calls": len(pick("analysis.pwcca")) / analyses,
        "analysis.pwcca_ms_per_call": mean("analysis.pwcca"),
        "analysis.svd_calls": len(pick("numpy.linalg.svd")) / analyses,
        "analysis.svd_ms": total("numpy.linalg.svd") / analyses,
    })
    for cmd in ("extract", "probe", "analyze"):
        own = [selfs[i] for i in idx if spans[i].name == f"cli.{cmd}"]
        m[f"cli.self_ms.{cmd}"] = sum(own) / len(own)
    return m


def split_runs(spans: list[Span]) -> dict[str, list[Span]]:
    """Spans grouped by run id, parents re-indexed within each group."""
    runs: dict[str, list[Span]] = defaultdict(list)
    where: dict[int, int] = {}
    for i, s in enumerate(spans):
        group = runs[s.run]
        where[i] = len(group)
        parent = where[s.parent] if s.parent is not None else None
        group.append(Span(s.name, s.start, s.end, parent, s.run, s.attrs))
    return dict(runs)


def audio_metrics(spans: list[Span]) -> dict[str, float]:
    """Feature-layer metrics over set-up plus one repetition."""
    logmel = [s.ms for s in spans if s.name == "audio.logmel"]
    load = [s.ms for s in spans if s.name == "audio.load_wav"]
    return {
        "audio.logmel_calls": len(logmel),
        "audio.logmel_ms_per_call": sum(logmel) / len(logmel),
        "audio.load_wav_ms_per_call": sum(load) / len(load),
    }


_COUNTS = {
    "tensor.backward_calls_per_step", "tensor.graph_nodes_per_example",
    "audio.logmel_calls", "evalkit.chunks_per_clip", "evalkit.probe_epochs",
    "analysis.pwcca_calls", "analysis.svd_calls",
}


def unit(name: str) -> str:
    if name in _COUNTS:
        return "count"
    if name.startswith("container.bytes"):
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "ms"
