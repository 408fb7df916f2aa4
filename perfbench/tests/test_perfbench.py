"""Tests of the benchmark itself, on its smoke mode (a few steps per stage).

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w["name"], trace): smoke_run(w["name"], 1, trace)
            for w in SPEC["workloads"] for trace in (0, 1)}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_every_metric_with_its_unit(results, trace, key):
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    for w in SPEC["workloads"]:
        got = results[(w["name"], trace)]
        assert set(got) == {"correct", "attempted", "failed", "metrics"}
        assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
        assert {k: v["unit"] for k, v in got["metrics"].items()} == want
        assert all(np.isfinite(v["value"]) for v in got["metrics"].values())


COUNTS = ("tensor.graph_nodes_per_example", "tensor.backward_calls_per_step",
          "analysis.pwcca_calls", "analysis.svd_calls", "audio.logmel_calls",
          "evalkit.probe_epochs")


def test_counts_are_positive_and_probe_work_is_fixed(results):
    epochs = json.loads(bench.REFERENCE_PATH.read_text())["probe_epochs"]
    for w in SPEC["workloads"]:
        m = results[(w["name"], 1)]["metrics"]
        assert all(m[k]["value"] > 0 for k in COUNTS)
        assert m["evalkit.probe_epochs"]["value"] == epochs


def test_counts_repeat_for_the_same_seed(results):
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]
            if m["name"] in COUNTS} == dict.fromkeys(COUNTS, "count")
    first = results[("pretrain-pipeline", 1)]["metrics"]
    again = smoke_run("pretrain-pipeline", 1, 1)["metrics"]
    assert {k: again[k]["value"] for k in COUNTS} == {k: first[k]["value"] for k in COUNTS}


def test_spans_nest(results):
    path = HERE / "out" / "evaluate-seed1-trace1-spans.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows
    for r in rows:
        if r["parent"] is not None:
            p = rows[r["parent"]]
            assert p["id"] < r["id"] and p["run"] == r["run"]
            assert p["start"] <= r["start"] <= r["end"] <= p["end"]
    names = {r["name"] for r in rows}
    assert {"train.train", "cli.extract", "cli.probe", "cli.analyze",
            "numpy.linalg.svd", "tensor.backward"} <= names
    svd_parents = {rows[r["parent"]]["name"] for r in rows if r["name"] == "numpy.linalg.svd"}
    assert svd_parents == {"analysis.pwcca"}


def test_self_time_subtracts_the_union_of_children():
    s = [spans.Span("a", 0.0, 1.0, None, "r"),
         spans.Span("b", 0.1, 0.4, 0, "r"),
         spans.Span("c", 0.3, 0.5, 0, "r"),
         spans.Span("d", 0.2, 0.3, 1, "r")]
    got = spans.self_ms(s)
    assert got == pytest.approx([600.0, 200.0, 200.0, 100.0])


def test_seed_changes_inputs_but_not_metric_names(results, tmp_path):
    w = bench.smoke(bench.WORKLOADS["pretrain-pipeline"])
    a = bench.make_inputs(w, 1, tmp_path / "a")
    b = bench.make_inputs(w, 2, tmp_path / "b")
    first = sorted(a.eval_wavs.glob("*.wav"))[0].name
    assert (a.eval_wavs / first).read_bytes() != (b.eval_wavs / first).read_bytes()
    assert a.ckpt.read_bytes() != b.ckpt.read_bytes()
    assert not np.array_equal(a.train_data.full_specs[0], b.train_data.full_specs[0])
    again = bench.make_inputs(w, 1, tmp_path / "c")
    assert (again.eval_wavs / first).read_bytes() == (a.eval_wavs / first).read_bytes()
    other = smoke_run("pretrain-pipeline", 2, 0)
    assert set(other["metrics"]) == set(results[("pretrain-pipeline", 0)]["metrics"])


def test_wrappers_change_no_result():
    from mwmae.model import MaeParams, mae_forward

    cfg = bench.mae_config("tiny", 3)
    spec = bench.toy_spectrograms(1, 4)[0]

    def loss_and_grad():
        params = MaeParams.init(cfg)
        out = mae_forward(spec, cfg, params, seed=5)
        out.loss.backward()
        return out.loss.item(), params.embed_w.grad.copy()

    plain = loss_and_grad()
    tracer = spans.Tracer()
    before = bench.TRAIN_MODULE.mae_forward
    tracer.install()
    try:
        traced = loss_and_grad()
    finally:
        tracer.uninstall()
    assert bench.TRAIN_MODULE.mae_forward is before
    assert traced[0] == plain[0] and np.array_equal(traced[1], plain[1])
    assert any(s.name == "tensor.backward" for s in tracer.spans)
