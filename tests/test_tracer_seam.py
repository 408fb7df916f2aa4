"""perfbench's tracer against the package: every name it wraps still exists,
its wrappers pass calls through, and uninstalling puts every original back.

perfbench's own tests are not collected here, so without this check a renamed
or removed function that the tracer wraps would break only traced runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_the_package(monkeypatch):
    analysis, cli, train, tensor = (importlib.import_module(f"mwmae.{n}")
                                    for n in ("analysis", "cli", "train", "tensor"))
    named = [(train, "mae_forward"), (tensor.Tensor, "backward"),
             (cli, "pwcca_matrix"), (analysis, "pwcca")]
    before = [getattr(owner, attr) for owner, attr in named]
    svd = np.linalg.svd
    tracer = _tracer_module(monkeypatch).Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._saved)
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in wrapped)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        assert analysis.pwcca(x, y) == before[-1](x, y)
        assert [s.name for s in tracer.spans] == ["analysis.pwcca"]
    finally:
        tracer.uninstall()
    assert len(wrapped) > len(named)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in wrapped)
    assert [getattr(owner, attr) for owner, attr in named] == before
    assert np.linalg.svd is svd
