"""Smoke test: the quick demos run to completion as scripts.

`04_probe_pipeline.py` is left out: it takes over a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["00_autodiff_basics.py", "01_windowed_attention.py", "02_pretrain_toy.py",
         "03_head_analysis.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # run from a scratch directory: demo 02 writes its loss CSV to the cwd
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
