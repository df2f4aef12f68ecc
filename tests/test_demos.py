"""Each quick demo runs to completion against the library in ``src/``.

Demo 04 trains for about 20 s and is left out."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
QUICK = ["01_attention_budget", "02_local_vs_full", "03_pooling_and_labels",
         "05_rouge", "06_locality_vs_topdown"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_exits_0(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
