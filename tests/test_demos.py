"""The demo scripts run to completion."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hangerline as hl

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["balance_shirt_line", "dynamic_simulation", "productivity_comparison", "uncertainty_bands"]
)
def test_demo_exits_0(name, tmp_path):
    # run a copy, so a demo that writes next to itself writes under tmp_path
    script = shutil.copy(DEMOS / f"{name}.py", tmp_path)
    src = str(Path(hl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
