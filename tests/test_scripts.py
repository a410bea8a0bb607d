"""The shipped scripts still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_gradient_check_script_passes(cell):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gradient_check.py"), "--cell", cell],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"cell={cell}" in result.stdout
