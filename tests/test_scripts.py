import os
import subprocess
import sys

import newsgeo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_beta_sweep_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "beta_sweep.py"),
         "--betas", "1.0", "--seeds", "1", "--states", "10"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(newsgeo.__file__))))
    assert proc.returncode == 0, proc.stderr
    assert "worst absolute error" in proc.stdout
