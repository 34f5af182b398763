"""The corpus-size sweep in experiments/ runs to completion at a small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scale_sweep_runs_at_100_documents():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    script = ROOT / "experiments" / "scale.py"
    result = subprocess.run([sys.executable, str(script), "--sizes", "100"], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert [size["docs"] for size in json.loads(result.stdout)["sizes"]] == [100]
