"""Run manifests: reproducibility records written beside every CLI artifact."""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import scipy

# the BLAS thread counts: byte-identical reruns hold at a fixed count
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _environment() -> dict:
    """The BLAS thread variables (None when unset), and the numpy, scipy and BLAS versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {**{name: os.environ.get(name) for name in THREAD_VARIABLES},
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def write_manifest(artifact_path, command: str, args: dict, inputs: list,
                   seed: int | None = None) -> Path:
    """Write `<artifact>.manifest.json` atomically; returns the manifest path."""
    from . import __version__

    payload = {
        "command": command,
        "config": {k: v for k, v in sorted(args.items())},
        "environment": _environment(),
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "output": str(artifact_path),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = Path(str(artifact_path) + ".manifest.json")
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
    tmp.replace(path)
    return path
