"""Shared configuration for the benchmark harness.

Each ``test_bench_*`` module regenerates one table or figure of the
paper at reduced ("smoke") scale and benchmarks the regeneration, so
``pytest benchmarks/ --benchmark-only`` both times the harness and
prints the rows/series the paper reports.  Full-scale regeneration is
``python -m repro.experiments.<name> --scale ci|paper``.

Modules that commit a ``BENCH_<name>.json`` record through one
:class:`BenchRecorder` each (``from .conftest import BenchRecorder``);
``BENCH_<NAME>_QUICK=1`` shrinks such a module to its CI smoke scale.
"""

import functools
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The operating grid used by the benchmark-level regenerations."""
    return ExperimentScale(
        name="bench",
        nfe=1_000,
        replicates=1,
        processors=(16, 64, 256),
        tf_values=(0.001, 0.01),
        problems=("DTLZ2",),
        snapshot_interval=100,
        hv_samples=4_000,
    )


ROOT = Path(__file__).resolve().parent.parent


def quick_mode(name: str) -> bool:
    """Whether ``BENCH_<NAME>_QUICK`` selects the CI smoke scale."""
    flag = os.environ.get(f"BENCH_{name.upper()}_QUICK", "0")
    return flag not in ("0", "", "false")


@functools.lru_cache(maxsize=None)
def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


class BenchRecorder:
    """Merges measurements into ``BENCH_<name>.json`` at the repo root.

    Partial runs of a module keep the file's other entries; every write
    restamps the shared ``_meta`` block (CPU count, Python and NumPy
    versions, git SHA when available, and the quick flag).
    """

    def __init__(self, name: str) -> None:
        self.quick = quick_mode(name)
        self.path = ROOT / f"BENCH_{name}.json"

    def __call__(self, key: str, payload: dict) -> None:
        data = {}
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text())
            except json.JSONDecodeError:
                data = {}
            if not isinstance(data, dict):
                data = {}
        data[key] = payload
        data["_meta"] = {
            "quick": self.quick,
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": _git_sha(),
        }
        self.path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
