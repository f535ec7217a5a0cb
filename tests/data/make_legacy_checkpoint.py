"""Write a legacy Borg checkpoint and the figures it must restore to.

``legacy_borg.ckpt`` is a version-1 Borg checkpoint of a serial run on
DTLZ2 (2 objectives, 11 variables) written by a tree whose
``BorgConfig`` still had ``frequency_bias_correction``: the pickled
config carries that attribute set to ``True`` and the engine state
carries a nonzero ``arrival_counts`` map.  Neither exists any more.
``legacy_borg.json`` records the checkpoint's NFE and the SHA-256 of
its archive (variables, then objectives, member by member, float64).
``tests/test_checkpoint.py::TestLegacyCheckpoint`` restores the
committed bytes, matches those figures and runs on.

The files are committed, not generated at test time.  This script runs
only on a tree that still has the knob (commit b97a255 or earlier):

    PYTHONPATH=src python tests/data/make_legacy_checkpoint.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from repro.core import BorgConfig, BorgMOEA, load_checkpoint
from repro.problems import DTLZ2

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "legacy_borg.ckpt")
EXPECTED = os.path.join(HERE, "legacy_borg.json")
SEED = 5
NFE = 600


def archive_digest(solutions) -> str:
    """SHA-256 over each member's float64 variables then objectives."""
    h = hashlib.sha256()
    for s in solutions:
        h.update(np.asarray(s.variables, dtype=np.float64).tobytes())
        h.update(np.asarray(s.objectives, dtype=np.float64).tobytes())
    return h.hexdigest()


def main() -> int:
    config = BorgConfig(
        initial_population_size=20,
        adaptation_interval=50,
        frequency_bias_correction=True,
    )
    moea = BorgMOEA(DTLZ2(nobjs=2, nvars=11), config=config, seed=SEED)
    moea.run(NFE, checkpoint=CHECKPOINT, checkpoint_interval=NFE)
    state = load_checkpoint(CHECKPOINT)["state"]
    assert state["config"].frequency_bias_correction is True
    assert sum(state["arrival_counts"].values()) == NFE
    expected = {
        "problem": "DTLZ2(nobjs=2, nvars=11)",
        "nfe": moea.engine.nfe,
        "archive_size": len(moea.engine.archive),
        "archive_sha256": archive_digest(moea.engine.archive.solutions),
    }
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")
    print(f"wrote {CHECKPOINT} ({os.path.getsize(CHECKPOINT)} B) and {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
