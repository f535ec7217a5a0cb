"""Reference implementations kept as test oracles.

The production hot paths -- batched problem kernels, the box-grid
archive index, the shape-dispatched non-dominated filter, the buffered
population, the hypervolume engine, and the simulation model's event
recurrences -- each replaced a straightforward implementation.  Those
originals are frozen here, verbatim, so tests and benchmarks can
compare production against them:

* :mod:`.problems` -- the scalar ``_evaluate``/``_evaluate_constraints``
  kernels and the row-by-row batch loop;
* :mod:`.archive` -- the full-scan archive update;
* :mod:`.dominance` -- the row-at-a-time non-dominated filter;
* :mod:`.population` -- the list-rebuilding population with its
  scalar-draw pairwise tournament;
* :mod:`.hypervolume` -- the recursive WFG hypervolume;
* :mod:`.simkit` -- the SimPy-style discrete-event engine, which runs
  :mod:`.simmodel` (the §IV-B simulation model's async, sync and
  island processes, oracle for the fastsim kernels) and :mod:`.faults`
  (the interrupt-driven churn model, oracle for the event heap of
  :func:`repro.models.faults.simulate_async_with_failures`).

:func:`use_reference_paths` patches the hot-path oracles in at their
use sites, so a whole seeded run can be replayed on the reference
paths.

Tests import this package as ``reference`` (``tests/`` is on the path
of its own test modules); the benchmark harness imports it as
``tests.reference``.
"""

from __future__ import annotations

import sys

# Every use site below must be loaded before it can be patched.
import repro.core.archive
import repro.core.borg
import repro.core.checkpoint
import repro.core.moead  # noqa: F401
import repro.core.nsga2  # noqa: F401
import repro.indicators  # noqa: F401
import repro.storage.cache  # noqa: F401
from repro.problems.wfg import _WFG

from .archive import FullScanArchive, as_full_scan, full_scan_contest
from .dominance import nondominated_mask_reference
from .hypervolume import clean_front_reference, hypervolume_reference, wfg
from .population import Population as ReferencePopulation
from .problems import SCALAR_KERNELS, evaluate_batch_fallback, scalar_evaluate
from .simmodel import (
    simulate_async_reference,
    simulate_islands_reference,
    simulate_sync_reference,
)

__all__ = [
    "FullScanArchive",
    "as_full_scan",
    "evaluate_batch_fallback",
    "hypervolume_reference",
    "nondominated_mask_reference",
    "ReferencePopulation",
    "scalar_evaluate",
    "simulate_async_reference",
    "simulate_islands_reference",
    "simulate_sync_reference",
    "use_reference_paths",
    "wfg",
]

#: Modules that bind ``nondominated_mask`` at import time.
_MASK_USE_SITES = (
    "repro.core.dominance",
    "repro.core.archive",
    "repro.core.moead",
    "repro.core.nsga2",
    "repro.storage.cache",
)

#: Modules that bind ``Population`` at import time.
_POPULATION_USE_SITES = ("repro.core.borg", "repro.core.checkpoint")

#: Modules that bind ``hypervolume`` at import time.
_HV_USE_SITES = ("repro.indicators.hypervolume", "repro.indicators")


def use_reference_paths(monkeypatch) -> None:
    """Patch every oracle in at its use sites through ``monkeypatch``.

    Problem kernels become the scalar row loop, archive offers the full
    scan, ``nondominated_mask`` the row-at-a-time filter, new engines'
    populations the list-rebuilding one and ``hypervolume`` the WFG
    recursion; undoing ``monkeypatch`` restores
    production.
    """
    for cls in SCALAR_KERNELS:
        # WFG's scalar path always was a batch of one through its kernel.
        if cls is not _WFG:
            monkeypatch.setattr(cls, "_evaluate_batch", evaluate_batch_fallback)
    monkeypatch.setattr(
        repro.core.archive.EpsilonBoxArchive, "_contest", full_scan_contest
    )
    for name in _MASK_USE_SITES:
        monkeypatch.setattr(
            sys.modules[name], "nondominated_mask", nondominated_mask_reference
        )
    for name in _POPULATION_USE_SITES:
        monkeypatch.setattr(sys.modules[name], "Population", ReferencePopulation)
    for name in _HV_USE_SITES:
        monkeypatch.setattr(
            sys.modules[name], "hypervolume", hypervolume_reference
        )
    monkeypatch.setattr(
        sys.modules["repro.indicators.hypervolume"],
        "_clean_front",
        clean_front_reference,
    )
