"""Checkpoint/resume: full :class:`BorgEngine` state serialization.

A checkpoint captures *everything* the algorithm's future trajectory
depends on -- archive, population, pending dispatch queue, operator
selection probabilities and counts, restart-controller state, the RNG
bit-generator state, NFE/issue/restart counters -- so a resumed run
continues bit-identically where the serial driver left off (parallel
masters are bit-identical up to their inherent ingest-order
nondeterminism; with a single worker they are exactly reproducible).

Format (``docs/RESILIENCE.md`` documents the compatibility policy): a
pickled dict ``{"format": "repro-borg-checkpoint", "version": 1,
"meta": {...}, "state": {...}}``.  Solutions are packed as plain
variable/objective/constraint arrays plus the operator tag -- no live
object graphs -- so the format survives refactors of
:class:`~repro.core.solution.Solution`.  Files are written atomically
(tmp file + ``os.replace``) so a crash mid-write never corrupts the
latest good checkpoint.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from collections import deque
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .archive import EpsilonBoxArchive
from .population import Population
from .solution import Solution

if TYPE_CHECKING:
    from ..problems.base import Problem
    from .borg import BorgConfig, BorgEngine

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "ISLANDS_CHECKPOINT_FORMAT",
    "ISLANDS_CHECKPOINT_VERSION",
    "CheckpointError",
    "engine_state",
    "load_checkpoint",
    "load_islands_checkpoint",
    "restore_engine",
    "save_checkpoint",
    "save_islands_checkpoint",
]

CHECKPOINT_FORMAT = "repro-borg-checkpoint"
CHECKPOINT_VERSION = 1

ISLANDS_CHECKPOINT_FORMAT = "repro-islands-checkpoint"
ISLANDS_CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable, foreign, or incompatible checkpoint file."""


# -- solution packing -------------------------------------------------------
def _pack_solution(s: Solution) -> dict:
    return {
        "variables": np.asarray(s.variables, dtype=float),
        "objectives": (
            None if s.objectives is None else np.asarray(s.objectives, dtype=float)
        ),
        "constraints": (
            np.asarray(s.constraints, dtype=float) if s.constraints.size else None
        ),
        "operator": s.operator,
    }


def _unpack_solution(d: dict) -> Solution:
    return Solution(
        d["variables"],
        objectives=d["objectives"],
        constraints=d["constraints"],
        operator=d["operator"],
    )


# -- state capture ----------------------------------------------------------
def engine_state(
    engine: "BorgEngine", extra_pending: Iterable[Solution] = ()
) -> dict:
    """Snapshot ``engine`` as a plain picklable dict.

    ``extra_pending`` holds in-flight candidates a parallel master has
    issued but not yet ingested at checkpoint time; they are prepended
    to the engine's own pending queue so a resumed run re-dispatches
    them first (their RNG draws already happened, so re-generating
    them is neither possible nor wanted).  ``issued`` is re-based to
    exclude them, since popping them from the pending queue on resume
    will count them as issued again.
    """
    extra = [_pack_solution(s) for s in extra_pending]
    archive = engine.archive
    return {
        "nfe": engine.nfe,
        "issued": engine.issued - len(extra),
        "restarts": engine.restarts,
        "fill_target": engine._fill_target,
        "init_issued": engine._init_issued,
        "tournament_size": engine.tournament_size,
        "rng_state": engine.rng.bit_generator.state,
        "config": engine.config,
        "pending": extra
        + [_pack_solution(s) for s in engine._pending],
        "population": [_pack_solution(s) for s in engine.population],
        "archive": {
            "epsilons": np.asarray(archive.epsilons, dtype=float),
            "solutions": [_pack_solution(s) for s in archive.solutions],
            "improvements": archive.improvements,
            "best_violation": archive._best_violation,
        },
        "selector": {
            "probabilities": np.asarray(engine.selector.probabilities, dtype=float),
            "selection_counts": np.asarray(
                engine.selector.selection_counts, dtype=int
            ),
            "operator_names": [op.name for op in engine.selector.operators],
        },
        "restarter": {
            "improvements_at_last_check": engine.restarter._improvements_at_last_check,
            "last_check_nfe": engine.restarter._last_check_nfe,
            "restarts": engine.restarter.restarts,
        },
        "problem_evaluations": engine.problem.evaluations,
    }


def _atomic_pickle(payload: dict, path: str | os.PathLike) -> None:
    """Atomically and durably pickle ``payload`` to ``path``.

    Write to a temp file, ``fsync`` it, ``os.replace`` over the target,
    then ``fsync`` the directory.  The rename alone only guarantees
    readers never see a half-written file; without the data fsync a
    power loss can leave the *renamed* file empty (the rename can reach
    disk before the data), and without the directory fsync the rename
    itself may not survive the crash.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _save_envelope(
    path: str | os.PathLike, fmt: str, version: int, meta: dict, state: dict
) -> None:
    """Atomically write ``state`` in the ``{format, version, meta,
    state}`` envelope every checkpoint kind shares."""
    meta = {"written_at": time.time(), **meta}
    envelope = {"format": fmt, "version": version, "meta": meta, "state": state}
    _atomic_pickle(envelope, path)


def _load_envelope(
    path: str | os.PathLike, fmt: str, version: int, kind: str
) -> dict:
    """Read a checkpoint envelope, refusing unreadable files and any
    format or version other than (``fmt``, ``version``)."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise CheckpointError(f"{path!r} is not a repro {kind} checkpoint")
    found = payload.get("version")
    if found != version:
        raise CheckpointError(
            f"{kind} checkpoint version {found!r} is not supported "
            f"(this build reads version {version})"
        )
    return payload


def save_checkpoint(
    engine: "BorgEngine",
    path: str | os.PathLike,
    extra_pending: Iterable[Solution] = (),
    meta: Optional[dict] = None,
) -> None:
    """Atomically write a checkpoint of ``engine`` to ``path``."""
    _save_envelope(
        path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
        {"problem": engine.problem.name, **(meta or {})},
        engine_state(engine, extra_pending=extra_pending),
    )


def save_islands_checkpoint(
    state: dict,
    path: str | os.PathLike,
    meta: Optional[dict] = None,
) -> None:
    """Atomically write a multi-island runtime snapshot to ``path``.

    ``state`` is the plain-data snapshot assembled by
    :func:`repro.parallel.islands.run_sharded_islands` at a migration
    epoch barrier: per-island engine states, worker arrival heaps,
    in-flight candidates, timing-stream positions, migration RNG
    states, plus the global epoch counters and the live cross-island
    front.  Everything is plain picklable data -- which is exactly why
    the runtime checkpoints *at* epoch barriers.
    """
    _save_envelope(
        path, ISLANDS_CHECKPOINT_FORMAT, ISLANDS_CHECKPOINT_VERSION,
        meta or {}, state,
    )


def load_islands_checkpoint(path: str | os.PathLike) -> dict:
    """Load and validate a multi-island checkpoint payload."""
    return _load_envelope(
        path, ISLANDS_CHECKPOINT_FORMAT, ISLANDS_CHECKPOINT_VERSION, "islands"
    )


def load_checkpoint(path: str | os.PathLike) -> dict:
    """Load and validate a checkpoint; returns the full payload dict."""
    return _load_envelope(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, "Borg")


# -- restore ----------------------------------------------------------------
def _restore_archive(spec: dict) -> EpsilonBoxArchive:
    """Rebuild the archive from its packed members.

    The box-grid index is derived state and is deliberately not
    serialized: it rebuilds deterministically from the members on the
    first ``add`` after resume, so resumed runs make bit-identical
    archive decisions.
    """
    archive = EpsilonBoxArchive(spec["epsilons"])
    solutions = [_unpack_solution(d) for d in spec["solutions"]]
    if solutions:
        m = solutions[0].objectives.size
        archive._broadcast_epsilons(m)
        archive._reset(m)
        archive._best_violation = spec["best_violation"]
        for solution in solutions:
            archive._append(solution)
    else:
        archive._best_violation = spec["best_violation"]
    archive.improvements = spec["improvements"]
    return archive


def restore_engine(
    problem: "Problem",
    checkpoint: dict | str | os.PathLike,
    config: Optional["BorgConfig"] = None,
    operators: Optional[Sequence] = None,
) -> "BorgEngine":
    """Rebuild a :class:`BorgEngine` from a checkpoint.

    ``checkpoint`` is a payload dict from :func:`load_checkpoint` or a
    path to a checkpoint file.  ``config`` defaults to the
    checkpointed configuration; pass one explicitly only to override
    it (at your own risk -- resuming under different parameters is no
    longer the same run).  State keys and pickled config attributes
    that this build does not read are ignored.
    """
    from .borg import BorgEngine  # circular at module import time

    if not isinstance(checkpoint, dict):
        checkpoint = load_checkpoint(checkpoint)
    state = checkpoint["state"]

    engine = BorgEngine(
        problem,
        config or state["config"],
        rng=np.random.default_rng(),
        operators=operators,
    )
    engine.rng.bit_generator.state = state["rng_state"]

    names = [op.name for op in engine.selector.operators]
    if names != state["selector"]["operator_names"]:
        raise CheckpointError(
            "operator ensemble mismatch: checkpoint has "
            f"{state['selector']['operator_names']}, engine has {names}"
        )

    engine.nfe = state["nfe"]
    engine.issued = state["issued"]
    engine.restarts = state["restarts"]
    engine._fill_target = state["fill_target"]
    engine._init_issued = state["init_issued"]
    engine.tournament_size = state["tournament_size"]
    engine._pending = deque(_unpack_solution(d) for d in state["pending"])
    engine.population = Population(
        [_unpack_solution(d) for d in state["population"]]
    )
    engine.archive = _restore_archive(state["archive"])
    engine.selector.probabilities = np.array(
        state["selector"]["probabilities"], dtype=float
    )
    engine.selector.selection_counts = np.array(
        state["selector"]["selection_counts"], dtype=int
    )
    engine.restarter._improvements_at_last_check = state["restarter"][
        "improvements_at_last_check"
    ]
    engine.restarter._last_check_nfe = state["restarter"]["last_check_nfe"]
    engine.restarter.restarts = state["restarter"]["restarts"]
    problem.evaluations = max(
        problem.evaluations, state.get("problem_evaluations", 0)
    )
    return engine
