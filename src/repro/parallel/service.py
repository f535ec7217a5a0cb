"""Storage-backed optimization service: Borg ask/tell over durable studies.

:class:`StorageBackedRunner` generalizes PR 3's checkpoint/resume from
"one process restarts" to "a fleet survives anything": N independent OS
processes (``repro study worker ...``) attach to one
:class:`~repro.storage.Study` and co-drive it.  Every process runs the
same loop; roles are decided by a storage-level TTL lease:

* The **master** (holder of the ``"master"`` lease) owns the live
  :class:`~repro.core.borg.BorgEngine`.  It asks the engine for
  candidates and enqueues them as pending trials, ingests completed
  trials back into the engine (in log order -- deterministic across
  failovers), re-queues stale leases via the reclaimer, and snapshots
  full engine state into storage (the
  :func:`repro.core.checkpoint.engine_state` serialization) once it has
  ingested as many trials as the last snapshot held solutions (at least
  ``snapshot_interval``), so snapshot bytes stay a bounded share of the
  log at any run length.  The snapshot carries a completion cursor --
  the engine has ingested exactly the first ``cursor`` completed trials
  in completion order, the exactly-once frontier.
* Every process (master included) is a **worker**: claim a pending
  trial under a TTL lease, evaluate, ``tell`` the result.  ``kill -9``
  at any point loses nothing: an un-told claim expires and is
  re-dispatched with the *same trial id*; a duplicate late ``tell`` is
  suppressed by the storage fold, so NFE accounting stays exact -- the
  task-id dedup idea of :class:`~repro.parallel.supervision.TaskTable`
  lifted into durable storage.
* When the master dies, its lease expires and any worker promotes
  itself: restore the engine from the latest snapshot, re-ingest
  completed trials the dead master never snapshotted, continue.

Storage faults (torn writes, lock timeouts -- real or injected by
:class:`~repro.storage.FaultyStorage`) are retried with capped
exponential backoff; a torn append is invisible to replay, so a retry
can never double-apply.

Durability: one disk barrier per step.  A step writes its lease
renewal, reclaims, snapshot, enqueues, finish and claims inside one
deferred-sync scope of the study (:meth:`Study._deferred`), and the
scope's exit syncs them all -- together with the previous step's
``tell``, which is written when its evaluation ends and left to this
barrier.  Nothing is evaluated, no runner event is published and
:meth:`StorageBackedRunner.run` does not return while this runner has
unsynced writes; events wait in an outbox for the next barrier.

Multi-tenancy: :class:`FleetRunner` multiplexes *many* studies over one
worker process.  Each study gets its own :class:`StorageBackedRunner`
(sharing one :class:`~repro.storage.StudyCache` over one backend
handle), and the fleet round-robins :meth:`StorageBackedRunner.step`
scheduling quanta across them -- fair claiming, per-study leases, one
batched master-lease renewal for every study this process masters.
``repro study worker --all`` runs one fleet process; N of them are a
shared worker pool for thousands of concurrent studies.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.borg import BorgConfig, BorgEngine, BorgResult
from ..core.checkpoint import engine_state, restore_engine
from ..core.solution import Solution
from ..problems.base import Problem
from ..storage import CorruptRecord, RetryPolicy, StorageError, Study, StudyCache
from ..storage.study import TRIAL_PENDING, TRIAL_RUNNING, StudyError

__all__ = [
    "FleetResult",
    "FleetRunner",
    "ServiceConfig",
    "ServiceResult",
    "StorageBackedRunner",
    "final_front",
    "run_fleet_worker",
    "run_study_worker",
]

#: Name of the leader-election lease.
MASTER_LEASE = "master"

#: Storage-fault retries of one service operation: ``budget`` attempts,
#: sleeping ``backoff(k)`` after the k-th failure (10 ms doubling,
#: capped at 0.5 s).
STORAGE_RETRY = RetryPolicy(budget=10, backoff_base=0.01, backoff_max=0.5)

#: Seconds between a fleet's scans for newly created studies.
DISCOVER_INTERVAL = 0.5


@dataclass
class ServiceConfig:
    """Policy knobs of the storage-backed service loop."""

    #: Evaluation-lease TTL (seconds).  A worker that dies mid-claim is
    #: presumed lost this long after its last claim/heartbeat.
    lease_ttl: float = 10.0
    #: Master-lease TTL (seconds); failover latency ceiling.
    master_lease_ttl: float = 10.0
    #: Idle sleep between loop iterations when nothing is claimable.
    poll_interval: float = 0.02
    #: Maximum trials simultaneously pending+running (the dispatch
    #: window; the async analogue of P in-flight candidates).
    lookahead: int = 8
    #: Trial re-dispatch policy (reclaim backoff + retry budget).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Floor on the ingests between engine snapshots.  A snapshot is due
    #: once the master has ingested ``max(snapshot_interval, S)`` trials
    #: since the last one, S being the solutions that snapshot held
    #: (population + archive); the finishing master always writes one.
    snapshot_interval: int = 50
    #: Trials claimed per scheduling step (one compound claim op).  A
    #: worker holding a batch renews *all* its leases with one
    #: ``heartbeats`` op between evaluations, so log traffic per
    #: renewal interval is O(1) in the batch size.
    claim_batch: int = 1

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0 or self.master_lease_ttl <= 0:
            raise ValueError("lease TTLs must be positive")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        if self.claim_batch < 1:
            raise ValueError("claim_batch must be >= 1")


@dataclass
class ServiceResult:
    """One process's view of a finished (or abandoned) study run."""

    worker: str
    #: Evaluations this process performed (its share of the fleet's work).
    evaluated: int
    #: Whether this process ever held the master lease.
    was_master: bool
    #: Final study counters (completed / failed / pending / running).
    counts: dict[str, int]
    #: True when the study reached its budget and was marked finished.
    finished: bool
    elapsed: float
    #: Storage faults survived (retried) by this process.
    storage_retries: int
    #: Final Borg result -- only populated on the process that held the
    #: master lease at finish time (use :func:`final_front` elsewhere).
    borg: Optional[BorgResult] = None


def _solution_from(record) -> Solution:
    constraints = record.constraints
    if constraints is not None and np.asarray(constraints).size == 0:
        constraints = None
    return Solution(
        record.variables,
        objectives=record.objectives,
        constraints=constraints,
        operator=record.operator,
    )


def _solution_count(engine: BorgEngine) -> int:
    """Solutions an engine snapshot packs: population plus archive."""
    return len(engine.population) + len(engine.archive)


class _Outbox:
    """A publisher that holds events until :meth:`publish`."""

    def __init__(self, publisher) -> None:
        self.publisher = publisher
        self.held: list[tuple[str, dict]] = []

    def emit(self, kind: str, **data) -> None:
        self.held.append((kind, data))

    def publish(self) -> None:
        held, self.held = self.held, []
        for kind, data in held:
            self.publisher.emit(kind, **data)


class StorageBackedRunner:
    """One process of the worker fleet (see module docstring).

    ``problem`` must match the study's (the CLI rebuilds it from the
    study meta).  ``config`` seeds the *first* engine only; failover
    masters always restore configuration from the snapshot blob.
    """

    def __init__(
        self,
        problem: Problem,
        study: Study,
        config: Optional[BorgConfig] = None,
        service: Optional[ServiceConfig] = None,
        worker_id: Optional[str] = None,
        publisher=None,
    ) -> None:
        self.problem = problem
        self.study = study
        self.config = config
        self.service = service or ServiceConfig()
        self.worker_id = worker_id or f"w{os.getpid()}"
        #: Optional telemetry publisher (duck-typed
        #: :class:`repro.telemetry.EventBus`); the engine's events reach
        #: it too, through the outbox.  Remote observers tail the journal
        #: instead -- this is for in-process subscribers (tests, the
        #: embedding application).
        self.publisher = publisher
        self.engine: Optional[BorgEngine] = None
        #: Trials this process has claimed and resolved (its share of
        #: the fleet's work); read by :class:`FleetRunner`.
        self.evaluated = 0
        #: Completed trials ingested into ``engine``: always the prefix
        #: ``completion_order[:_cursor]`` of the study.
        self._cursor = 0
        #: Cursor and solution count (population + archive) of the
        #: latest snapshot, which set when the next one is due.
        self._snapshot_cursor = 0
        self._snapshot_size = 0
        self._was_master = False
        self._storage_retries = 0
        #: This runner's and its engine's events, held for the barrier
        #: that makes the ops behind them durable.
        self._outbox = None if publisher is None else _Outbox(publisher)

    def _emit(self, kind: str, **data) -> None:
        if self._outbox is not None:
            self._outbox.emit(kind, study=self.study.name, **data)

    def _publish(self) -> None:
        """Deliver the held events; callers have no unsynced writes."""
        if self._outbox is not None:
            self._outbox.publish()

    # -- storage-fault resilience -------------------------------------------
    def _robust(self, fn: Callable, *args, **kwargs):
        """Run one storage operation, retrying injected/real storage
        faults with capped exponential backoff.  Safe because every
        compound op is refresh-validate-append: a torn append is
        invisible to replay, so retrying can never double-apply."""
        for attempt in range(1, STORAGE_RETRY.budget + 1):
            try:
                return fn(*args, **kwargs)
            except CorruptRecord:
                raise  # permanent: a retry reads the same bytes
            except StorageError:
                self._storage_retries += 1
                if attempt == STORAGE_RETRY.budget:
                    raise
                time.sleep(STORAGE_RETRY.backoff(attempt))

    # -- master role ---------------------------------------------------------
    def _try_become_master(self, now: float) -> bool:
        """Hold (or take over) the master lease.  Renewal only appends a
        lease op when less than a third of the TTL remains, so a stable
        master costs O(1) log traffic per TTL rather than per poll."""
        ttl = self.service.master_lease_ttl
        held = self.study.state.leases.get(MASTER_LEASE)
        if held is not None and held[1] >= now:
            if held[0] != self.worker_id:
                return False
            if held[1] - now > ttl / 3.0:
                return True
        if not self._robust(
            self.study.acquire_lease,
            MASTER_LEASE,
            self.worker_id,
            ttl,
            now=now,
        ):
            return False
        if not self._was_master:
            self._emit(
                "master-lease", key=MASTER_LEASE, worker=self.worker_id
            )
        self._was_master = True
        if self.engine is None:
            self._restore_engine(self.study.state)
        return True

    def _restore_engine(self, state) -> None:
        """Become the engine owner: restore from the latest snapshot
        (or build a fresh engine for a virgin study), then re-ingest
        completed trials past the snapshot's exactly-once frontier."""
        snapshot = state.snapshot
        if snapshot is not None:
            # Validate the frontier before an engine exists, so a bad
            # one can never leave an engine behind to re-ingest from 0.
            cursor = state.snapshot_cursor()
            self.engine = restore_engine(
                self.problem, {"state": snapshot["blob"]}
            )
            self._cursor = cursor
            self._snapshot_size = _solution_count(self.engine)
        else:
            self.engine = BorgEngine(
                self.problem,
                self.config or state.meta.get("config") or BorgConfig(),
                rng=np.random.default_rng(state.meta.get("seed")),
            )
            self._cursor = 0
            self._snapshot_size = 0
        self._snapshot_cursor = self._cursor
        self.engine.publisher = self._outbox
        self._catch_up_ingest()

    def _catch_up_ingest(self) -> int:
        """Ingest completed trials not yet folded into the engine, in
        completion-log order (deterministic across failovers)."""
        state = self.study.state
        fresh = state.completion_order[self._cursor:]
        for trial_id in fresh:
            self.engine.ingest(_solution_from(state.trials[trial_id]))
            self._cursor += 1
        # Evaluations performed by other processes show up here, not in
        # this process's counter; fold them in for honest telemetry.
        self.problem.evaluations = max(self.problem.evaluations, self.engine.nfe)
        return len(fresh)

    def _maybe_snapshot(self, force: bool = False) -> None:
        """Snapshot once the ingests since the last snapshot reach the
        larger of ``snapshot_interval`` and that snapshot's solution
        count.  Each trial appends ~3 ops while each snapshot solution
        costs about one op's bytes, so snapshots stay a bounded share
        of the log, and a failover re-ingests at most about one
        snapshot's worth of trials."""
        engine = self.engine
        due = max(self.service.snapshot_interval, self._snapshot_size)
        if not force and self._cursor - self._snapshot_cursor < due:
            return
        self._robust(
            self.study.save_snapshot,
            engine_state(engine),
            self._cursor,
            engine.nfe,
        )
        self._snapshot_cursor = self._cursor
        self._snapshot_size = _solution_count(engine)
        self._emit(
            "snapshot",
            nfe=engine.nfe,
            restarts=engine.restarts,
            archive_size=len(engine.archive),
        )

    def _master_duties(self, max_nfe: int, now: float) -> bool:
        """Reclaim, ingest, top up, snapshot; returns True when the
        study just reached its budget and was marked finished."""
        study = self.study
        self._robust(study.reclaim_stale, self.service.retry, now=now)
        if self._catch_up_ingest():
            self._maybe_snapshot()
        state = study.state
        counts = state.counts()
        # Live trials can still produce completions; failed ones never
        # will, so their budget slots are re-issued to fresh candidates.
        live = len(state.trials) - counts["failed"]
        in_flight = counts[TRIAL_PENDING] + counts[TRIAL_RUNNING]
        headroom = min(
            max_nfe - live, self.service.lookahead - in_flight
        )
        if headroom > 0:
            # Top up the dispatch window in one compound op: K fresh
            # candidates, one lock round-trip, one append.
            candidates = [
                self.engine.next_candidate() for _ in range(headroom)
            ]
            trial_ids = self._robust(
                study.enqueue_many,
                [c.variables for c in candidates],
                operators=[c.operator for c in candidates],
            )
            for trial_id, candidate in zip(trial_ids, candidates):
                self._emit(
                    "eval-enqueued",
                    trial=trial_id,
                    operator=candidate.operator,
                )
        if state.completed >= max_nfe and not state.finished:
            self._maybe_snapshot(force=True)
            self._robust(study.finish)
            self._robust(study.release_lease, MASTER_LEASE, self.worker_id)
            self._emit("study-finished", nfe=state.completed)
            return True
        return False

    # -- worker role ---------------------------------------------------------
    def _evaluate_batch(self, records: list) -> None:
        """Evaluate a claimed batch and tell the successes back in one
        compound op, written now but left to the next step's barrier.

        While the batch is in hand, *all* its leases are renewed with a
        single ``heartbeats`` op whenever a third of the TTL has
        elapsed -- so a worker holding N claims costs one log record
        per renewal interval instead of N.
        """
        study = self.study
        service = self.service
        held = [r.trial_id for r in records]
        for trial_id in held:
            self._emit(
                "eval-started", trial=trial_id, worker=self.worker_id
            )
        next_renew = time.time() + service.lease_ttl / 3.0
        results: list[tuple] = []
        for record in records:
            if len(held) > 1 and time.time() >= next_renew:
                self._robust(
                    study.heartbeat_many,
                    held,
                    self.worker_id,
                    service.lease_ttl,
                )
                next_renew = time.time() + service.lease_ttl / 3.0
            # heartbeat_many and fail are durable on return, so there
            # is nothing to sync here, only events to publish.
            self._publish()
            trial_id = record.trial_id
            candidate = Solution(
                np.array(record.variables, copy=True),
                operator=record.operator,
            )
            try:
                self.problem.evaluate(candidate)
            except Exception as exc:  # noqa: BLE001 -- injected/user faults
                self._robust(
                    study.fail,
                    trial_id,
                    self.worker_id,
                    f"{type(exc).__name__}: {exc}",
                    service.retry,
                )
                self._emit(
                    "eval-failed",
                    trial=trial_id,
                    worker=self.worker_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            constraints = (
                candidate.constraints if candidate.constraints.size else None
            )
            results.append(
                (trial_id, candidate.objectives, constraints, candidate)
            )
        if results:
            with study._deferred(barrier=False):
                self._robust(
                    study.tell_many,
                    [(tid, obj, con) for tid, obj, con, _ in results],
                    self.worker_id,
                )
            for trial_id, _, _, candidate in results:
                self._emit(
                    "eval-finished",
                    trial=trial_id,
                    worker=self.worker_id,
                    objectives=[float(x) for x in candidate.objectives],
                )

    # -- main loop -----------------------------------------------------------
    def resolve_max_nfe(self, max_nfe: Optional[int] = None) -> int:
        """``max_nfe`` argument, falling back to the study meta."""
        if max_nfe is None:
            max_nfe = self.study.state.meta.get("max_nfe")
        if not max_nfe or max_nfe < 1:
            raise ValueError(
                "max_nfe must be >= 1 (argument or study meta)"
            )
        return int(max_nfe)

    def step(self, max_nfe: int) -> str:
        """One scheduling quantum: refresh, master duties if we hold
        (or can take) the master lease, claim one batch -- all behind
        one disk barrier -- then evaluate the batch.  Returns
        ``"finished"`` / ``"worked"`` / ``"idle"`` -- the unit a
        :class:`FleetRunner` round-robins across studies."""
        with self.study._deferred():
            records = self._schedule(max_nfe)
        self._publish()
        if records is None:
            return "finished"
        if not records:
            return "idle"
        try:
            self._evaluate_batch(records)
        except CorruptRecord:
            raise
        except StorageError:
            return "idle"  # op retries exhausted; lease expiry re-queues it
        self.evaluated += len(records)
        return "worked"

    def _schedule(self, max_nfe: int) -> Optional[list]:
        """The writing half of :meth:`step`: returns the trials claimed
        for evaluation, or None once the study is finished."""
        study = self.study
        try:
            study.refresh()
        except CorruptRecord:
            raise
        except StorageError:
            return []
        if study.state.finished:
            return None
        now = time.time()
        try:
            is_master = self._try_become_master(now)
        except (StudyError, CorruptRecord):
            raise  # a corrupt study, not a transient storage fault
        except StorageError:
            is_master = False
        if is_master and self._master_duties(max_nfe, now):
            return None
        service = self.service
        try:
            records = self._robust(
                study.claim_many,
                self.worker_id,
                service.lease_ttl,
                service.claim_batch,
            )
        except CorruptRecord:
            raise
        except StorageError:
            return []  # op retries exhausted
        return records

    def run(
        self,
        max_nfe: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> ServiceResult:
        """Drive the study until it is finished (or ``max_seconds``
        elapses).  ``max_nfe`` defaults to the study's ``max_nfe`` meta.
        """
        study = self.study
        study.refresh()
        max_nfe = self.resolve_max_nfe(max_nfe)
        start = time.perf_counter()
        self.evaluated = 0
        finished = False
        try:
            while True:
                if (
                    max_seconds is not None
                    and time.perf_counter() - start > max_seconds
                ):
                    break
                outcome = self.step(max_nfe)
                if outcome == "finished":
                    finished = True
                    break
                if outcome == "idle":
                    time.sleep(self.service.poll_interval)
        finally:
            study.storage.sync()  # the barrier for the last step's tell
            self._publish()
        study.refresh()
        borg = None
        if self.engine is not None and finished:
            self._catch_up_ingest()
            self._publish()
            borg = self.engine.result()
        return ServiceResult(
            worker=self.worker_id,
            evaluated=self.evaluated,
            was_master=self._was_master,
            counts=study.counts(),
            finished=study.state.finished,
            elapsed=time.perf_counter() - start,
            storage_retries=self._storage_retries,
            borg=borg,
        )


def final_front(problem: Problem, study: Study) -> Optional[BorgResult]:
    """Rebuild the final Borg result from a study's latest snapshot
    (plus any completed trials the snapshot predates).  Returns None
    for a study with no snapshot yet."""
    study.refresh()
    state = study.state
    if state.snapshot is None:
        return None
    cursor = state.snapshot_cursor()
    engine = restore_engine(problem, {"state": state.snapshot["blob"]})
    for trial_id in state.completion_order[cursor:]:
        engine.ingest(_solution_from(state.trials[trial_id]))
    return engine.result()


def run_study_worker(
    storage_spec: str,
    study_name: str,
    problem: Optional[Problem] = None,
    config: Optional[BorgConfig] = None,
    service: Optional[ServiceConfig] = None,
    worker_id: Optional[str] = None,
    max_seconds: Optional[float] = None,
    publisher=None,
) -> ServiceResult:
    """Attach one worker process to a study by storage path.

    The problem is rebuilt from the study's ``problem`` meta (the CLI
    registry name) unless passed explicitly -- this is the entry point
    ``repro study worker`` and multiprocess tests share.
    """
    from ..storage import open_storage

    storage = open_storage(storage_spec)
    study = Study.load(storage, study_name)
    if problem is None:
        name = study.state.meta.get("problem")
        if not name:
            raise ValueError(
                f"study {study_name!r} has no problem meta; pass problem="
            )
        from ..cli import _PROBLEMS

        problem = _PROBLEMS[name]()
    runner = StorageBackedRunner(
        problem,
        study,
        config=config,
        service=service,
        worker_id=worker_id,
        publisher=publisher,
    )
    return runner.run(max_seconds=max_seconds)


@dataclass
class FleetResult:
    """One fleet process's view of a multi-study run."""

    worker: str
    #: Studies this process ever scheduled.
    studies: int
    #: Studies observed finished (by anyone) while scheduling.
    finished: int
    #: Trials this process evaluated across all studies.
    evaluated: int
    elapsed: float
    storage_retries: int
    #: Cache effectiveness + backend traffic (``StudyCache.stats()``).
    cache: dict = field(default_factory=dict)
    #: Per-study counters: ``{name: {"evaluated", "finished"}}``.
    per_study: dict = field(default_factory=dict)


class FleetRunner:
    """Multiplex many concurrent studies over one worker process.

    One storage backend handle, one write-through
    :class:`~repro.storage.StudyCache` shared by every study, one
    :class:`StorageBackedRunner` per study, scheduled round-robin in
    :meth:`StorageBackedRunner.step` quanta -- so a process serves
    thousands of studies with per-study leases and fair claiming,
    instead of one process per study.

    Master-lease renewals are *batched across studies*: every lease
    this process holds and whose TTL is half-spent is renewed in one
    compound op (``StudyCache.renew_leases``) per scheduling round, so
    mastering S studies costs O(1) storage round-trips per TTL, not
    O(S).

    Parameters
    ----------
    storage:
        Backend handle (this fleet's cache owns its read cursor).
    study_names:
        Studies to serve; None serves every unfinished study in the
        backend, re-discovering new ones every
        :data:`DISCOVER_INTERVAL` seconds (cheap: a probe-gated cache
        refresh).
    problems:
        Optional ``{study_name: Problem}`` overrides; by default each
        study's problem is rebuilt from its ``problem`` meta via the
        CLI registry, exactly like :func:`run_study_worker`.
    """

    def __init__(
        self,
        storage,
        study_names: Optional[Sequence[str]] = None,
        problems: Optional[dict] = None,
        service: Optional[ServiceConfig] = None,
        worker_id: Optional[str] = None,
        publisher=None,
    ) -> None:
        self.storage = storage
        self.cache = StudyCache(storage)
        self.study_names = (
            None if study_names is None else list(study_names)
        )
        self.problems = problems or {}
        self.service = service or ServiceConfig()
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.publisher = publisher
        self._runners: dict[str, StorageBackedRunner] = {}
        self._budgets: dict[str, int] = {}
        self._queue: deque[str] = deque()
        self._finished: set[str] = set()
        self._last_discover = float("-inf")

    def _problem_for(self, name: str, state) -> Problem:
        if name in self.problems:
            return self.problems[name]
        problem_name = state.meta.get("problem")
        if not problem_name:
            raise ValueError(
                f"study {name!r} has no problem meta; pass problems="
            )
        from ..cli import _PROBLEMS

        return _PROBLEMS[problem_name]()

    def _discover(self) -> None:
        """Adopt every servable study the cache knows about."""
        now = time.monotonic()
        if now - self._last_discover < DISCOVER_INTERVAL:
            return
        self._last_discover = now
        self.cache.refresh()
        names = (
            self.study_names
            if self.study_names is not None
            else self.cache.studies()
        )
        for name in names:
            if name in self._runners or name in self._finished:
                continue
            state = self.cache.state(name)
            if not state.created or state.finished:
                continue
            max_nfe = state.meta.get("max_nfe")
            if not max_nfe:
                continue  # not a service-driven study
            study = Study(self.storage, name, cache=self.cache)
            runner = StorageBackedRunner(
                self._problem_for(name, state),
                study,
                service=self.service,
                worker_id=self.worker_id,
                publisher=self.publisher,
            )
            self._runners[name] = runner
            self._budgets[name] = int(max_nfe)
            self._queue.append(name)

    def _renew_master_leases(self) -> None:
        """One compound op renews every master lease this process
        holds whose TTL is half-spent (before the per-runner ttl/3
        renewal path would ever fire)."""
        now = time.time()
        ttl = self.service.master_lease_ttl
        due = []
        for name in self._queue:
            held = self._runners[name].study.state.leases.get(MASTER_LEASE)
            if (
                held is not None
                and held[0] == self.worker_id
                and now <= held[1] <= now + ttl / 2.0
            ):
                due.append((name, MASTER_LEASE, self.worker_id))
        if due:
            try:
                self.cache.renew_leases(due, ttl, now=now)
            except StorageError:
                pass  # retried implicitly next round

    def run(self, max_seconds: Optional[float] = None) -> FleetResult:
        """Serve studies until every adopted one is finished (or
        ``max_seconds`` elapses)."""
        start = time.perf_counter()
        per_study: dict[str, dict] = {}
        try:
            while True:
                if (
                    max_seconds is not None
                    and time.perf_counter() - start > max_seconds
                ):
                    break
                self._discover()
                if not self._queue:
                    if self.study_names is not None and len(
                        self._finished
                    ) >= len(self.study_names):
                        break  # every requested study done
                    if self.study_names is None and self._finished:
                        break  # served everything we ever saw
                    time.sleep(self.service.poll_interval)
                    continue
                self._renew_master_leases()
                worked = False
                # One full round-robin pass: every active study gets one
                # scheduling quantum (fair claiming across tenants).
                for _ in range(len(self._queue)):
                    name = self._queue.popleft()
                    runner = self._runners[name]
                    outcome = runner.step(self._budgets[name])
                    if outcome == "finished":
                        self._finished.add(name)
                        per_study[name] = {
                            "evaluated": runner.evaluated,
                            "finished": True,
                        }
                        # Drop the runner (and its engine) -- a fleet
                        # serving thousands of studies must not hoard
                        # finished engines.
                        del self._runners[name]
                        continue
                    if outcome == "worked":
                        worked = True
                    self._queue.append(name)
                if not worked:
                    time.sleep(self.service.poll_interval)
        finally:
            # One barrier on the shared handle covers the last tell of
            # every study this thread served.
            self.storage.sync()
            for runner in self._runners.values():
                runner._publish()
        evaluated = sum(r.evaluated for r in self._runners.values()) + sum(
            s["evaluated"] for s in per_study.values()
        )
        retries = sum(
            r._storage_retries for r in self._runners.values()
        )
        for name, runner in self._runners.items():
            per_study.setdefault(
                name,
                {"evaluated": runner.evaluated, "finished": False},
            )
        return FleetResult(
            worker=self.worker_id,
            studies=len(per_study),
            finished=len(self._finished),
            evaluated=evaluated,
            elapsed=time.perf_counter() - start,
            storage_retries=retries,
            cache=self.cache.stats(),
            per_study=per_study,
        )


def run_fleet_worker(
    storage_spec: str,
    study_names: Optional[Sequence[str]] = None,
    service: Optional[ServiceConfig] = None,
    worker_id: Optional[str] = None,
    max_seconds: Optional[float] = None,
    publisher=None,
    storage_kwargs: Optional[dict] = None,
) -> FleetResult:
    """Attach one fleet process to a storage backend by path spec --
    the ``repro study worker --all`` entry point.  Serves every
    (or the named) studies in the backend concurrently."""
    from ..storage import open_storage

    storage = open_storage(storage_spec, **(storage_kwargs or {}))
    fleet = FleetRunner(
        storage,
        study_names=study_names,
        service=service,
        worker_id=worker_id,
        publisher=publisher,
    )
    return fleet.run(max_seconds=max_seconds)
