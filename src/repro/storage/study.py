"""Study/Trial layer: durable optimization state as a fold over the op log.

An optuna-style service surface for the Borg engine.  A *study* is a
named optimization run whose entire state -- trials, leases, engine
snapshots, counters -- is a deterministic fold over the storage
backend's operation log.  Any number of stateless worker processes
attach to the same storage, claim pending trials under a TTL lease,
evaluate them, and ``tell`` results back with exactly-once semantics;
a reclaimer re-queues trials whose leases expired (their worker was
killed) with capped-exponential backoff and a retry budget.

Crash model (docs/RESILIENCE.md §6):

* ``kill -9`` a worker mid-evaluation → its lease expires, the
  reclaimer re-queues the *same trial id*, another worker completes
  it; the duplicate-suppressing fold counts the evaluation once.
* ``kill -9`` every process → the log prefix that was fsynced is the
  study; reattaching workers resume from exactly that state, because
  the live in-memory view *is* the replay (same fold, same ops).
* Torn final append → invisible: backends surface only intact ops.

Concurrency model: every read-modify-append compound (claim, tell,
reclaim, lease ops) runs under the backend's cross-process writer lock
as *refresh → decide → append*, so appended ops are always valid and
the fold can apply them unconditionally.  Pure reads never lock.

Traffic shape: every mutation appends *lazily* under the lock and
waits for durability (:meth:`~repro.storage.base.StorageBackend.sync`)
only after releasing it -- on a group-commit backend that lets
concurrent compound ops overlap their disk barriers, so N workers'
tells cost ~1 fsync instead of N.  Inside the internal
:meth:`Study._deferred` scope, compound ops skip even that sync and
the scope syncs once on exit: a service runner's step pays one disk
barrier for all the ops it writes.  Every public method called outside
such a scope is durable when it returns.  Batched variants
(``enqueue_many``, ``claim_many``, ``tell_many``, ``heartbeat_many``)
move K intents in one lock/refresh/append round-trip;
``heartbeat_many`` folds a whole lease-set renewal into a *single*
``heartbeats`` op, so a worker holding N leases costs one log record
per renewal interval, not N.
A handle given a :class:`~repro.storage.cache.StudyCache` delegates
its folding to the cache (shared cursor, probe-gated refresh) instead
of reading the backend itself.
"""

from __future__ import annotations

import heapq
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .base import RetryPolicy, StorageBackend, StorageError

__all__ = [
    "Study",
    "StudyError",
    "StudyState",
    "TrialRecord",
    "TRIAL_PENDING",
    "TRIAL_RUNNING",
    "TRIAL_COMPLETE",
    "TRIAL_FAILED",
    "apply_op",
    "list_studies",
]

TRIAL_PENDING = "pending"
TRIAL_RUNNING = "running"
TRIAL_COMPLETE = "complete"
TRIAL_FAILED = "failed"

_STATES = (TRIAL_PENDING, TRIAL_RUNNING, TRIAL_COMPLETE, TRIAL_FAILED)
_TERMINAL = frozenset((TRIAL_COMPLETE, TRIAL_FAILED))


class StudyError(StorageError):
    """Invalid study operation (unknown study, duplicate create, ...)."""


@dataclass
class TrialRecord:
    """One evaluation task: decision vector plus lease/result telemetry."""

    trial_id: int
    variables: np.ndarray
    operator: str = "service"
    state: str = TRIAL_PENDING
    objectives: Optional[np.ndarray] = None
    constraints: Optional[np.ndarray] = None
    #: Worker currently holding (or last to hold) the lease.
    worker: Optional[str] = None
    #: Wall-clock lease expiry of the current claim (None when idle).
    lease_expires: Optional[float] = None
    #: Claim attempts so far (drives the reclaim backoff and budget).
    attempts: int = 0
    #: Earliest wall-clock instant the trial may be claimed again.
    not_before: float = 0.0
    #: Why the trial was re-queued or dead-lettered.
    error: Optional[str] = None
    #: Worker whose result won, and the log seq of the winning ``tell``.
    completed_by: Optional[str] = None
    completed_seq: Optional[int] = None


@dataclass
class StudyState:
    """The fold target: everything a study is, as plain data."""

    name: str
    created: bool = False
    meta: dict = field(default_factory=dict)
    trials: dict[int, TrialRecord] = field(default_factory=dict)
    #: Named TTL leases (``"master"`` elects the engine-owning process).
    leases: dict[str, tuple[str, float]] = field(default_factory=dict)
    #: Latest engine snapshot op (blob + completion cursor + nfe), or
    #: None.  Journals written before the cursor carry the ingested id
    #: list instead; :meth:`snapshot_cursor` reads either shape.
    snapshot: Optional[dict] = None
    snapshot_seq: int = -1
    completed: int = 0
    failed: int = 0
    #: ``tell``s suppressed because the trial was already terminal.
    duplicate_tells: int = 0
    #: Expired leases re-queued by the reclaimer.
    reclaims: int = 0
    finished: bool = False
    #: Min-heap of ``(lease_expires, trial_id)`` pushed on every
    #: claim/heartbeat fold -- *derived* state (rebuilt identically by
    #: any replay, excluded from ``dump_state``) that lets the
    #: reclaimer find expired leases in O(expired · log n) instead of
    #: scanning every live claim.  Entries are lazy tombstones: an
    #: entry is valid only while its trial is still RUNNING with
    #: exactly that expiry; renewals and completions invalidate old
    #: entries in place.
    lease_heap: list = field(default_factory=list, repr=False, compare=False)
    #: Trial ids in completion (log) order, appended by the ``complete``
    #: fold.  Derived like ``lease_heap``: the exactly-once frontier of
    #: an engine is a prefix of this list, so one int locates it.
    completion_order: list = field(
        default_factory=list, repr=False, compare=False
    )
    #: Ids of the trials currently PENDING (claim candidates), and the
    #: number of trials in each state -- derived indexes kept by
    #: :func:`_move`, so per-step reads do not scan every trial.
    pending: set = field(default_factory=set, repr=False, compare=False)
    by_state: dict = field(
        default_factory=lambda: dict.fromkeys(_STATES, 0),
        repr=False,
        compare=False,
    )

    def counts(self) -> dict[str, int]:
        return dict(self.by_state)

    def snapshot_cursor(self) -> int:
        """Completed trials the latest snapshot's engine has ingested:
        it holds exactly ``completion_order[:cursor]``.

        A legacy snapshot op carries the ingested trial ids instead;
        they must be a completion-order prefix (the only thing a master
        ever ingested), else :class:`StudyError` -- re-ingesting from a
        guessed cursor would silently double-count evaluations."""
        snapshot = self.snapshot
        if snapshot is None:
            return 0
        if "cursor" in snapshot:
            return snapshot["cursor"]
        ids = snapshot["ingested"]
        cursor = len(ids)
        if set(ids) != set(self.completion_order[:cursor]):
            raise StudyError(
                f"study {self.name!r}: snapshot's ingested ids are not a "
                f"prefix of the completion order"
            )
        return cursor


def _move(state: StudyState, record: TrialRecord, new: str) -> None:
    """The one trial-state transition: keeps ``by_state`` and
    ``pending`` in step with ``record.state``."""
    old = record.state
    state.by_state[old] -= 1
    state.by_state[new] += 1
    if old == TRIAL_PENDING:
        state.pending.discard(record.trial_id)
    if new == TRIAL_PENDING:
        state.pending.add(record.trial_id)
    record.state = new


def _apply(state: StudyState, seq: int, op: dict) -> None:
    """Apply one log op to ``state``.  Total: unknown ops are ignored
    (forward compatibility), invalid transitions are suppressed exactly
    the way the append-side validation would have suppressed them --
    the property that makes replay == live view."""
    kind = op["op"]
    if kind == "create":
        state.created = True
        state.meta = dict(op["meta"])
    elif kind == "enqueue":
        tid = op["trial"]
        if tid not in state.trials:
            state.trials[tid] = TrialRecord(
                trial_id=tid,
                variables=np.asarray(op["variables"], dtype=float),
                operator=op.get("operator", "service"),
            )
            state.by_state[TRIAL_PENDING] += 1
            state.pending.add(tid)
    elif kind == "claim":
        record = state.trials.get(op["trial"])
        if record is not None and record.state not in _TERMINAL:
            _move(state, record, TRIAL_RUNNING)
            record.worker = op["worker"]
            record.lease_expires = op["expires"]
            record.attempts += 1
            heapq.heappush(state.lease_heap, (op["expires"], op["trial"]))
    elif kind == "heartbeat":
        record = state.trials.get(op["trial"])
        if (
            record is not None
            and record.state == TRIAL_RUNNING
            and record.worker == op["worker"]
        ):
            record.lease_expires = op["expires"]
            heapq.heappush(state.lease_heap, (op["expires"], op["trial"]))
    elif kind == "heartbeats":
        # Batched renewal: one op extends every lease the worker still
        # holds (single log record for N claims -- see heartbeat_many).
        expires = op["expires"]
        worker = op["worker"]
        for tid in op["trials"]:
            record = state.trials.get(tid)
            if (
                record is not None
                and record.state == TRIAL_RUNNING
                and record.worker == worker
            ):
                record.lease_expires = expires
                heapq.heappush(state.lease_heap, (expires, tid))
    elif kind == "complete":
        record = state.trials.get(op["trial"])
        if record is None:
            return
        if record.state in _TERMINAL:
            state.duplicate_tells += 1
            return
        _move(state, record, TRIAL_COMPLETE)
        state.completion_order.append(record.trial_id)
        record.objectives = np.asarray(op["objectives"], dtype=float)
        record.constraints = (
            None
            if op.get("constraints") is None
            else np.asarray(op["constraints"], dtype=float)
        )
        record.completed_by = op["worker"]
        record.completed_seq = seq
        record.worker = None
        record.lease_expires = None
        record.error = None
        state.completed += 1
    elif kind == "requeue":
        record = state.trials.get(op["trial"])
        if record is not None and record.state not in _TERMINAL:
            _move(state, record, TRIAL_PENDING)
            record.worker = None
            record.lease_expires = None
            record.not_before = op["not_before"]
            record.error = op.get("reason")
            state.reclaims += 1
    elif kind == "deadletter":
        record = state.trials.get(op["trial"])
        if record is not None and record.state not in _TERMINAL:
            _move(state, record, TRIAL_FAILED)
            record.worker = None
            record.lease_expires = None
            record.error = op.get("reason")
            state.failed += 1
    elif kind == "lease":
        if op["expires"] is None:
            state.leases.pop(op["key"], None)
        else:
            state.leases[op["key"]] = (op["worker"], op["expires"])
    elif kind == "snapshot":
        frontier = "cursor" if "cursor" in op else "ingested"
        state.snapshot = {
            "blob": op["blob"],
            frontier: op[frontier],
            "nfe": op["nfe"],
        }
        state.snapshot_seq = seq
    elif kind == "finish":
        state.finished = True


#: Public name of the fold step, for external log consumers (the
#: telemetry tailer folds ops through exactly this function so its view
#: of a study is bit-identical to a worker's, by construction).
apply_op = _apply


class Study:
    """Handle on one named study inside a storage backend.

    The handle keeps a local :class:`StudyState` cache and an applied
    sequence number; :meth:`refresh` folds any ops other processes have
    appended since.  All mutating methods are compound *refresh →
    validate → append → apply* operations under the backend's writer
    lock, so concurrent workers on separate processes interleave safely.
    """

    def __init__(
        self,
        storage: StorageBackend,
        name: str,
        cache: Optional["StudyCache"] = None,
    ) -> None:
        self.storage = storage
        self.name = name
        self.cache = cache
        if cache is not None:
            self.state = cache.state(name)
            self._applied_seq = cache.applied_seq
        else:
            self.state = StudyState(name=name)
            self._applied_seq = -1
        #: Per-thread depth of open :meth:`_deferred` scopes.
        self._scope = threading.local()

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls,
        storage: StorageBackend,
        name: str,
        meta: Optional[dict] = None,
        exist_ok: bool = False,
        cache: Optional["StudyCache"] = None,
    ) -> "Study":
        study = cls(storage, name, cache=cache)
        with storage.lock():
            study.refresh()
            if study.state.created:
                if exist_ok:
                    return study
                raise StudyError(f"study {name!r} already exists")
            study._append({"op": "create", "meta": dict(meta or {})})
        storage.sync()
        return study

    @classmethod
    def load(
        cls,
        storage: StorageBackend,
        name: str,
        cache: Optional["StudyCache"] = None,
    ) -> "Study":
        study = cls(storage, name, cache=cache)
        study.refresh()
        if not study.state.created:
            raise StudyError(f"study {name!r} does not exist in this storage")
        return study

    # -- log plumbing --------------------------------------------------------
    @contextmanager
    def _deferred(self, barrier: bool = True) -> Iterator[None]:
        """Internal scope: compound ops on this thread skip their
        trailing ``storage.sync()``, and the outermost scope syncs once
        when it exits (exceptions included) -- one disk barrier for
        every op written inside.  ``barrier=False`` leaves the writes
        to this thread's next barrier instead; the caller must run one
        before acknowledging them to anyone."""
        depth = getattr(self._scope, "depth", 0)
        self._scope.depth = depth + 1
        try:
            yield
        finally:
            self._scope.depth = depth
            if barrier and not depth:
                self.storage.sync()

    def _sync(self) -> None:
        """A compound op's trailing barrier, unless a scope defers it."""
        if not getattr(self._scope, "depth", 0):
            self.storage.sync()

    def refresh(self) -> None:
        """Fold every op appended since the last refresh."""
        if self.cache is not None:
            self.cache.refresh()
            self.state = self.cache.state(self.name)
            self._applied_seq = self.cache.applied_seq
            return
        for seq, op in self.storage.read(self._applied_seq + 1):
            if op.get("study") == self.name:
                _apply(self.state, seq, op)
            self._applied_seq = seq

    def _append(self, op: dict) -> int:
        """Append one op (stamped with the study name); see
        :meth:`_append_many`."""
        return self._append_many([op])

    def _append_many(self, ops: Sequence[dict]) -> int:
        """Lazily append ``ops`` (stamped with the study name) in one
        backend call and apply them locally -- callers hold the lock, so
        the returned seqs are exactly the next unapplied ones.  Lazy:
        the caller must ``_sync()`` after releasing the lock and before
        acknowledging the mutation to anyone."""
        stamped = [{**op, "study": self.name} for op in ops]
        last = self.storage.append_lazy(stamped)
        first = last - len(stamped) + 1
        if self.cache is not None:
            self.cache.apply_local(first, stamped)
            self.state = self.cache.state(self.name)
            self._applied_seq = self.cache.applied_seq
        elif first == self._applied_seq + 1:
            for offset, op in enumerate(stamped):
                _apply(self.state, first + offset, op)
            self._applied_seq = last
        else:  # another writer slipped in (only possible without a lock)
            self.refresh()
        return last

    # -- trial lifecycle -----------------------------------------------------
    def enqueue(
        self,
        variables: np.ndarray,
        operator: str = "service",
    ) -> int:
        """Add one pending trial; returns its trial id."""
        return self.enqueue_many([variables], operator=operator)[0]

    def enqueue_many(
        self,
        variables_list: Sequence[np.ndarray],
        operator: str = "service",
        operators: Optional[Sequence[str]] = None,
    ) -> list[int]:
        """Add ``len(variables_list)`` pending trials in one compound
        op (one lock round-trip, one append, one durability barrier);
        returns their trial ids in order.  ``operators`` optionally
        tags each trial individually (else all get ``operator``)."""
        if operators is None:
            operators = [operator] * len(variables_list)
        with self.storage.lock():
            self.refresh()
            base = len(self.state.trials)
            tids = list(range(base, base + len(variables_list)))
            self._append_many(
                [
                    {
                        "op": "enqueue",
                        "trial": tid,
                        "variables": np.asarray(variables, dtype=float),
                        "operator": op_name,
                    }
                    for tid, variables, op_name in zip(
                        tids, variables_list, operators
                    )
                ]
            )
        self._sync()
        return tids

    def claim(
        self,
        worker: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> Optional[TrialRecord]:
        """Claim the oldest eligible pending trial under a ``ttl``-second
        lease; returns its record (or None when nothing is claimable)."""
        claimed = self.claim_many(worker, ttl, limit=1, now=now)
        return claimed[0] if claimed else None

    def claim_many(
        self,
        worker: str,
        ttl: float,
        limit: int,
        now: Optional[float] = None,
    ) -> list[TrialRecord]:
        """Claim up to ``limit`` eligible pending trials (oldest first)
        under ``ttl``-second leases in one compound op; returns their
        records (possibly empty)."""
        now = time.time() if now is None else now
        with self.storage.lock():
            self.refresh()
            ops: list[dict] = []
            # Only PENDING trials can be claimed: sort that index (at
            # most the lookahead plus re-queued trials), not every trial.
            for tid in sorted(self.state.pending):
                if len(ops) >= limit:
                    break
                record = self.state.trials[tid]
                if record.not_before <= now:
                    ops.append(
                        {
                            "op": "claim",
                            "trial": tid,
                            "worker": worker,
                            "expires": now + ttl,
                        }
                    )
            if ops:
                self._append_many(ops)
            claimed = [self.state.trials[op["trial"]] for op in ops]
        self._sync()
        return claimed

    def heartbeat(
        self,
        trial_id: int,
        worker: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> bool:
        """Extend ``worker``'s lease on ``trial_id``; False when the
        lease was lost (expired and reclaimed, or completed elsewhere)."""
        return self.heartbeat_many([trial_id], worker, ttl, now=now)[0]

    def heartbeat_many(
        self,
        trial_ids: Sequence[int],
        worker: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> list[bool]:
        """Renew every lease ``worker`` still holds among ``trial_ids``
        with a **single** log op (kind ``heartbeats``) -- a worker
        holding N claims costs one storage append per renewal interval
        instead of N.  Returns per-trial booleans: False where the
        lease was already lost."""
        now = time.time() if now is None else now
        with self.storage.lock():
            self.refresh()
            live: list[int] = []
            for tid in trial_ids:
                record = self.state.trials.get(tid)
                if (
                    record is not None
                    and record.state == TRIAL_RUNNING
                    and record.worker == worker
                ):
                    live.append(tid)
            if live:
                self._append(
                    {
                        "op": "heartbeats",
                        "trials": live,
                        "worker": worker,
                        "expires": now + ttl,
                    }
                )
            held = set(live)
        self._sync()
        return [tid in held for tid in trial_ids]

    def tell(
        self,
        trial_id: int,
        worker: str,
        objectives: np.ndarray,
        constraints: Optional[np.ndarray] = None,
    ) -> bool:
        """Report a completed evaluation; exactly-once per trial.

        Returns True when this tell won (first terminal transition),
        False when the trial was already terminal -- the duplicate is
        counted and otherwise ignored, which is what keeps NFE exact no
        matter how many times a re-dispatched trial completes.
        """
        return self.tell_many([(trial_id, objectives, constraints)], worker)[0]

    def tell_many(
        self,
        results: Sequence[tuple],
        worker: str,
    ) -> list[bool]:
        """Report several completed evaluations in one compound op.

        ``results`` is ``[(trial_id, objectives, constraints), ...]``;
        returns per-result booleans with :meth:`tell`'s exactly-once
        semantics (False where the trial was already terminal -- the
        duplicate is suppressed with no log traffic, which is what
        keeps NFE exact no matter how many times a re-dispatched trial
        completes).
        """
        with self.storage.lock():
            self.refresh()
            ops: list[dict] = []
            won: list[bool] = []
            batch_winners: set[int] = set()
            for trial_id, objectives, constraints in results:
                record = self.state.trials.get(trial_id)
                if record is None:
                    raise StudyError(f"unknown trial id {trial_id}")
                if record.state in _TERMINAL or trial_id in batch_winners:
                    # Already resolved (a re-dispatched duplicate
                    # finished late).  Deliberately no local counter
                    # bump -- the folded state must stay a pure
                    # function of the log (replay == live view).
                    won.append(False)
                    continue
                ops.append(
                    {
                        "op": "complete",
                        "trial": trial_id,
                        "worker": worker,
                        "objectives": np.asarray(objectives, dtype=float),
                        "constraints": (
                            None
                            if constraints is None
                            else np.asarray(constraints, dtype=float)
                        ),
                    }
                )
                batch_winners.add(trial_id)
                won.append(True)
            if ops:
                self._append_many(ops)
        self._sync()
        return won

    def fail(
        self,
        trial_id: int,
        worker: str,
        reason: str,
        retry: Optional[RetryPolicy] = None,
        now: Optional[float] = None,
    ) -> str:
        """Report a failed evaluation attempt: re-queue with backoff, or
        dead-letter once the retry budget is exhausted.  Returns the
        trial's resulting state."""
        retry = retry or RetryPolicy()
        now = time.time() if now is None else now
        with self.storage.lock():
            self.refresh()
            record = self.state.trials.get(trial_id)
            if record is None:
                raise StudyError(f"unknown trial id {trial_id}")
            if record.state in _TERMINAL:
                return record.state
            outcome = self._requeue_or_deadletter(record, reason, retry, now)
        self._sync()
        return outcome

    def reclaim_stale(
        self,
        retry: Optional[RetryPolicy] = None,
        now: Optional[float] = None,
    ) -> list[tuple[int, str]]:
        """Re-queue every running trial whose lease has expired (its
        worker is presumed dead); dead-letter trials over the retry
        budget.  Returns ``[(trial_id, new_state), ...]``.

        Cost scales with the number of *expired* leases, not total
        claims: candidates come off :attr:`StudyState.lease_heap` in
        expiry order, so the scan stops at the first entry that is
        still in the future.  Popped entries that no longer match their
        trial's live lease (renewed, completed, already reclaimed) are
        tombstones and are simply discarded."""
        retry = retry or RetryPolicy()
        now = time.time() if now is None else now
        actions: list[tuple[int, str]] = []
        with self.storage.lock():
            self.refresh()
            heap = self.state.lease_heap
            while heap and heap[0][0] < now:
                expires, tid = heapq.heappop(heap)
                record = self.state.trials.get(tid)
                if (
                    record is None
                    or record.state != TRIAL_RUNNING
                    or record.lease_expires != expires
                ):
                    continue  # tombstone: this lease was superseded
                outcome = self._requeue_or_deadletter(
                    record, f"lease expired (worker {record.worker})",
                    retry, now,
                )
                actions.append((tid, outcome))
        self._sync()
        return actions

    def _requeue_or_deadletter(
        self, record: TrialRecord, reason: str, retry: RetryPolicy, now: float
    ) -> str:
        if record.attempts >= retry.budget:
            self._append(
                {
                    "op": "deadletter",
                    "trial": record.trial_id,
                    "reason": f"{reason}; retry budget "
                    f"({retry.budget}) exhausted",
                }
            )
            return TRIAL_FAILED
        self._append(
            {
                "op": "requeue",
                "trial": record.trial_id,
                "not_before": now + retry.backoff(record.attempts),
                "reason": reason,
            }
        )
        return TRIAL_PENDING

    # -- named leases (leader election) --------------------------------------
    def acquire_lease(
        self,
        key: str,
        worker: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> bool:
        """Acquire (or renew, if already held by ``worker``) the named
        lease; False when a live holder exists."""
        now = time.time() if now is None else now
        with self.storage.lock():
            self.refresh()
            held = self.state.leases.get(key)
            if held is not None and held[0] != worker and held[1] >= now:
                return False
            self._append(
                {
                    "op": "lease",
                    "key": key,
                    "worker": worker,
                    "expires": now + ttl,
                }
            )
        self._sync()
        return True

    def release_lease(self, key: str, worker: str) -> None:
        with self.storage.lock():
            self.refresh()
            held = self.state.leases.get(key)
            if held is not None and held[0] == worker:
                self._append(
                    {"op": "lease", "key": key, "worker": worker,
                     "expires": None}
                )
        self._sync()

    def lease_holder(
        self, key: str, now: Optional[float] = None
    ) -> Optional[str]:
        """Current live holder of the named lease, or None."""
        now = time.time() if now is None else now
        held = self.state.leases.get(key)
        if held is None or held[1] < now:
            return None
        return held[0]

    # -- engine snapshots ----------------------------------------------------
    def save_snapshot(self, blob: dict, cursor: int, nfe: int) -> None:
        """Persist the master's engine state (a plain
        :func:`repro.core.checkpoint.engine_state` dict) together with
        its completion cursor: the engine has ingested exactly the first
        ``cursor`` completed trials in completion order -- the
        exactly-once frontier a failover master resumes from."""
        cursor = int(cursor)
        with self.storage.lock():
            self.refresh()
            if not 0 <= cursor <= len(self.state.completion_order):
                raise StudyError(
                    f"snapshot cursor {cursor} outside the "
                    f"{len(self.state.completion_order)} completed trials"
                )
            self._append(
                {
                    "op": "snapshot",
                    "blob": blob,
                    "cursor": cursor,
                    "nfe": int(nfe),
                }
            )
        self._sync()

    def finish(self) -> None:
        """Mark the study finished (workers drain and exit)."""
        with self.storage.lock():
            self.refresh()
            if not self.state.finished:
                self._append({"op": "finish"})
        self._sync()

    # -- introspection -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        return self.state.counts()

    def completed_trials(self) -> list[TrialRecord]:
        """Completed trials in completion (log) order -- the order a
        failover master re-ingests them in."""
        trials = self.state.trials
        return [trials[tid] for tid in self.state.completion_order]

    def dump_state(self) -> bytes:
        """Canonical byte serialization of the folded state, for
        replay-parity assertions (live view vs cold replay).

        Rendered via ``repr`` of a primitives-only structure rather
        than pickle: pickle memoizes shared object *identities*, which
        legitimately differ between a live view and a cold replay even
        when every value is equal.  Arrays are canonicalized to their
        raw little-endian bytes.
        """
        state = self.state
        canon = (
            state.name,
            sorted(state.meta.items(), key=lambda kv: kv[0]),
            [
                (
                    tid,
                    record.variables.tobytes(),
                    record.operator,
                    record.state,
                    None
                    if record.objectives is None
                    else record.objectives.tobytes(),
                    None
                    if record.constraints is None
                    else record.constraints.tobytes(),
                    record.worker,
                    record.lease_expires,
                    record.attempts,
                    record.not_before,
                    record.error,
                    record.completed_by,
                    record.completed_seq,
                )
                for tid, record in sorted(state.trials.items())
            ],
            sorted(state.leases.items()),
            state.snapshot_seq,
            state.completed,
            state.failed,
            state.duplicate_tells,
            state.reclaims,
            state.finished,
        )
        return repr(canon).encode("utf-8")


def list_studies(storage: StorageBackend) -> list[str]:
    """Names of every study created in ``storage``, in creation order."""
    names: list[str] = []
    for _, op in storage.read(0):
        if op.get("op") == "create" and op.get("study") not in names:
            names.append(op["study"])
    return names
