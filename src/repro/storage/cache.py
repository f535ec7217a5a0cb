"""Write-through study cache: folded state in memory, reads for free.

:class:`StudyCache` keeps the folded :class:`~repro.storage.study.StudyState`
of *every* study in a backend in memory behind a single log cursor, so

* **reads** (status, fronts, trial lookups, study listings) are served
  from memory with **zero backend ops** on a hit -- the only backend
  traffic a warm read path generates is an occasional ``news()``
  staleness probe (a ``stat`` of the journal; never a scan, never a
  decode), and even the probe is throttled by ``max_staleness``;
* **writes** go *through* the cache: a :class:`~repro.storage.study.Study`
  handle constructed with ``cache=`` appends to the backend as usual
  and applies the same ops to the cached fold in the same order, so the
  writer observes its own writes immediately (read-your-writes) without
  ever re-reading the log;
* **invalidation** is exact, not heuristic: the backend's ``news()``
  probe guarantees "no new ops" when it returns False (see each
  backend's proof), so external journal growth -- another process
  appending -- is picked up on the next probing refresh and nothing is
  ever served stale beyond ``max_staleness``.

Consistency contract: the cache must own its backend *instance's* read
cursor -- give each cache (and each process) its own backend handle.
Two refresh flavours with different guarantees:

* :meth:`refresh` is **exact** (probe-gated only) -- what compound
  read-modify-append ops run under the writer lock, where validating
  against stale state would be a correctness bug;
* :meth:`maybe_refresh` is **bounded-staleness** (``max_staleness``
  window, then probe) -- what pure read accessors use, trading up to
  ``max_staleness`` seconds of lag for a zero-op hit path.

The fold itself is guarded by an internal re-entrant mutex, so any
number of reader threads can hit the cache while writer threads fold
through it -- the lock order is always backend writer lock first (when
held at all), cache mutex second, never the reverse.

The fold is :func:`repro.storage.study.apply_op` -- the same function
workers, replay, and the telemetry tailer use -- so a cached view, a
live worker's view, and a cold replay are the same fold over the same
ops, and replay-parity (``dump_state``) holds with the cache on.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

import numpy as np

from ..core.dominance import nondominated_mask
from .base import StorageBackend
from .study import StudyState, TrialRecord, apply_op

__all__ = ["StudyCache"]


class StudyCache:
    """Shared folded view of every study in one storage backend.

    Parameters
    ----------
    storage:
        The backend to front.  The cache assumes it is the only reader
        of this *instance* (its ``news()`` cursor is the cache's
        invalidation signal).
    max_staleness:
        Bounded-staleness window (seconds) for :meth:`maybe_refresh`:
        within the window, read accessors touch the backend not at all
        -- not even a probe.  0 probes on every read access (still
        zero read ops when nothing changed).
    """

    def __init__(
        self,
        storage: StorageBackend,
        max_staleness: float = 0.0,
    ) -> None:
        self.storage = storage
        self.max_staleness = max_staleness
        self._states: dict[str, StudyState] = {}
        #: Log cursor: every op with seq <= applied_seq is folded in.
        self.applied_seq = -1
        #: Refreshes skipped because nothing could have changed.
        self.hits = 0
        #: Refreshes that had to read the backend.
        self.misses = 0
        self._last_check = float("-inf")
        # Front memo: study -> (completed_count, objectives array).
        self._front_memo: dict[str, tuple[int, np.ndarray]] = {}
        # Guards the fold (states + cursor) against concurrent readers;
        # re-entrant because read accessors call refresh internally.
        self._mutex = threading.RLock()

    # -- folding -------------------------------------------------------------
    def state(self, name: str) -> StudyState:
        """The (live, shared) folded state of ``name`` -- an empty
        state when the study does not exist yet."""
        with self._mutex:
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = StudyState(name=name)
            return state

    def _fold(self, seq: int, op: dict) -> None:
        name = op.get("study")
        if name is not None:
            apply_op(self.state(name), seq, op)
        self.applied_seq = seq

    def refresh(self) -> bool:
        """Exact catch-up: fold everything appended since the cursor.
        Returns True when new ops were folded.  The only backend
        traffic on a hit is one ``news()`` probe (and none at all when
        the cursor is warm and the probe says quiet)."""
        with self._mutex:
            if self.applied_seq >= 0 and not self.storage.news():
                self.hits += 1
                self._last_check = time.monotonic()
                return False
            self.misses += 1
            folded = False
            for seq, op in self.storage.read(self.applied_seq + 1):
                self._fold(seq, op)
                folded = True
            self._last_check = time.monotonic()
            return folded

    def maybe_refresh(self) -> bool:
        """Bounded-staleness catch-up for pure readers: within the
        ``max_staleness`` window this is a pure in-memory hit (zero
        backend ops, zero probes)."""
        with self._mutex:
            if (
                self.applied_seq >= 0
                and time.monotonic() - self._last_check < self.max_staleness
            ):
                self.hits += 1
                return False
            return self.refresh()

    def apply_local(self, first_seq: int, ops: Sequence[dict]) -> None:
        """Write-through: a writer that just appended ``ops`` at
        ``first_seq`` feeds them straight into the fold (read-your-writes
        with no backend read).  Falls back to a real refresh if the
        seqs are not contiguous with the cursor (a writer outside the
        lock slipped in)."""
        with self._mutex:
            if first_seq != self.applied_seq + 1:
                self.misses += 1
                for seq, op in self.storage.read(self.applied_seq + 1):
                    self._fold(seq, op)
                return
            for offset, op in enumerate(ops):
                self._fold(first_seq + offset, op)

    # -- read path (zero backend ops on a hit) -------------------------------
    def studies(self) -> list[str]:
        """Names of every created study, in creation order (cached
        fold order)."""
        with self._mutex:
            self.maybe_refresh()
            return [n for n, s in self._states.items() if s.created]

    def status(self, name: str) -> dict:
        """Status summary (counts, progress, finished) from memory."""
        with self._mutex:
            self.maybe_refresh()
            state = self.state(name)
            return {
                "study": name,
                "created": state.created,
                "counts": state.counts(),
                "completed": state.completed,
                "failed": state.failed,
                "duplicate_tells": state.duplicate_tells,
                "reclaims": state.reclaims,
                "finished": state.finished,
            }

    def trial(self, name: str, trial_id: int) -> Optional[TrialRecord]:
        with self._mutex:
            self.maybe_refresh()
            return self.state(name).trials.get(trial_id)

    def front(self, name: str) -> np.ndarray:
        """Nondominated objectives among ``name``'s completed trials,
        memoized on the completed count (recomputed only when a new
        completion folded in; served from memory otherwise)."""
        with self._mutex:
            self.maybe_refresh()
            state = self.state(name)
            memo = self._front_memo.get(name)
            if memo is not None and memo[0] == state.completed:
                return memo[1]
            objectives = [
                r.objectives
                for r in state.trials.values()
                if r.objectives is not None
            ]
            if not objectives:
                front = np.empty((0, 0))
            else:
                F = np.asarray(objectives, dtype=float)
                front = F[nondominated_mask(F)]
            self._front_memo[name] = (state.completed, front)
            return front

    # -- cross-study batched mutations ---------------------------------------
    def renew_leases(
        self,
        entries: Sequence[tuple[str, str, str]],
        ttl: float,
        now: Optional[float] = None,
    ) -> list[tuple[str, str]]:
        """Renew named leases across many studies in **one** compound
        op: one lock acquisition, one multi-op append, one durability
        barrier -- the fleet's master-lease renewal for S studies costs
        O(1) storage round-trips instead of O(S).

        ``entries`` is ``[(study, key, worker), ...]``; an entry is
        renewed only when ``worker`` still holds (or can take) the
        lease, exactly like ``Study.acquire_lease``.  Returns the
        ``(study, key)`` pairs actually renewed.
        """
        now = time.time() if now is None else now
        renewed: list[tuple[str, str]] = []
        with self.storage.lock(), self._mutex:
            self.refresh()
            ops: list[dict] = []
            for study_name, key, worker in entries:
                held = self.state(study_name).leases.get(key)
                if held is not None and held[0] != worker and held[1] >= now:
                    continue  # lost to a live foreign holder
                ops.append(
                    {
                        "op": "lease",
                        "study": study_name,
                        "key": key,
                        "worker": worker,
                        "expires": now + ttl,
                    }
                )
                renewed.append((study_name, key))
            if ops:
                last = self.storage.append_lazy(ops)
                self.apply_local(last - len(ops) + 1, ops)
        self.storage.sync()
        return renewed

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """Cache effectiveness + the backend traffic it did not avoid."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
            "applied_seq": self.applied_seq,
            "studies": len(self._states),
            "backend_reads": self.storage.read_calls,
            "backend_appends": self.storage.append_calls,
            "backend_probes": self.storage.probe_calls,
        }
