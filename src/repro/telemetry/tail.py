"""Journal tailing: fold a durable study op-log into the event stream.

:class:`JournalTailer` follows any :class:`~repro.storage.StorageBackend`
-- the append-only journal file or the in-memory backend --
from an arbitrary sequence offset, using the backend's ``read(from_seq)``
contract: every poll returns the intact ops appended since the last
one, in order, and *only* intact ops.  That contract is what makes
tailing crash-safe for free:

* **Torn tails are invisible.**  A record half-written by a crashed (or
  merely in-flight) writer is not an op yet; the tailer simply does not
  see it.  If the next writer truncates the torn bytes and appends
  something else, the tailer observes the replacement under the same
  sequence number it never consumed.  Consumed sequence numbers are
  stable: writers only ever truncate *torn* bytes, never intact
  records.
* **Writer restarts are non-events.**  The tailer has no session with
  any writer -- it follows the log, not a process.  ``kill -9`` every
  worker, re-attach a new fleet, and the tailer keeps folding from
  where it stopped.

Each op is translated into zero or more typed
:class:`~repro.telemetry.events.Event` objects (the same vocabulary
in-process hooks publish), and simultaneously folded into a
:class:`~repro.storage.study.StudyState` via the Study layer's own
``apply_op`` -- so the tailer's view of counts/leases/trials is
bit-identical to what a worker process sees, by construction.

Engine-internal events (epsilon-progress, restarts, operator updates)
are recovered from ``snapshot`` ops: the snapshot blob carries the
engine's restart and improvement counters and its operator
probabilities, so the tailer emits delta events whenever a snapshot
shows them changed.  Their resolution is therefore the snapshot
cadence, not per-evaluation -- see docs/OBSERVABILITY.md.

Event timestamps are *observation* times (``time.time()`` at the poll
that saw the op): the op log stores no wall-clock instants, so latency
derived from tailed events is accurate to the poll interval for live
runs and meaningless for cold replays (cold events all share one
observation instant; consumers can detect this via
:attr:`Event.seq` density).
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional

import numpy as np

from ..storage.base import CorruptRecord, StorageBackend, StorageError
from ..storage.study import StudyState, apply_op
from . import events as ev
from .events import Event, EventBus

__all__ = ["JournalTailer"]


def _jsonable(value):
    """Best-effort reduction of op payloads to JSON-safe primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class _StudyTrack:
    """Per-study fold state plus snapshot-delta trackers."""

    def __init__(self, name: str) -> None:
        self.state = StudyState(name=name)
        # Engine counters recovered from the last snapshot blob.
        self.restarts = 0
        self.improvements = 0
        self.probabilities: dict[str, float] = {}


class JournalTailer:
    """Follow a study op-log and fold it into typed events.

    Parameters
    ----------
    storage:
        Any storage backend.  The tailer only ever calls
        ``read(from_seq)`` -- it never locks, appends, or truncates
        (readers must not: a torn tail may be another process's append
        in flight).
    study:
        Restrict to one study name, or ``None`` to observe every study
        in the log (events carry their study name either way).
    from_seq:
        Sequence offset to start folding from (0 = the whole log, i.e.
        a cold replay; pass a checkpointed offset to resume a
        dashboard exactly where it left off).
    bus:
        Optional :class:`EventBus` every folded event is also published
        to (for fanning one tailer out to many consumers).
    """

    def __init__(
        self,
        storage: StorageBackend,
        study: Optional[str] = None,
        from_seq: int = 0,
        bus: Optional[EventBus] = None,
    ) -> None:
        if from_seq < 0:
            raise ValueError("from_seq must be >= 0")
        self.storage = storage
        self.study = study
        self.bus = bus
        self.next_seq = from_seq
        self._tracks: dict[str, _StudyTrack] = {}
        #: Total events derived so far.
        self.events_folded = 0
        #: Read attempts that raised a (transient) StorageError.
        self.read_errors = 0

    # -- folded state --------------------------------------------------------
    def state(self, study: Optional[str] = None) -> StudyState:
        """The folded :class:`StudyState` of ``study`` (default: the
        tailer's pinned study; required when observing all)."""
        name = study or self.study
        if name is None:
            raise ValueError("tailer observes all studies; name one")
        track = self._tracks.get(name)
        return track.state if track is not None else StudyState(name=name)

    def studies(self) -> list[str]:
        """Names of every study seen so far, in first-seen order."""
        return list(self._tracks)

    # -- polling -------------------------------------------------------------
    def poll(self) -> list[Event]:
        """Fold every op appended since the last poll; returns the
        derived events (already published to :attr:`bus`, if any)."""
        try:
            batch = self.storage.read(self.next_seq)
        except CorruptRecord:
            raise  # permanent: no later poll can read past it
        except StorageError:
            # Transient (a writer holds the file mid-recovery, an
            # injected fault): surface nothing, retry on the next poll.
            self.read_errors += 1
            return []
        now = time.time()
        out: list[Event] = []
        for seq, op in batch:
            name = op.get("study")
            if name is not None and (self.study is None or name == self.study):
                track = self._tracks.get(name)
                if track is None:
                    track = self._tracks[name] = _StudyTrack(name)
                self._derive(track, seq, op, now, out)
                apply_op(track.state, seq, op)
            self.next_seq = seq + 1
        self.events_folded += len(out)
        if self.bus is not None:
            for event in out:
                self.bus.publish(event)
        return out

    def follow(
        self,
        poll_interval: float = 0.2,
        timeout: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Event]:
        """Generator: yield events as they appear, polling every
        ``poll_interval`` seconds.

        Ends when the pinned study is marked finished (after yielding
        its final events), when ``timeout`` wall-clock seconds elapse,
        or when ``stop()`` returns true.  Observing all studies
        (``study=None``) only the latter two apply.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for event in self.poll():
                yield event
            if self.study is not None:
                track = self._tracks.get(self.study)
                if track is not None and track.state.finished:
                    return
            if stop is not None and stop():
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(poll_interval)

    # -- op -> events --------------------------------------------------------
    def _derive(
        self,
        track: _StudyTrack,
        seq: int,
        op: dict,
        now: float,
        out: list[Event],
    ) -> None:
        """Translate one op (against the *pre-apply* state) into events."""
        state = track.state
        name = state.name
        kind = op["op"]

        def emit(event_kind: str, **data) -> None:
            out.append(
                Event(kind=event_kind, time=now, study=name, seq=seq,
                      data=data)
            )

        if kind == "create":
            emit(ev.STUDY_CREATED, meta=_jsonable(op.get("meta", {})))
        elif kind == "enqueue":
            emit(
                ev.EVAL_ENQUEUED,
                trial=op["trial"],
                operator=op.get("operator", "service"),
            )
        elif kind == "claim":
            record = state.trials.get(op["trial"])
            attempts = (record.attempts if record is not None else 0) + 1
            emit(
                ev.LEASE_CLAIM,
                trial=op["trial"],
                worker=op["worker"],
                attempts=attempts,
            )
            emit(ev.EVAL_STARTED, trial=op["trial"], worker=op["worker"])
        elif kind == "complete":
            record = state.trials.get(op["trial"])
            if record is not None and record.state in ("complete", "failed"):
                emit(
                    ev.DUPLICATE_TELL, trial=op["trial"], worker=op["worker"]
                )
            else:
                emit(
                    ev.EVAL_FINISHED,
                    trial=op["trial"],
                    worker=op["worker"],
                    nfe=state.completed + 1,
                    operator=(
                        record.operator if record is not None else "service"
                    ),
                    objectives=_jsonable(op["objectives"]),
                )
        elif kind == "requeue":
            record = state.trials.get(op["trial"])
            reason = op.get("reason") or ""
            worker = record.worker if record is not None else None
            if reason.startswith("lease expired"):
                emit(
                    ev.LEASE_RECLAIM,
                    trial=op["trial"], worker=worker, reason=reason,
                )
            else:
                emit(
                    ev.EVAL_FAILED,
                    trial=op["trial"], worker=worker, error=reason,
                )
            emit(
                ev.REDISPATCH,
                trial=op["trial"],
                not_before=op.get("not_before"),
                reason=reason,
            )
        elif kind == "deadletter":
            emit(ev.DEAD_LETTER, trial=op["trial"], reason=op.get("reason"))
        elif kind == "lease":
            emit(
                ev.MASTER_LEASE,
                key=op["key"],
                worker=None if op["expires"] is None else op["worker"],
            )
        elif kind == "snapshot":
            self._derive_snapshot(track, op, emit)
        elif kind == "finish":
            emit(ev.STUDY_FINISHED, nfe=state.completed)
        # Unknown ops (forward compatibility) and heartbeats derive
        # nothing; heartbeats are pure lease upkeep, all noise.

    def _derive_snapshot(self, track: _StudyTrack, op: dict, emit) -> None:
        """Recover engine-internal events from a snapshot blob's
        counters (restarts, epsilon improvements, operator
        probabilities); resolution is the snapshot cadence."""
        blob = op.get("blob") or {}
        nfe = int(op.get("nfe", 0))
        archive = blob.get("archive") or {}
        archive_size = len(archive.get("solutions", ()))
        emit(
            ev.SNAPSHOT,
            nfe=nfe,
            restarts=int(blob.get("restarts", 0)),
            archive_size=archive_size,
        )
        restarts = int(blob.get("restarts", 0))
        if restarts > track.restarts:
            emit(ev.RESTART, nfe=nfe, restarts=restarts)
        track.restarts = max(track.restarts, restarts)
        improvements = int(archive.get("improvements", 0))
        if improvements > track.improvements:
            emit(
                ev.EPSILON_PROGRESS,
                nfe=nfe,
                improvements=improvements,
                archive_size=archive_size,
            )
        track.improvements = max(track.improvements, improvements)
        selector = blob.get("selector") or {}
        names = selector.get("operator_names")
        probs = selector.get("probabilities")
        if names is not None and probs is not None:
            current = {
                str(n): round(float(p), 6) for n, p in zip(names, probs)
            }
            if current != track.probabilities:
                emit(ev.OPERATOR_UPDATE, probabilities=current)
                track.probabilities = current
