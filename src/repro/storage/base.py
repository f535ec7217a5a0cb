"""Storage backend contract: an append-only, crash-safe operation log.

Every backend stores one thing -- a totally ordered sequence of
*operation records* (plain picklable dicts) -- and the whole
:class:`~repro.storage.study.Study` layer is a deterministic fold over
that sequence.  This is what makes the durability story simple to
reason about: a study's live in-memory view and a cold replay of the
same log are the *same fold over the same ops*, so they are
bit-identical by construction, and every crash-recovery question
reduces to "which prefix of the log survived?".

Backends differ only in where the log lives:

* :class:`~repro.storage.memory.InMemoryStorage` -- a list (tests,
  single-process runs);
* :class:`~repro.storage.journal.JournalStorage` -- an append-only
  file of length-prefixed, checksummed records (multi-process via an
  advisory file lock, crash-safe via fsync + torn-tail truncation).

The contract deliberately has no read-modify-write primitive other
than :meth:`StorageBackend.lock`: compound operations (claim a trial,
reclaim a lease, ...) are implemented as *refresh under the lock, then
append* -- the lock serialises writers across processes, and the fold
makes the appended op unconditional to apply.

Every backend stores an op as the bytes :func:`encode_op` returns and
reads it back with :func:`decode_op`, so the durable op format is
defined here and nowhere else (the journal adds only its record
framing around these bytes).
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "CorruptRecord",
    "RetryPolicy",
    "StorageBackend",
    "StorageError",
    "StorageLockTimeout",
    "decode_op",
    "encode_op",
]


def encode_op(op: dict) -> bytes:
    """Serialize one op dict into the payload every backend stores."""
    return pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)


def decode_op(payload: bytes) -> dict:
    """Inverse of :func:`encode_op`."""
    return pickle.loads(payload)


class StorageError(RuntimeError):
    """A storage operation failed (torn write, I/O error, corruption)."""


class StorageLockTimeout(StorageError):
    """The cross-process storage lock could not be acquired in time."""


class CorruptRecord(StorageError):
    """Stored bytes that no retry can turn into an op: a record whose
    checksum matches but whose payload does not decode, or a file that
    is not a journal at all.  Unlike a torn tail, nothing may truncate
    them.  ``offset`` is where the bad bytes start in the scanned
    buffer."""

    def __init__(self, message: str, offset: int = 0) -> None:
        super().__init__(message)
        self.offset = offset


@dataclass
class RetryPolicy:
    """Retry/backoff policy shared by lease reclaim and storage retries.

    ``budget`` bounds how many dispatch attempts a single trial gets
    before it is dead-lettered (state ``failed``); the capped
    exponential backoff spaces re-dispatches of a trial whose previous
    leases kept dying, so a poison trial cannot monopolise the fleet.
    The service loop retries storage faults through one fixed instance
    of the same policy (``budget`` attempts per storage operation).
    """

    #: Maximum claim attempts per trial before dead-lettering.
    budget: int = 5
    #: Base of the capped exponential re-dispatch backoff (seconds).
    backoff_base: float = 0.05
    #: Ceiling of the re-dispatch backoff (seconds).
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("retry budget must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_max")

    def backoff(self, attempts: int) -> float:
        """Delay before re-dispatching a trial that failed ``attempts``
        times already (capped exponential)."""
        return min(self.backoff_max, self.backoff_base * (2.0 ** max(0, attempts - 1)))


class StorageBackend(ABC):
    """Append-only operation log with a cross-process writer lock.

    Logical sequence numbers are 0-based and dense: the k-th op ever
    appended has ``seq == k``.  ``read(from_seq)`` returns every op with
    ``seq >= from_seq`` that is *intact* -- a backend whose tail was
    torn by a crash returns the longest clean prefix and never a
    partial record.

    Traffic accounting: every backend counts its ``read``/``append``
    calls (:attr:`read_calls` / :attr:`append_calls`) and cheap
    staleness probes (:attr:`probe_calls`).  The
    :class:`~repro.storage.cache.StudyCache` leans on these to prove
    its zero-backend-op read path, and the traffic harness reports them
    as the backend-pressure side of every load figure.
    """

    def __init__(self) -> None:
        #: ``read()`` invocations (each one a real backend scan/query).
        self.read_calls = 0
        #: ``append()``/``append_lazy()`` invocations.
        self.append_calls = 0
        #: Ops appended across all append calls.
        self.appended_ops = 0
        #: ``news()`` staleness probes (cheap; never decode ops).
        self.probe_calls = 0

    @abstractmethod
    def append(self, ops: Sequence[dict]) -> int:
        """Durably append ``ops`` in order; returns the seq of the last
        appended op.  Atomic per op: after a crash, each op is either
        fully present or absent from replay."""

    @abstractmethod
    def read(self, from_seq: int = 0) -> list[tuple[int, dict]]:
        """Return ``[(seq, op), ...]`` for every intact op with
        ``seq >= from_seq``, in order."""

    @abstractmethod
    @contextmanager
    def lock(self, timeout: float | None = None) -> Iterator[None]:
        """Cross-process exclusive writer lock (reentrant within the
        owning thread of this instance).  Raises
        :exc:`StorageLockTimeout` when the lock cannot be acquired
        within ``timeout`` seconds."""

    # -- staleness probe (write-through cache support) -----------------------
    def news(self) -> bool:
        """Might the log hold ops beyond the last ``read()``/``append``
        this instance performed?

        A cheap, no-decode probe: ``False`` is a *guarantee* that a
        ``read`` from this instance's cursor would return nothing, so a
        caching layer may skip the read entirely; ``True`` only means
        "refresh to be sure".  The default is the always-safe ``True``
        (backends without a cheap probe force a refresh)."""
        self.probe_calls += 1
        return True

    # -- deferred durability (group commit support) --------------------------
    def append_lazy(self, ops: Sequence[dict]) -> int:
        """Append ``ops`` *without* waiting for durability; pair with
        :meth:`sync`.  The ops are applied to the log order immediately
        (readers may observe them), but the caller must not acknowledge
        them to anyone until :meth:`sync` returns.  Backends with no
        deferred path (the default) simply perform a durable append."""
        return self.append(ops)

    def sync(self) -> None:
        """Block until every op this instance ``append_lazy``'d is
        durable.  Safe to call without the writer lock held -- and that
        is the whole point: concurrent committers park here while one
        of them performs a single coalesced flush (group commit)."""

    def flush_stats(self) -> dict:
        """Group-commit telemetry.  Backends without a coalescing flush
        path report only that group commit is off; the journal
        overrides with flush/commit counts and the batching knobs."""
        return {"group_commit": False}

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any OS resources (files, connections)."""

    # -- context management -------------------------------------------------
    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
