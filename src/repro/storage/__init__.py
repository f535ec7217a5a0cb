"""Durable optimization-as-a-service storage (docs/RESILIENCE.md §6).

The ROADMAP's study/trial layer: a :class:`~repro.storage.study.Study`
is durable shared state that any number of stateless worker processes
attach to -- claiming evaluations under TTL leases, telling results
back exactly once, and surviving ``kill -9`` of any (or every) process
because the whole study is a deterministic fold over an append-only,
crash-safe operation log.

Backends: in-memory (tests) and the append-only journal file
(checksummed records, fsync, torn-tail truncation, advisory file
lock).  :func:`open_storage` picks one from a path/URL spec.  The
journal can optionally *group-commit* (concurrent appends coalesce into
shared fsync barriers).  :class:`~repro.storage.cache.StudyCache`
fronts any backend with a write-through in-memory fold so warm reads
cost zero backend ops.
"""

from __future__ import annotations

import os

from .base import (
    CorruptRecord,
    RetryPolicy,
    StorageBackend,
    StorageError,
    StorageLockTimeout,
)
from .cache import StudyCache
from .chaos import FaultyStorage
from .journal import JournalStorage
from .memory import InMemoryStorage
from .study import (
    TRIAL_COMPLETE,
    TRIAL_FAILED,
    TRIAL_PENDING,
    TRIAL_RUNNING,
    Study,
    StudyError,
    StudyState,
    TrialRecord,
    apply_op,
    list_studies,
)

__all__ = [
    "CorruptRecord",
    "FaultyStorage",
    "InMemoryStorage",
    "JournalStorage",
    "RetryPolicy",
    "StorageBackend",
    "StorageError",
    "StorageLockTimeout",
    "Study",
    "StudyCache",
    "StudyError",
    "StudyState",
    "TrialRecord",
    "TRIAL_PENDING",
    "TRIAL_RUNNING",
    "TRIAL_COMPLETE",
    "TRIAL_FAILED",
    "apply_op",
    "list_studies",
    "open_storage",
]


def open_storage(spec: str | os.PathLike, **kwargs) -> StorageBackend:
    """Open a storage backend from a path/URL spec.

    ``"memory://"`` → a fresh :class:`InMemoryStorage`; any other path
    → :class:`JournalStorage` (which refuses to open a file that is not
    a journal).  ``kwargs`` pass through to the backend
    constructor.
    """
    spec = os.fspath(spec)
    if spec == "memory://":
        return InMemoryStorage()
    return JournalStorage(spec, **kwargs)
