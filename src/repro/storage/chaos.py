"""Storage chaos injection: a backend wrapper that misbehaves on purpose.

:class:`FaultyStorage` is the storage-layer counterpart of
:class:`~repro.problems.chaos.FaultyProblem`: it wraps any
:class:`~repro.storage.base.StorageBackend` and deterministically
injects the failure taxonomy the durable backends must survive --

* **torn writes** (``torn_write_rate``): an append crashes mid-record.
  On a :class:`~repro.storage.journal.JournalStorage` the torn bytes
  are really written to disk (via :meth:`JournalStorage.torn_append`),
  exactly what ``kill -9`` between ``write`` and ``fsync`` leaves; on
  the atomic in-memory backend the append simply fails without
  effect.
* **lock timeouts** (``lock_timeout_rate``): the writer lock acquisition
  fails with :exc:`~repro.storage.base.StorageLockTimeout`, modelling a
  contended or wedged peer.
* **replay corruption** (:meth:`corrupt_tail`): flip one byte in the
  journal's tail region on demand, for replay-recovery drills.

Fault decisions are drawn from a seeded ``numpy`` stream, so a given
seed reproduces the same fault schedule.  Callers are expected to treat
every injected :exc:`~repro.storage.base.StorageError` exactly like a
real one -- retry with backoff -- which is how the service layer's soak
tests prove the retry paths, not just the happy path.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

import numpy as np

from .base import StorageBackend, StorageError, StorageLockTimeout
from .journal import JournalStorage

__all__ = ["FaultyStorage"]


class FaultyStorage(StorageBackend):
    """Wrap ``inner`` with seeded torn-write / lock-timeout injection."""

    def __init__(
        self,
        inner: StorageBackend,
        torn_write_rate: float = 0.0,
        lock_timeout_rate: float = 0.0,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__()
        rates = (torn_write_rate, lock_timeout_rate)
        if any(r < 0 or r > 1 for r in rates):
            raise ValueError("fault rates must be in [0, 1]")
        self.inner = inner
        self.torn_write_rate = torn_write_rate
        self.lock_timeout_rate = lock_timeout_rate
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        #: Injected-fault tally by kind (per wrapper instance).
        self.injected: Counter[str] = Counter()

    # -- contract ------------------------------------------------------------
    def _maybe_tear(self, ops: Sequence[dict]) -> None:
        """Draw one torn-write decision for an append of ``ops``; on a
        hit, tear (journal: the first record really lands torn on disk)
        and raise :exc:`StorageError`."""
        if ops and self.torn_write_rate and (
            float(self._rng.random()) < self.torn_write_rate
        ):
            self.injected["torn_write"] += 1
            if isinstance(self.inner, JournalStorage):
                # Physically tear the first record on disk; raises.
                self.inner.torn_append(
                    ops[0], fraction=float(self._rng.uniform(0.1, 0.9))
                )
            raise StorageError("injected append failure (atomic backend)")

    def append(self, ops: Sequence[dict]) -> int:
        self._maybe_tear(ops)
        return self.inner.append(ops)

    def append_lazy(self, ops: Sequence[dict]) -> int:
        self._maybe_tear(ops)
        return self.inner.append_lazy(ops)

    def sync(self) -> None:
        self.inner.sync()

    def read(self, from_seq: int = 0) -> list[tuple[int, dict]]:
        return self.inner.read(from_seq)

    def news(self) -> bool:
        return self.inner.news()

    def flush_stats(self) -> dict:
        return self.inner.flush_stats()

    @contextmanager
    def lock(self, timeout: float | None = None) -> Iterator[None]:
        if self.lock_timeout_rate and (
            float(self._rng.random()) < self.lock_timeout_rate
        ):
            self.injected["lock_timeout"] += 1
            raise StorageLockTimeout("injected lock timeout")
        with self.inner.lock(timeout):
            yield

    def close(self) -> None:
        self.inner.close()

    # -- replay-corruption drill --------------------------------------------
    def corrupt_tail(self, byte_from_end: int = 10) -> bool:
        """Flip one byte ``byte_from_end`` bytes before the journal's
        EOF (best effort; False when the backend has no file or the
        file is too short).  Models bit rot / partial sector writes for
        replay-recovery tests."""
        if not isinstance(self.inner, JournalStorage):
            return False
        path = self.inner.path
        size = os.path.getsize(path)
        if size <= byte_from_end:
            return False
        self.injected["replay_corruption"] += 1
        with open(path, "r+b") as fh:
            fh.seek(size - byte_from_end)
            original = fh.read(1)
            fh.seek(size - byte_from_end)
            fh.write(bytes([original[0] ^ 0xFF]))
            fh.flush()
            os.fsync(fh.fileno())
        return True
