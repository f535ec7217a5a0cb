"""In-memory storage backend: the op log as a plain list.

Single-process only (nothing is shared across OS processes), but it
honours the exact same contract as the durable backends -- ops are
encoded on append and decoded on read with the shared op codec, so
aliasing bugs (a caller mutating an op dict after appending it) cannot
silently diverge the in-memory backend from the journal, and replay
parity tests exercise identical semantics on both.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

from .base import StorageBackend, StorageLockTimeout, decode_op, encode_op

__all__ = ["InMemoryStorage"]


class InMemoryStorage(StorageBackend):
    """Op log in a list, guarded by a reentrant thread lock."""

    def __init__(self) -> None:
        super().__init__()
        self._log: list[bytes] = []
        self._lock = threading.RLock()
        #: Highest log length this instance has observed via its own
        #: reads/appends -- the cursor behind the ``news()`` probe.
        self._seen = 0

    def append(self, ops: Sequence[dict]) -> int:
        with self._lock:
            self.append_calls += 1
            self.appended_ops += len(ops)
            self._log.extend(encode_op(op) for op in ops)
            self._seen = len(self._log)
            return len(self._log) - 1

    def read(self, from_seq: int = 0) -> list[tuple[int, dict]]:
        with self._lock:
            self.read_calls += 1
            tail = self._log[from_seq:]
            self._seen = max(self._seen, from_seq + len(tail))
        return [
            (from_seq + i, decode_op(raw)) for i, raw in enumerate(tail)
        ]

    def news(self) -> bool:
        with self._lock:
            self.probe_calls += 1
            return len(self._log) != self._seen

    @contextmanager
    def lock(self, timeout: float | None = None) -> Iterator[None]:
        acquired = self._lock.acquire(
            timeout=-1 if timeout is None else timeout
        )
        if not acquired:  # pragma: no cover - RLock in-process contention
            raise StorageLockTimeout("in-memory lock timeout")
        try:
            yield
        finally:
            self._lock.release()

    def __len__(self) -> int:
        with self._lock:
            return len(self._log)
