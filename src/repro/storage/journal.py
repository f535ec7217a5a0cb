"""Append-only journal file storage: durable, crash-safe, multi-process.

On-disk format -- a flat sequence of length-prefixed, checksummed
records::

    ┌────────┬──────────────┬──────────────┬─────────────────┐
    │ magic  │ length (u32) │ crc32 (u32)  │ payload (op)    │
    │ 2 B    │ little-endian│ of payload   │ ``length`` bytes│
    └────────┴──────────────┴──────────────┴─────────────────┘

The payload is one op as :func:`~repro.storage.base.encode_op` writes
it; this module owns only the framing.

Crash-safety invariants:

* **fsync before acknowledge.**  :meth:`JournalStorage.append` returns
  only after the journal is fsynced past its records, so an
  acknowledged op survives power loss (disable with ``fsync=False``
  for throughput benchmarks only).  :meth:`JournalStorage.append_lazy`
  writes its records under the lock and leaves the fsync to the next
  :meth:`JournalStorage.sync` on the same thread, so a caller that
  writes several compound ops before acknowledging any of them pays
  one disk barrier for all of them.  With ``group_commit`` enabled that
  barrier is also *coalesced across threads*: concurrent committers
  park in :class:`_GroupSync` while one of them flushes once for the
  whole batch -- same guarantee, one disk barrier for N appends.
* **Torn-tail truncation.**  A crash (or ``kill -9``) mid-write leaves
  a *torn* record at the tail: short header, short payload, or a
  payload whose CRC32 does not match.  Readers stop at the first torn
  record and report only the intact prefix; the next writer -- holding
  the exclusive advisory lock -- truncates the torn bytes
  (``ftruncate`` + fsync) before appending, so the log never grows past
  garbage.  :meth:`recover` performs the same truncation explicitly.
  A group-committed flush changes nothing here: records are framed
  individually, so a crash mid-flush tears at most the last partially
  written record and replay returns the longest intact prefix.
* **Foreign files are never truncated.**  A file with no intact record
  whose first bytes are neither a prefix of :data:`RECORD_MAGIC` nor
  NUL fill (what a crash during the very first append can leave) is
  not a torn journal but some other file -- a CSV, a SQLite database.
  Opening one raises :exc:`~repro.storage.base.CorruptRecord` before
  the journal or its lock sidecar is created, and leaves its bytes
  alone.  So does every read and append of a file turned foreign later,
  and of a record whose CRC32 matches but which does not decode.
* **Advisory file lock.**  Appends (and compound read-modify-append
  operations in the Study layer) serialize across OS processes via
  ``flock`` on a sidecar ``<path>.lock`` file, with a bounded
  poll-acquire that raises :exc:`~repro.storage.base.StorageLockTimeout`
  rather than deadlocking.  Within one process, threads sharing an
  instance serialize on an ``RLock`` first (the flock alone cannot
  tell this instance's threads apart), so the lock is reentrant
  per-thread, exclusive across threads, exclusive across processes.

Readers never truncate: a torn tail may be another process's append in
flight between ``write`` and ``fsync``, so only a lock-holding writer
may rewind the file.

Deferred durability (:meth:`~repro.storage.base.StorageBackend.append_lazy`
+ :meth:`~repro.storage.base.StorageBackend.sync`) splits an append
into "publish to the log order" (under the lock) and "wait until
durable" (after releasing it).  Every fsync'ing journal defers a lazy
append's fsync to ``sync()``; ``append`` is exactly a lazy append
followed by ``sync()``.  The Study layer uses the split twice: its
compound read-modify-append ops sync after releasing the lock (so on a
group-commit journal writer A can validate and write while writer B's
fsync is in flight, and one flush covers both), and a runner step
writes all its ops before one ``sync()``.
"""

from __future__ import annotations

import errno
import os
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .base import (
    CorruptRecord,
    StorageBackend,
    StorageError,
    StorageLockTimeout,
    decode_op,
    encode_op,
)

try:  # POSIX only; the CI/production target.  Windows gets a no-op lock.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["JournalStorage", "RECORD_MAGIC", "encode_record", "scan_all"]

#: Two magic bytes open every record; a reader landing on anything else
#: knows immediately that the tail is torn (or the file is foreign).
RECORD_MAGIC = b"RJ"
_HEADER = struct.Struct("<2sII")  # magic, payload length, payload crc32

#: Upper bound on a single record's payload; a length field above this
#: is treated as corruption rather than an instruction to allocate 4 GB.
MAX_RECORD_BYTES = 256 * 1024 * 1024


def encode_record(op: dict) -> bytes:
    """Serialize one op dict into its framed on-disk record."""
    payload = encode_op(op)
    return _HEADER.pack(RECORD_MAGIC, len(payload), zlib.crc32(payload)) + payload


def _refuse_foreign(path: str, head: bytes) -> None:
    """Raise :exc:`CorruptRecord` unless ``head``, the first bytes of a
    file with no intact record, can start a journal: empty, a prefix of
    :data:`RECORD_MAGIC` (a torn first record) or NUL fill (what a
    crash can leave before the first append's data reaches disk)."""
    head = head[: len(RECORD_MAGIC)]
    if head and not RECORD_MAGIC.startswith(head) and head.strip(b"\0"):
        raise CorruptRecord(
            f"{path!r} is not a journal (starts with {head!r}); "
            f"refusing to touch it"
        )


def scan_all(buf: bytes, offset: int = 0) -> tuple[list[dict], int]:
    """Scan ``buf`` from ``offset``; returns ``(ops, clean_end)``: the op
    of every intact record and the offset one past the last of them.

    The scan stops, without raising, at the first torn record (short
    header or payload, bad magic or CRC).  A record whose CRC matches
    but which does not decode raises :exc:`CorruptRecord`, ``offset``
    at its start in ``buf``.
    """
    ops: list[dict] = []
    pos, n = offset, len(buf)
    while pos + _HEADER.size <= n:
        magic, length, crc = _HEADER.unpack_from(buf, pos)
        end = pos + _HEADER.size + length
        if magic != RECORD_MAGIC or length > MAX_RECORD_BYTES or end > n:
            break
        payload = buf[pos + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            break
        try:
            ops.append(decode_op(payload))
        except Exception as exc:
            # A writer meant these checksummed bytes: stopping here as at
            # a torn tail would let the next writer truncate them and
            # every record after them.
            raise CorruptRecord(
                f"a record passed its checksum but does not decode: {exc!r}",
                offset=pos,
            ) from exc
        pos = end
    return ops, pos


class _GroupSync:
    """Coalesced fsync: many committers, one disk barrier.

    Committers call :meth:`wait_durable` with the byte offset their
    records end at.  The first uncovered committer becomes the *flush
    leader*: it optionally lingers ``flush_interval`` seconds (or until
    ``max_batch`` committers are parked) to let stragglers write, then
    performs one ``os.fsync`` covering every offset requested so far
    and wakes the group.  Committers arriving while a flush is in
    flight park and ride the *next* flush -- so under contention the
    batch size self-tunes to however many appends land per fsync
    duration, with zero added latency when ``flush_interval`` is 0.

    The fsync itself needs no journal lock: writes are serialized by
    the journal's writer lock before they ever reach this class, and an
    fsync concurrent with a later write merely persists a (not yet
    acknowledged) longer prefix.
    """

    def __init__(self, fileno, flush_interval: float = 0.0, max_batch: int = 64):
        self._fileno = fileno  # () -> int, the journal's write fd
        self._cond = threading.Condition()
        self._durable = 0  # byte offset fsynced at least this far
        self._pending = 0  # highest offset any committer asked for
        self._leader = False
        self._parked = 0
        self.flush_interval = flush_interval
        self.max_batch = max_batch
        #: fsync barriers actually issued.
        self.flushes = 0
        #: wait_durable calls satisfied (commits); mean group size is
        #: ``commits / flushes``.
        self.commits = 0

    def wait_durable(self, pos: int) -> None:
        with self._cond:
            if pos <= self._durable:
                self.commits += 1
                return
            self._pending = max(self._pending, pos)
            self._parked += 1
            self._cond.notify_all()  # a lingering leader may stop waiting
            while True:
                if pos <= self._durable:
                    self._parked -= 1
                    self.commits += 1
                    return
                if not self._leader:
                    self._leader = True
                    self._parked -= 1
                    break
                self._cond.wait(0.1)
        # This thread leads the flush (outside the condition: the whole
        # point is that followers keep writing while we sync).
        try:
            if self.flush_interval > 0.0:
                deadline = time.monotonic() + self.flush_interval
                with self._cond:
                    while self._parked < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
            with self._cond:
                target = self._pending
            os.fsync(self._fileno())
        except OSError as exc:
            with self._cond:
                self._leader = False
                self._cond.notify_all()
            raise StorageError(f"group fsync failed: {exc}") from exc
        with self._cond:
            self._durable = max(self._durable, target)
            self.flushes += 1
            self.commits += 1
            self._leader = False
            self._cond.notify_all()


class JournalStorage(StorageBackend):
    """Append-only journal file (see module docstring).

    Parameters
    ----------
    path:
        Journal file; created (with parents) when absent.
    fsync:
        Require appends to be durable before returning (default).
        Turning this off trades the power-loss guarantee for throughput.
    lock_timeout:
        Default timeout (seconds) for the advisory lock acquisition.
    group_commit:
        Coalesce concurrent appends' fsyncs into shared disk barriers
        (see :class:`_GroupSync`).  Identical durability guarantee;
        changes only *when* the fsync happens and who pays for it.
    flush_interval:
        With ``group_commit``: how long a flush leader lingers for
        stragglers before syncing (seconds; 0 = sync immediately,
        batching only what accumulates during each fsync).  This is
        the group-commit latency bound: an append waits at most one
        ``flush_interval`` plus one fsync.
    max_batch:
        With ``group_commit``: linger cutoff -- flush as soon as this
        many committers are parked, even inside ``flush_interval``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        fsync: bool = True,
        lock_timeout: float = 10.0,
        group_commit: bool = False,
        flush_interval: float = 0.0,
        max_batch: int = 64,
    ) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self.fsync = fsync
        self.lock_timeout = lock_timeout
        try:
            with open(self.path, "rb") as fh:
                _refuse_foreign(self.path, fh.read(len(RECORD_MAGIC)))
        except FileNotFoundError:
            pass
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # Create the journal eagerly so readers can open it immediately.
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        os.close(fd)
        self._lock_path = self.path + ".lock"
        #: Persistent lock-file descriptor (lazily opened, re-opened
        #: after fork) -- flock/funlock per acquisition, not open/close.
        self._lock_fd: Optional[int] = None
        self._lock_pid: Optional[int] = None
        self._lock_depth = 0
        #: In-process writer exclusion: threads sharing this instance
        #: serialize here before touching the flock (which cannot tell
        #: one process's threads apart).  Reentrant per thread.
        self._tlock = threading.RLock()
        #: Clean-scan cache: byte offset / seq one past the last record
        #: this instance has decoded (re-validated against file size).
        self._pos = 0
        self._seq = 0
        self._decoded_tail: list = []
        self._tail_base_seq = 0
        #: Guards the scan cursor above: readers advance it without the
        #: writer lock, writers advance it under that lock.  A leaf lock
        #: (nothing else is acquired while it is held), so a reader
        #: holding a cache mutex can take it while a writer holding
        #: ``_tlock`` waits for that mutex, without deadlock.
        self._cursor_lock = threading.RLock()
        #: Persistent write handle (lazily opened, re-opened after fork).
        self._wfh = None
        self._wpid: Optional[int] = None
        self.group_commit = bool(group_commit) and fsync
        self._gsync = (
            _GroupSync(self._write_fileno, flush_interval, max_batch)
            if self.group_commit
            else None
        )
        #: Per-thread high-water mark of lazily appended bytes awaiting
        #: :meth:`sync` (fsync'ing journals only).
        self._lazy = threading.local()

    # -- locking -------------------------------------------------------------
    @contextmanager
    def lock(self, timeout: float | None = None) -> Iterator[None]:
        wait = self.lock_timeout if timeout is None else timeout
        if not self._tlock.acquire(timeout=-1 if wait is None else wait):
            raise StorageLockTimeout(
                f"journal in-process lock for {self.path!r} not acquired "
                f"within timeout"
            )
        try:
            if self._lock_depth > 0:
                # Reentrant: this thread already holds the flock.
                self._lock_depth += 1
                try:
                    yield
                finally:
                    self._lock_depth -= 1
                return
            deadline = time.monotonic() + (wait if wait is not None else 0.0)
            fd = self._lock_handle()
            if fcntl is not None:
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError as exc:
                        if exc.errno not in (errno.EACCES, errno.EAGAIN):
                            raise StorageError(
                                f"cannot lock {self._lock_path!r}: {exc}"
                            ) from exc
                        if wait is not None and time.monotonic() >= deadline:
                            raise StorageLockTimeout(
                                f"journal lock {self._lock_path!r} not "
                                f"acquired within timeout"
                            ) from exc
                        time.sleep(0.002)
            self._lock_depth = 1
            try:
                yield
            finally:
                self._lock_depth = 0
                if fcntl is not None:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_UN)
                    except OSError:
                        pass
        finally:
            self._tlock.release()

    def _lock_handle(self) -> int:
        """Persistent lock-file fd (re-opened lazily after fork)."""
        if self._lock_fd is None or self._lock_pid != os.getpid():
            self._lock_fd = os.open(
                self._lock_path, os.O_CREAT | os.O_RDWR, 0o644
            )
            self._lock_pid = os.getpid()
        return self._lock_fd

    # -- scanning ------------------------------------------------------------
    def _read_from(self, offset: int) -> bytes:
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            return fh.read()

    def _scan(self, offset: int) -> tuple[list[dict], int]:
        """:func:`scan_all` over the file from byte ``offset`` (the end
        is relative to it), naming the path in a :exc:`CorruptRecord`."""
        buf = self._read_from(offset)
        try:
            ops, end = scan_all(buf)
        except CorruptRecord as exc:
            at = offset + exc.offset
            raise CorruptRecord(f"{self.path!r} byte {at}: {exc}", at) from exc
        if offset == 0 and end == 0:
            _refuse_foreign(self.path, buf)
        return ops, end

    def _refresh_cache(self) -> None:
        """Advance the clean-scan cache over any bytes appended since
        the last scan (full rescan if the file shrank under us -- a
        writer truncated a torn tail we had already skipped).  Callers
        hold ``_cursor_lock``."""
        size = os.path.getsize(self.path)
        if size == self._pos:
            # Nothing new (exact, by the argument in news()): what a
            # scan of zero bytes would leave, without opening the file.
            self._decoded_tail = []
            self._tail_base_seq = self._seq
            return
        if size < self._pos:
            self._pos = 0
            self._seq = 0
        ops, end = self._scan(self._pos)
        self._decoded_tail = ops  # ops since the previous cache head
        self._tail_base_seq = self._seq
        self._seq += len(ops)
        self._pos += end

    def read(self, from_seq: int = 0) -> list[tuple[int, dict]]:
        self.read_calls += 1
        with self._cursor_lock:
            self._refresh_cache()
            if from_seq >= self._tail_base_seq:
                tail = self._decoded_tail[from_seq - self._tail_base_seq :]
                return [
                    (from_seq + i, op) for i, op in enumerate(tail)
                ]
        # Cold read (a fresh consumer behind our cache): rescan the file.
        ops, _ = self._scan(0)
        return [(i, op) for i, op in enumerate(ops) if i >= from_seq]

    def news(self) -> bool:
        """Exact staleness probe: one ``stat``, no open, no decode.

        The scan cursor ``_pos`` ends at this instance's intact prefix.
        Any record appended since extends the file past ``_pos``, and a
        writer truncating a torn tail can only move the size *toward*
        ``_pos`` (intact records are never truncated) -- so
        ``size == _pos`` guarantees there is nothing new to read, with
        no aliasing window."""
        self.probe_calls += 1
        return os.path.getsize(self.path) != self._pos

    # -- appending -----------------------------------------------------------
    def _write_fileno(self) -> int:
        return self._write_handle().fileno()

    def _write_handle(self):
        """Persistent write handle (re-opened lazily after fork/close)."""
        if self._wfh is None or self._wfh.closed or self._wpid != os.getpid():
            self._wfh = open(self.path, "r+b")
            self._wpid = os.getpid()
        return self._wfh

    def _truncate_torn_tail(self) -> int:
        """With the lock and ``_cursor_lock`` held: drop any torn bytes
        at the tail; returns the number of bytes truncated."""
        size = os.path.getsize(self.path)
        if size == self._pos:
            # Fast path (the steady-state append): the file ends exactly
            # at our intact prefix, so there is nothing torn and nothing
            # external to scan -- same no-aliasing identity as news().
            return 0
        if size < self._pos:
            self._pos = 0
            self._seq = 0
        ops, end = self._scan(self._pos)
        self._seq += len(ops)
        self._pos += end
        torn = size - self._pos
        if torn > 0:
            fh = self._write_handle()
            fh.truncate(self._pos)
            fh.flush()
            os.fsync(fh.fileno())
        return torn

    def _write_records(self, ops: Sequence[dict]) -> int:
        """Write framed records under the lock; flush to the OS but do
        not fsync.  Returns the seq of the last written op."""
        encoded = b"".join(encode_record(op) for op in ops)
        with self.lock(), self._cursor_lock:
            self._truncate_torn_tail()
            fh = self._write_handle()
            fh.seek(self._pos)
            fh.write(encoded)
            fh.flush()
            self._pos += len(encoded)
            self._seq += len(ops)
            return self._seq - 1

    def append(self, ops: Sequence[dict]) -> int:
        last = self.append_lazy(ops)
        self.sync()
        return last

    def append_lazy(self, ops: Sequence[dict]) -> int:
        """Publish ``ops`` to the log order now; defer the fsync to this
        thread's next :meth:`sync`."""
        if not ops:
            return self._seq - 1
        self.append_calls += 1
        self.appended_ops += len(ops)
        with self.lock():
            last = self._write_records(ops)
            if self.fsync:
                self._lazy.target = self._pos
        return last

    def sync(self) -> None:
        """One disk barrier for every lazy append this thread made:
        outside the lock, coalesced with other threads' under group
        commit; a no-op when nothing is waiting."""
        target = getattr(self._lazy, "target", 0)
        if not target:
            return
        if self._gsync is not None:
            self._gsync.wait_durable(target)
        else:
            os.fsync(self._write_fileno())
        self._lazy.target = 0

    def flush_stats(self) -> dict:
        """Group-commit telemetry: disk barriers vs commits riding them."""
        if self._gsync is None:
            return {"group_commit": False}
        flushes = self._gsync.flushes
        commits = self._gsync.commits
        return {
            "group_commit": True,
            "flushes": flushes,
            "commits": commits,
            "mean_batch": (commits / flushes) if flushes else 0.0,
            "flush_interval": self._gsync.flush_interval,
            "max_batch": self._gsync.max_batch,
        }

    def recover(self) -> tuple[int, int]:
        """Truncate any torn tail; returns ``(intact_ops, torn_bytes)``.

        Equivalent to what every append does implicitly; exposed so
        operators (and tests) can heal a journal without writing to it.
        """
        with self.lock(), self._cursor_lock:
            torn = self._truncate_torn_tail()
            return self._seq, torn

    # -- chaos hook ----------------------------------------------------------
    def torn_append(self, op: dict, fraction: float = 0.5) -> None:
        """Write a deliberately torn record: the first ``fraction`` of
        the framed bytes, fsynced, then raise :exc:`StorageError`.

        This is the :class:`~repro.storage.chaos.FaultyStorage` injection
        point -- byte-for-byte what a power cut mid-append leaves behind.
        """
        rec = encode_record(op)
        cut = max(1, min(len(rec) - 1, int(len(rec) * fraction)))
        with self.lock(), self._cursor_lock:
            self._truncate_torn_tail()
            fh = self._write_handle()
            fh.seek(self._pos)
            fh.write(rec[:cut])
            fh.flush()
            os.fsync(fh.fileno())
        raise StorageError("injected torn write (crash mid-append)")

    def close(self) -> None:
        if self._wfh is not None and self._wpid == os.getpid():
            try:
                self._wfh.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._wfh = None
        if self._lock_fd is not None and self._lock_pid == os.getpid():
            try:
                os.close(self._lock_fd)
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._lock_fd = None

    def __len__(self) -> int:
        with self._cursor_lock:
            self._refresh_cache()
            return self._seq
