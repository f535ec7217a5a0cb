"""SQLite storage backend: the op log as a WAL-mode table.

Same contract as the journal file, different durability engine: SQLite
owns atomicity (a torn append is rolled back by SQLite's own journal,
so no tail-truncation logic is needed) and cross-process exclusion
(``BEGIN IMMEDIATE`` takes the database write lock).  WAL mode keeps
readers unblocked while a writer appends -- the property that lets a
status dashboard tail a study that a worker fleet is hammering.

Connection reuse: all :class:`SQLiteStorage` instances in one process
that point at the same database share **one** ``sqlite3`` connection
(per-process registry keyed by ``(pid, realpath)``), with SQLite's
prepared-statement cache sized for the service workload -- so opening
a storage handle per study costs a dict lookup, not a connection
handshake, and hot statements (the append INSERT, the tail SELECT)
compile once per process.  The registry is fork-aware: a child process
never inherits the parent's live connection.

One commit path: every append runs inside :meth:`SQLiteStorage.lock`
(``BEGIN IMMEDIATE .. COMMIT``).  The lock is reentrant, so an append
made inside a Study-layer compound op joins the caller's transaction
and commits with it; a standalone append is its own transaction.
Commits run at ``synchronous=FULL``: every acknowledged append has
been fsynced to the WAL.  There is no group commit: the Study and
cache layers append only inside the lock, so each compound op already
costs exactly one commit.

Contention is handled twice over: SQLite's own ``busy_timeout`` makes
lock waits block-with-timeout instead of failing instantly, and every
statement additionally retries on ``database is locked`` /
``database is busy`` with capped-exponential sleeps, so a brief burst
of writers degrades to queueing rather than errors.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .base import (
    StorageBackend,
    StorageError,
    StorageLockTimeout,
    decode_op,
    encode_op,
)

__all__ = ["SQLiteStorage"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    payload BLOB NOT NULL
)
"""

#: WAL sync level: ``FULL`` fsyncs every commit (power-loss durable).
_SYNCHRONOUS = "FULL"
#: Extra capped-exponential retries of a statement on locked/busy.
_MAX_RETRIES = 12


class _Conn:
    """One process-wide connection to one database path.

    ``rlock`` serializes this process's threads in front of SQLite's
    cross-process locking (a shared connection cannot host two
    concurrent transactions); ``depth`` tracks transaction nesting for
    the thread currently holding ``rlock``.
    """

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn
        self.rlock = threading.RLock()
        self.depth = 0
        self.refs = 0


_REGISTRY: dict[tuple[int, str], _Conn] = {}
_REGISTRY_LOCK = threading.Lock()


class SQLiteStorage(StorageBackend):
    """Op log in a single-table SQLite database (WAL mode).

    Parameters
    ----------
    path:
        Database file; one connection per process is shared by every
        instance opened on the same (real)path.
    busy_timeout:
        Lock timeout (seconds): SQLite's busy handler and the in-process
        writer lock both wait this long -- the counterpart of the
        journal's ``lock_timeout``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        busy_timeout: float = 10.0,
    ) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self.busy_timeout = busy_timeout
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._key = (os.getpid(), os.path.realpath(self.path))
        self._rec: Optional[_Conn] = None
        self._closed = False
        #: Highest rowid this instance has observed (``news()`` cursor).
        self._seen_rowid = 0
        self._record()  # connect eagerly so schema errors surface here

    # -- shared-connection registry ------------------------------------------
    def _record(self) -> _Conn:
        """The process-wide connection record (fork-aware, lazy)."""
        key = (os.getpid(), os.path.realpath(self.path))
        rec = self._rec
        if rec is not None and key == self._key:
            return rec
        with _REGISTRY_LOCK:
            rec = _REGISTRY.get(key)
            if rec is None:
                conn = sqlite3.connect(
                    self.path,
                    timeout=self.busy_timeout,
                    check_same_thread=False,
                    cached_statements=256,
                )
                conn.isolation_level = None  # explicit transactions only
                rec = _Conn(conn)
                _REGISTRY[key] = rec
            rec.refs += 1
        self._rec = rec
        self._key = key
        with rec.rlock:
            self._apply_pragmas(rec)
        return rec

    def _apply_pragmas(self, rec: _Conn) -> None:
        self._execute_on(rec, "PRAGMA journal_mode=WAL")
        self._execute_on(rec, f"PRAGMA synchronous={_SYNCHRONOUS}")
        self._execute_on(
            rec, f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}"
        )
        self._execute_on(rec, _SCHEMA)

    # -- busy retry ----------------------------------------------------------
    def _execute_on(self, rec: _Conn, sql: str, params: Sequence = ()):
        delay = 0.002
        for attempt in range(_MAX_RETRIES + 1):
            try:
                return rec.conn.execute(sql, params)
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise StorageError(f"sqlite error: {exc}") from exc
                if attempt >= _MAX_RETRIES:
                    raise StorageLockTimeout(
                        f"sqlite write lock not acquired: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(0.25, delay * 2)

    def _execute(self, sql: str, params: Sequence = ()):
        return self._execute_on(self._record(), sql, params)

    # -- contract ------------------------------------------------------------
    def append(self, ops: Sequence[dict]) -> int:
        if not ops:
            row = self._execute("SELECT MAX(seq) FROM journal").fetchone()
            return (row[0] or 0) - 1
        self.append_calls += 1
        self.appended_ops += len(ops)
        with self.lock():
            last = self._insert_ops(ops)
            self._seen_rowid = last + 1
        return last

    def _insert_ops(self, ops: Sequence[dict]) -> int:
        last = None
        for op in ops:
            cursor = self._execute(
                "INSERT INTO journal (payload) VALUES (?)", (encode_op(op),)
            )
            last = cursor.lastrowid
        return int(last) - 1  # rowids are 1-based; seqs are 0-based

    def read(self, from_seq: int = 0) -> list[tuple[int, dict]]:
        self.read_calls += 1
        rows = self._execute(
            "SELECT seq, payload FROM journal WHERE seq > ? ORDER BY seq",
            (from_seq,),  # seq column is rowid (1-based) = logical seq + 1
        ).fetchall()
        if rows:
            self._seen_rowid = max(self._seen_rowid, int(rows[-1][0]))
        return [(int(seq) - 1, decode_op(payload)) for seq, payload in rows]

    def news(self) -> bool:
        """Staleness probe: one indexed ``MAX(rowid)`` lookup -- far
        cheaper than a tail scan, and exact (rowids are allocated only
        by committed appends)."""
        self.probe_calls += 1
        row = self._execute("SELECT MAX(seq) FROM journal").fetchone()
        return int(row[0] or 0) != self._seen_rowid

    @contextmanager
    def lock(self, timeout: float | None = None) -> Iterator[None]:
        rec = self._record()
        wait = self.busy_timeout if timeout is None else timeout
        if not rec.rlock.acquire(timeout=-1 if wait is None else wait):
            raise StorageLockTimeout(
                f"sqlite in-process lock for {self.path!r} not acquired "
                f"within timeout"
            )
        try:
            if rec.depth > 0:
                rec.depth += 1
                try:
                    yield
                finally:
                    rec.depth -= 1
                return
            self._execute_on(rec, "BEGIN IMMEDIATE")
            rec.depth = 1
            try:
                yield
            except BaseException:
                rec.depth = 0
                try:
                    rec.conn.execute("ROLLBACK")
                except sqlite3.OperationalError:
                    pass
                raise
            else:
                rec.depth = 0
                self._execute_on(rec, "COMMIT")
        finally:
            rec.rlock.release()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        rec = self._rec
        self._rec = None
        if rec is None or self._key[0] != os.getpid():
            return
        with _REGISTRY_LOCK:
            rec.refs -= 1
            if rec.refs <= 0:
                _REGISTRY.pop(self._key, None)
                try:
                    rec.conn.close()
                except sqlite3.Error:  # pragma: no cover - best effort
                    pass

    def __len__(self) -> int:
        row = self._execute("SELECT COUNT(*) FROM journal").fetchone()
        return int(row[0])
