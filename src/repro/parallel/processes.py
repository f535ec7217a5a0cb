"""Process-backed master-slave Borg: true multi-core parallelism.

Workers are separate OS processes -- the closest local analogue of the
paper's MPI ranks.  The problem object is pickled once to each worker at
startup.  After that, each worker slot owns two private one-way pipes
that carry fixed binary frames, mirroring the constant-payload messages
whose cost the paper measured as TC:

* a task frame is a ``struct`` header (task id, rows, cols) and the
  C-order float64 bytes of the ``(rows, cols)`` block ``X``;
* a reply frame is a header (status, task id, rows, F columns, C columns
  or -1 for none, the worker-measured evaluation seconds) and the F and
  C bytes.  An error reply carries a UTF-8 message instead, and its
  ``rows`` field is the message length.

Nothing is pickled per message and no lock is shared between workers.
The master decodes only headers and float buffers: it unpickles nothing
a worker sends, and the arrays it decodes are its own copies.

The master waits on one persistent ``select.poll`` over every live reply
pipe.  Task pipes are non-blocking: bytes a full pipe does not take wait
in the slot and go out as the worker reads (the pipe is polled for room
only while part-written), and they are dropped when the slot is buried.
So a stopped worker that stops reading cannot stall the master; the
deadline sweep kills it.

A worker holds the only write end of its reply pipe, so its death shows
as a hang-up (EOF) there; a frame torn by the death is dropped with the
slot.  Closing a task pipe is the poison pill: the worker reads EOF and
exits 0.  A forked worker closes the master's pipe ends it inherited, so
it also exits when the master dies.

This module is the transport under the supervised master loop
(:func:`repro.parallel.supervision.run_master_loop`, docs/RESILIENCE.md):
the loop sweeps the pool for hung-up workers and blown per-task
deadlines, a hung worker is killed, and dead workers are respawned with
capped exponential backoff (or the pool shrinks gracefully when respawn
is off).  Because each slot's pipes are private, the master knows
exactly which in-flight tasks died with a worker.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import select
import struct
import time
from collections import deque
from typing import Collection, Optional

import numpy as np

from ..core.borg import BorgConfig
from ..problems.base import Problem
from ..stats import TallyMonitor
from .results import ParallelRunResult
from .supervision import (
    MSG_ERR,
    MSG_OK,
    SupervisorConfig,
    WorkerPool,
    evaluate_task,
    run_master_loop,
)

__all__ = ["run_process_master_slave"]

#: Task frame header: task id, rows, cols.
_TASK = struct.Struct("<qqq")
#: Reply frame header: status, task id, rows (an error's message
#: length), F columns, C columns (-1: no C), evaluation seconds.
_REPLY = struct.Struct("<qqqqqd")
_OK, _ERR = 0, 1
#: Bytes the master reads from a reply pipe at a time.
_CHUNK = 1 << 16


def _worker_main(problem: Problem, tasks, results, wid: int, generation: int = 0) -> None:
    """Worker process: evaluate blocks of decision vectors until poisoned.

    ``tasks.get()`` returns ``(task_id, X)`` with ``X`` an
    ``(n, nvars)`` block, or None once the master closed the task pipe.
    The reply is ``("ok", wid, task_id, F, C)``, put with the seconds the
    evaluation took.  Per-task exceptions are caught and reported as
    ``("err", wid, task_id, message)`` instead of killing the worker
    silently -- only a hard crash (signal, ``os._exit``) takes the
    process down, and the master sees that as a hang-up.  A reply pipe
    with no reader left means the master is gone, and the worker exits.
    """
    reseed = getattr(problem, "reseed_worker", None)
    if callable(reseed):
        reseed(wid, generation)
    with contextlib.suppress(KeyboardInterrupt, BrokenPipeError):
        for task_id, X in iter(tasks.get, None):
            started = time.perf_counter()
            reply = evaluate_task(problem, wid, task_id, X)
            results.put(reply, time.perf_counter() - started)


def _worker_process(problem, tasks, results, wid, generation, inherited) -> None:
    """Child entry point: close the master's pipe ends a forked child
    inherited (so an EOF from the master reaches every worker), then run
    :func:`_worker_main`, looked up at call time."""
    for conn in inherited:
        conn.close()
    _worker_main(problem, tasks, results, wid, generation)


def _read_exact(fd: int, n: int) -> Optional[bytearray]:
    """``n`` bytes from the blocking ``fd``, or None at EOF."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if not k:
            return None
        got += k
    return buf


class _TaskReader:
    """Worker end of a slot's task pipe."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def get(self) -> Optional[tuple[int, np.ndarray]]:
        """The next ``(task_id, X)``, or None once the master closed the
        pipe.  ``X`` is writeable."""
        fd = self.conn.fileno()
        head = _read_exact(fd, _TASK.size)
        if head is None:
            return None
        task_id, rows, cols = _TASK.unpack(head)
        body = _read_exact(fd, 8 * rows * cols)
        if body is None:
            return None
        return task_id, np.frombuffer(body).reshape(rows, cols)


def _reply_frame(reply: tuple, seconds: float) -> bytes:
    """Encode a reply tuple from :func:`evaluate_task` (float blocks).
    Blocks that are not 2-D with one row per candidate become an error
    reply."""
    kind, _, task_id = reply[:3]
    if kind == MSG_OK:
        F, C = reply[3], reply[4]
        if F.ndim == 2 and (C is None or (C.ndim == 2 and len(C) == len(F))):
            ccols = -1 if C is None else C.shape[1]
            head = _REPLY.pack(_OK, task_id, F.shape[0], F.shape[1], ccols, seconds)
            parts = [head, F.tobytes()]
            if C is not None:
                parts.append(C.tobytes())
            return b"".join(parts)
        shapes = f"F {F.shape}, C {None if C is None else C.shape}"
        message = f"reply blocks are not one row per candidate: {shapes}"
    else:
        message = str(reply[3])
    data = message.encode("utf-8", "replace")
    return _REPLY.pack(_ERR, task_id, len(data), 0, -1, seconds) + data


class _ReplyWriter:
    """Worker end of a slot's reply pipe."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def put(self, reply: tuple, seconds: float = 0.0) -> None:
        """Write ``reply``'s frame, all of it, before returning."""
        fd = self.conn.fileno()
        view = memoryview(_reply_frame(reply, seconds))
        while view:
            view = view[os.write(fd, view):]


class _WorkerSlot:
    """One supervised worker position (stable ``wid`` across respawns);
    retired when it has neither a process nor a pending respawn.
    ``tasks`` and ``replies`` are the master's ends of its pipes."""

    __slots__ = (
        "wid", "proc", "tasks", "replies", "unsent", "inbox",
        "generation", "respawns", "respawn_at",
    )

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.proc = None
        self.tasks = None
        self.replies = None
        #: Task bytes the pipe has not taken yet.
        self.unsent = bytearray()
        #: Reply bytes read that do not make a whole frame yet.
        self.inbox = b""
        self.generation = 0
        self.respawns = 0
        #: Monotonic instant of the pending respawn (None = not pending).
        self.respawn_at: Optional[float] = None


class _ProcessPool(WorkerPool):
    """Worker processes, each with a private task pipe and reply pipe."""

    name = "processes"

    def __init__(self, problem: Problem, size: int, start_method: str, sup) -> None:
        self.problem, self.size, self.sup = problem, size, sup
        #: Worker-measured evaluation seconds, one sample per reply.
        self.observed = {"tf": TallyMonitor()}
        self.ctx = mp.get_context(start_method)
        self.slots = [_WorkerSlot(w) for w in range(size)]
        #: Slots with a process, in slot order.
        self._live: dict[int, None] = {}
        #: Slots waiting for their respawn instant.
        self._waiting: set[int] = set()
        self._poller = select.poll()
        #: Reply-pipe fd -> slot, for every slot with a process.
        self._readers: dict[int, _WorkerSlot] = {}
        #: Task-pipe fd -> slot, for slots with unsent task bytes.
        self._behind: dict[int, _WorkerSlot] = {}
        #: Slots whose reply pipe hung up since the last sweep.
        self._hung_up: dict[int, _WorkerSlot] = {}
        #: Decoded replies not yet returned by ``receive``.
        self._ready: deque = deque()

    def _spawn(self, slot: _WorkerSlot) -> None:
        task_r, task_w = self.ctx.Pipe(duplex=False)
        reply_r, reply_w = self.ctx.Pipe(duplex=False)
        os.set_blocking(task_w.fileno(), False)
        os.set_blocking(reply_r.fileno(), False)
        slot.tasks, slot.replies = task_w, reply_r
        # A forked child inherits every pipe end the master holds; a
        # spawned one gets only the two ends passed to it.
        inherited = ()
        if self.ctx.get_start_method() == "fork":
            inherited = tuple(
                c for s in self.slots for c in (s.tasks, s.replies) if c is not None
            )
        args = (
            self.problem, _TaskReader(task_r), _ReplyWriter(reply_w),
            slot.wid, slot.generation, inherited,
        )
        slot.proc = self.ctx.Process(target=_worker_process, args=args, daemon=True)
        slot.respawn_at = None
        self._waiting.discard(slot.wid)
        try:
            slot.proc.start()
        finally:
            task_r.close()
            reply_w.close()
        self._readers[reply_r.fileno()] = slot
        self._poller.register(reply_r.fileno(), select.POLLIN)
        self._note_membership()

    def _close_pipes(self, slot: _WorkerSlot) -> None:
        """Close the master's ends of the slot's pipes; unsent task bytes
        and any torn reply frame are dropped."""
        for fds, conn in ((self._readers, slot.replies), (self._behind, slot.tasks)):
            if fds.pop(conn.fileno(), None) is not None:
                self._poller.unregister(conn.fileno())
            conn.close()
        slot.tasks = slot.replies = None
        slot.unsent.clear()
        slot.inbox = b""

    def _bury(self, slot: _WorkerSlot) -> None:
        """Reap the slot's process, then schedule a respawn or retire it."""
        proc, slot.proc = slot.proc, None
        self._hung_up.pop(slot.wid, None)
        self._close_pipes(slot)
        if proc.is_alive():
            proc.kill()  # SIGTERM would stay pending on a stopped worker
        proc.join(timeout=5.0)
        sup, cap = self.sup, self.sup.max_respawns
        if sup.respawn and (cap is None or slot.respawns < cap):
            slot.respawn_at = time.monotonic() + sup.backoff(slot.respawns)
            slot.respawns += 1
            slot.generation += 1
            self._waiting.add(slot.wid)
        self._note_membership()

    def _note_membership(self) -> None:
        self._live = dict.fromkeys(s.wid for s in self.slots if s.proc is not None)

    def _push(self, slot: _WorkerSlot) -> None:
        """Write what the slot's task pipe takes of its unsent bytes, and
        poll the pipe for room while some are left."""
        fd = slot.tasks.fileno()
        try:
            del slot.unsent[: os.write(fd, slot.unsent)]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            slot.unsent.clear()  # the worker is gone; its hang-up reports it
        if slot.unsent:
            if fd not in self._behind:
                self._behind[fd] = slot
                self._poller.register(fd, select.POLLOUT)
        elif self._behind.pop(fd, None) is not None:
            self._poller.unregister(fd)

    def _read(self, fd: int, slot: _WorkerSlot) -> None:
        """Take what the slot's reply pipe holds; queue its whole frames,
        or note the hang-up at EOF."""
        try:
            chunk = os.read(fd, _CHUNK)
        except BlockingIOError:
            return
        if not chunk:
            del self._readers[fd]
            self._poller.unregister(fd)
            self._hung_up[slot.wid] = slot
            return
        data = slot.inbox + chunk if slot.inbox else chunk
        at, size = 0, len(data)
        while size - at >= _REPLY.size:
            status, task_id, rows, cols, ccols, seconds = _REPLY.unpack_from(data, at)
            body = at + _REPLY.size
            if status == _OK:
                nf, nc = rows * cols, rows * max(ccols, 0)
                end = body + 8 * (nf + nc)
                if end > size:
                    break
                F = np.frombuffer(data, float, nf, body).reshape(rows, cols).copy()
                C = None
                if ccols >= 0:
                    C = np.frombuffer(data, float, nc, body + 8 * nf)
                    C = C.reshape(rows, ccols).copy()
                self.observed["tf"].record(seconds)
                reply = (MSG_OK, slot.wid, task_id, F, C)
            else:
                end = body + rows
                if end > size:
                    break
                message = data[body:end].decode("utf-8", "replace")
                reply = (MSG_ERR, slot.wid, task_id, message)
            self._ready.append(reply)
            at = end
        slot.inbox = data[at:]

    def start(self) -> None:
        for slot in self.slots:
            self._spawn(slot)

    def live(self) -> Collection[int]:
        return self._live.keys()

    def submit(self, wid: int, task_id: int, X: np.ndarray) -> None:
        slot = self.slots[wid]
        X = np.ascontiguousarray(X, dtype=float)
        slot.unsent += _TASK.pack(task_id, X.shape[0], X.shape[1])
        slot.unsent += X.data
        self._push(slot)

    def receive(self, timeout: float) -> Optional[tuple]:
        if not self._ready:
            # Read replies and feed part-written tasks until a reply is
            # whole, a worker hangs up, or the time is up.
            deadline = time.monotonic() + timeout
            wait = timeout
            while True:
                for fd, _ in self._poller.poll(wait * 1000.0):
                    slot = self._readers.get(fd)
                    if slot is not None:
                        self._read(fd, slot)
                    elif fd in self._behind:
                        self._push(self._behind[fd])
                wait = deadline - time.monotonic()
                if self._ready or self._hung_up or wait <= 0:
                    break
        return self._ready.popleft() if self._ready else None

    def poll(self) -> tuple[list[tuple[int, str]], int]:
        for slot in list(self._behind.values()):
            self._push(slot)
        dead = []
        for slot in list(self._hung_up.values()):
            self._bury(slot)
            dead.append((slot.wid, "worker process died"))
        respawned = 0
        if self._waiting:
            now = time.monotonic()
            for wid in sorted(self._waiting):
                if now >= self.slots[wid].respawn_at:
                    self._spawn(self.slots[wid])
                    respawned += 1
        return dead, respawned

    def kill(self, wid: int, task_id: int) -> bool:
        self._bury(self.slots[wid])
        return True

    def exhausted(self) -> bool:
        return not self._live and not self._waiting

    def close(self) -> None:
        # Closing a task pipe poisons its worker (EOF); closing the reply
        # pipe too means a worker busy on a task exits when it replies.
        # A worker still running at the deadline is killed.
        working = [s for s in self.slots if s.proc is not None]
        for slot in working:
            self._close_pipes(slot)
        deadline = time.monotonic() + 10.0
        for slot in working:
            proc = slot.proc
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)


def run_process_master_slave(
    problem: Problem,
    processors: int,
    max_nfe: int,
    config: Optional[BorgConfig] = None,
    seed: Optional[int] = None,
    snapshot_interval: Optional[int] = None,
    start_method: str = "fork",
    batch_size: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    resume: Optional[str] = None,
    publisher=None,
) -> ParallelRunResult:
    """Asynchronous master-slave Borg on ``processors - 1`` supervised
    worker processes.  Requires a picklable problem (all built-ins are).

    ``batch_size`` > 1 packs that many decision vectors into each task
    message; workers evaluate the block with one vectorized pass and
    reply with the stacked objective/constraint matrices, cutting both
    pipe round-trips and per-evaluation numpy overhead.

    ``supervisor`` tunes fault handling (defaults are safe and cheap
    for healthy runs).  ``checkpoint`` names a file to periodically
    serialize full engine state to (every ``checkpoint_interval``
    completed evaluations, default the snapshot interval); ``resume``
    restores a previous checkpoint and continues toward ``max_nfe``
    (``seed`` is then ignored -- the RNG state comes from the file).
    """
    sup = supervisor or SupervisorConfig()
    pool = _ProcessPool(problem, processors - 1, start_method, sup)
    return run_master_loop(
        pool, problem, max_nfe, config=config, seed=seed,
        snapshot_interval=snapshot_interval, batch_size=batch_size,
        supervisor=sup, checkpoint=checkpoint,
        checkpoint_interval=checkpoint_interval, resume=resume,
        publisher=publisher,
    )
