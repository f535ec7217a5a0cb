"""In-memory spans around the public functions of each ``repro`` layer.

Nothing inside ``src/`` is edited: :func:`instrument` replaces each
traced function at the place its callers look it up (a class attribute
or the module global of the importing module) with a wrapper that
records a span, and :meth:`Tracer.uninstall` puts every original back.

A span is ``[name, layer, start, end, parent]``; ``parent`` is the
index of the span that was open when this one began (``-1`` for a
root).  A span's *self time* is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

NAME, LAYER, START, END, PARENT = range(5)

#: Layers of the package, in report order, plus ``tf``: the controlled
#: evaluation delay of ``TimedProblem`` (the paper's TF), kept apart from
#: the ``problems`` kernels it wraps.
LAYERS = ("core", "problems", "parallel", "storage", "tf")


class Tracer:
    """Span recorder plus the registry of patches it installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        #: Spans are recorded only in this process; forked workers
        #: inherit the wrappers but call straight through.
        self.pid = os.getpid()

    # -- recording -----------------------------------------------------------
    def begin(self, name: str, layer) -> list:
        """Open a span; ``layer=None`` inherits the parent's layer,
        which then also prefixes the name (``fsync`` -> ``storage.fsync``)."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        if layer is None and parent >= 0:
            layer = self.spans[parent][LAYER]
            name = f"{layer}.{name}"
        span = [name, layer, time.perf_counter(), 0.0, parent]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer):
        """``fn`` recording one span per call made in this process."""
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span = tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (remembering the original for uninstall)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def trace(self, owner, attr: str, name: str, layer) -> None:
        """Wrap ``owner.attr`` (function, method or classmethod)."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, layer))
        else:
            wrapped = self.wrap(original, name, layer)
        self.patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span (duration minus child coverage)."""
        return self_times(self.spans)

    def roots(self) -> list[int]:
        """Index of each span's root span."""
        root: list[int] = []
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            root.append(i if parent < 0 else root[parent])
        return root

    def summary(self, root_name: str) -> dict:
        """Aggregate spans under roots named ``root_name``.

        Returns ``{"by_name": {name: [count, self_s, total_s]},
        "by_layer": {layer: self_s}, "wall": summed root duration}``;
        the roots' own self time is filed under layer ``None``.
        """
        spans = self.spans
        selfs = self.self_times()
        roots = self.roots()
        by_name: dict = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer: dict = defaultdict(float)
        wall = 0.0
        for i, span in enumerate(spans):
            if spans[roots[i]][NAME] != root_name:
                continue
            if roots[i] == i:
                wall += span[END] - span[START]
                by_layer[None] += selfs[i]
                continue
            entry = by_name[span[NAME]]
            entry[0] += 1
            entry[1] += selfs[i]
            entry[2] += span[END] - span[START]
            by_layer[span[LAYER]] += selfs[i]
        return {"by_name": dict(by_name), "by_layer": dict(by_layer), "wall": wall}


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not counted
    twice and a grandchild is charged only to its own parent."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class QueueProbe:
    """Master-side bookkeeping of the ``multiprocessing`` task/result
    queues: task put times by task id, reply round trips, task count."""

    def __init__(self) -> None:
        self.sent: dict = {}
        self.round_trips: list[float] = []
        self.tasks = 0


def _trace_queues(tracer: Tracer, probe: QueueProbe) -> None:
    """Time the master's puts (dispatch) and gets (result wait)."""
    from multiprocessing import queues

    put, get = queues.Queue.put, queues.Queue.get

    def traced_put(q, obj, *args, **kwargs):
        if os.getpid() != tracer.pid:
            return put(q, obj, *args, **kwargs)
        name = "parallel.shutdown" if obj is None else "parallel.dispatch"
        span = tracer.begin(name, "parallel")
        try:
            return put(q, obj, *args, **kwargs)
        finally:
            tracer.end(span)
            if obj is not None:
                probe.sent[obj[0]] = span[START]
                probe.tasks += 1

    def traced_get(q, *args, **kwargs):
        if os.getpid() != tracer.pid:
            return get(q, *args, **kwargs)
        span = tracer.begin("parallel.result_wait", "parallel")
        try:
            reply = get(q, *args, **kwargs)
        finally:
            tracer.end(span)
        sent = probe.sent.pop(reply[2], None)
        if sent is not None:
            probe.round_trips.append(span[END] - sent)
        return reply

    tracer.patch(queues.Queue, "put", traced_put)
    tracer.patch(queues.Queue, "get", traced_get)


def _trace_workers(tracer: Tracer, tf_dir: str) -> None:
    """Have each forked worker time its task get -> result put (the
    measured TF) and write the samples to ``tf_dir`` when it exits."""
    from repro.parallel import processes

    original = processes._worker_main

    def traced_worker_main(problem, tasks, results, wid, generation=0):
        started: list[float] = []
        samples: list[float] = []
        get, put = tasks.get, results.put

        def timed_get(*args, **kwargs):
            item = get(*args, **kwargs)
            started.append(time.perf_counter())
            return item

        def timed_put(obj, *args, **kwargs):
            samples.append(time.perf_counter() - started[-1])
            return put(obj, *args, **kwargs)

        tasks.get, results.put = timed_get, timed_put
        try:
            original(problem, tasks, results, wid, generation)
        finally:
            path = os.path.join(tf_dir, f"tf-{os.getpid()}.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(repr(s) for s in samples))

    tracer.patch(processes, "_worker_main", traced_worker_main)


def instrument(tracer: Tracer, tf_dir: str) -> QueueProbe:
    """Wrap every traced public function of the layers."""
    from repro.core import borg, checkpoint
    from repro.core.archive import EpsilonBoxArchive
    from repro.core.population import Population
    from repro.parallel import runner, service
    from repro.problems.base import Problem
    from repro.problems.delays import TimedProblem
    from repro.storage import journal
    from repro.storage.journal import JournalStorage
    from repro.storage.study import Study

    for owner, attr, name, layer in (
        (borg.BorgMOEA, "run", "core.run", "core"),
        (borg.BorgEngine, "next_candidate", "core.next_candidate", "core"),
        (borg.BorgEngine, "ingest", "core.ingest", "core"),
        (Population, "tournament", "core.tournament", "core"),
        (Population, "add", "core.population_add", "core"),
        (EpsilonBoxArchive, "add", "core.archive_add", "core"),
        (checkpoint, "engine_state", "core.engine_state", "core"),
        (checkpoint, "save_checkpoint", "core.save_checkpoint", "core"),
        (service, "engine_state", "core.engine_state", "core"),
        (service, "restore_engine", "core.restore_engine", "core"),
        (Problem, "evaluate", "problems.evaluate", "problems"),
        (Problem, "evaluate_solutions", "problems.evaluate_solutions", "problems"),
        (Problem, "evaluate_batch", "problems.evaluate_batch", "problems"),
        (TimedProblem, "evaluate", "tf.delay", "tf"),
        (TimedProblem, "evaluate_batch", "tf.delay", "tf"),
        (runner, "run_process_master_slave", "parallel.master_loop", "parallel"),
        (service.StorageBackedRunner, "step", "parallel.service_step", "parallel"),
        (Study, "load", "storage.load", "storage"),
        (Study, "refresh", "storage.refresh", "storage"),
        (Study, "enqueue_many", "storage.enqueue", "storage"),
        (Study, "claim_many", "storage.claim", "storage"),
        (Study, "tell_many", "storage.tell", "storage"),
        (Study, "save_snapshot", "storage.snapshot", "storage"),
        (Study, "acquire_lease", "storage.lease", "storage"),
        (Study, "release_lease", "storage.lease", "storage"),
        (Study, "reclaim_stale", "storage.reclaim", "storage"),
        (Study, "finish", "storage.finish", "storage"),
        (JournalStorage, "append", "storage.append", "storage"),
        (JournalStorage, "read", "storage.read", "storage"),
        (journal, "scan_all", "storage.decode", "storage"),
        # fsync belongs to whichever layer asked for it (the journal,
        # or core.checkpoint's atomic write).
        (os, "fsync", "fsync", None),
    ):
        tracer.trace(owner, attr, name, layer)
    probe = QueueProbe()
    _trace_queues(tracer, probe)
    _trace_workers(tracer, tf_dir)
    return probe
