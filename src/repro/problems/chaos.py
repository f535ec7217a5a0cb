"""Chaos injection: a problem wrapper that misbehaves on purpose.

:class:`FaultyProblem` wraps any :class:`~repro.problems.base.Problem`
and deterministically injects the fault taxonomy of
docs/RESILIENCE.md -- hard crashes, hangs, slow evaluations, and
NaN/Inf-corrupted objectives -- at configurable per-task rates.  It is
the real-execution counterpart of the §IV-B failure *simulation*
(:func:`repro.models.faults.simulate_async_with_failures`): run it
under the supervised thread/process masters and the measured
degradation under churn can be compared against the model's
prediction (``repro chaos``).

Determinism: fault decisions are drawn from seeded
``numpy.random.Generator`` streams.  Worker backends call
:meth:`FaultyProblem.reseed_worker` at worker startup, which gives
each ``(worker id, spawn generation)`` its own child stream derived
from the wrapper's seed -- so a given seed reproduces the same fault
schedule per worker lifetime, while a respawned worker draws a fresh
stream (a task that crashed its worker is not doomed to crash every
replacement forever).  Serial/virtual backends draw from the
wrapper's own stream.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from typing import Optional

import numpy as np

from .base import Problem

__all__ = ["ChaosError", "FaultyProblem"]


class ChaosError(RuntimeError):
    """Injected evaluation failure (``crash_mode='raise'``)."""


class FaultyProblem(Problem):
    """Wrap ``inner`` with seeded crash/hang/slow/corrupt injection.

    Parameters
    ----------
    inner:
        The wrapped problem (evaluated normally when no fault fires).
    crash_rate, hang_rate, slow_rate, corrupt_rate:
        Per-evaluation-task probabilities (a batched task draws one
        fault decision for the whole block, mirroring one worker
        message).  Rates must sum to at most 1.
    crash_mode:
        ``"exit"`` hard-kills the evaluating process via ``os._exit``
        (the process backend's analogue of a segfault/OOM kill);
        ``"raise"`` raises :exc:`ChaosError` instead (use for thread,
        serial and virtual backends, where killing the process would
        take the master down too).
    hang_delay:
        Sleep duration of an injected hang (seconds).  Pick it well
        above the supervisor's ``task_timeout`` so hangs exercise the
        deadline path, and finite so stray daemon threads eventually
        unwind in tests.
    slow_delay:
        Sleep duration of an injected slow evaluation (seconds).
    seed:
        Entropy of the fault streams (also the base of every
        per-worker child stream).
    faulty_workers:
        Restrict injection to these worker ids (as reported through
        :meth:`reseed_worker`); ``None`` injects everywhere.  With a
        restriction in place, contexts that never call
        ``reseed_worker`` (serial/virtual backends, the master) are
        never injected -- handy for deterministic single-victim tests.
    """

    def __init__(
        self,
        inner: Problem,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        slow_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        crash_mode: str = "exit",
        hang_delay: float = 3600.0,
        slow_delay: float = 0.25,
        seed: Optional[int] = 0,
        faulty_workers: Optional[set[int]] = None,
    ) -> None:
        rates = (crash_rate, hang_rate, slow_rate, corrupt_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0 + 1e-12:
            raise ValueError(
                "fault rates must be nonnegative and sum to at most 1"
            )
        if crash_mode not in ("exit", "raise"):
            raise ValueError("crash_mode must be 'exit' or 'raise'")
        super().__init__(
            inner.nvars,
            inner.nobjs,
            lower=inner.lower,
            upper=inner.upper,
            nconstraints=inner.nconstraints,
            name=f"Faulty[{inner.name}]",
        )
        self.inner = inner
        self.crash_rate = crash_rate
        self.hang_rate = hang_rate
        self.slow_rate = slow_rate
        self.corrupt_rate = corrupt_rate
        self.crash_mode = crash_mode
        self.hang_delay = hang_delay
        self.slow_delay = slow_delay
        self.faulty_workers = (
            None if faulty_workers is None else set(faulty_workers)
        )
        self._entropy = seed
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        #: Per-(current process) injected-fault tally by kind.  Lives in
        #: the evaluating process: under the process backend each worker
        #: tallies its own copy; the master's copy stays zero.
        self.injected: Counter[str] = Counter()
        # Worker identity/stream registries keyed by OS thread id: the
        # thread backend reseeds per worker thread, the process backend
        # per worker process (whose worker loop is single-threaded).
        self._worker_ids: dict[int, int] = {}
        self._streams: dict[int, np.random.Generator] = {}

    # -- worker identity ----------------------------------------------------
    def reseed_worker(self, wid: int, generation: int = 0) -> None:
        """Register the calling worker and derive its fault stream.

        Called by the thread/process backends at worker startup (and
        again, with a bumped ``generation``, when a worker is
        respawned).  The stream is a pure function of
        ``(seed, wid, generation)``.
        """
        key = threading.get_ident()
        self._worker_ids[key] = wid
        self._streams[key] = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self._entropy, spawn_key=(wid, generation)
            )
        )

    def _stream(self) -> np.random.Generator:
        return self._streams.get(threading.get_ident(), self._rng)

    def _worker_id(self) -> Optional[int]:
        return self._worker_ids.get(threading.get_ident())

    def _injection_active(self) -> bool:
        if self.faulty_workers is None:
            return True
        wid = self._worker_id()
        return wid is not None and wid in self.faulty_workers

    # -- fault injection ----------------------------------------------------
    def _maybe_inject(self) -> bool:
        """Draw one fault decision; returns True when the result of the
        current task must be corrupted after evaluation."""
        if not self._injection_active():
            return False
        u = float(self._stream().random())
        edge = self.crash_rate
        if u < edge:
            self.injected["crash"] += 1
            if self.crash_mode == "exit":
                # Hard kill: no cleanup, no exception propagation -- the
                # closest local analogue of a segfault or OOM kill.
                os._exit(171)
            raise ChaosError("injected crash")
        edge += self.hang_rate
        if u < edge:
            self.injected["hang"] += 1
            time.sleep(self.hang_delay)
            return False
        edge += self.slow_rate
        if u < edge:
            self.injected["slow"] += 1
            time.sleep(self.slow_delay)
            return False
        edge += self.corrupt_rate
        if u < edge:
            self.injected["corrupt"] += 1
            return True
        return False

    @staticmethod
    def _corrupt(F: np.ndarray) -> np.ndarray:
        F = np.array(F, dtype=float, copy=True)
        F[0, 0] = np.nan
        return F

    # -- evaluation ---------------------------------------------------------
    def _evaluate_batch(self, X: np.ndarray):
        corrupt = self._maybe_inject()
        F, C = self.inner._evaluate_batch(X)
        if corrupt:
            F = self._corrupt(F)
        return F, C

    # -- delegation ---------------------------------------------------------
    def default_epsilons(self) -> np.ndarray:
        return self.inner.default_epsilons()

    def __getattr__(self, name: str):
        # Forward timing-wrapper attributes (real_delay,
        # sample_evaluation_time, ...) so FaultyProblem(TimedProblem(p))
        # still sleeps in the worker loop.  Guarded so unpickling (when
        # __dict__ is not yet populated) fails fast to AttributeError.
        if name.startswith("__") or name == "inner":
            raise AttributeError(name)
        try:
            inner = self.__dict__["inner"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(inner, name)
