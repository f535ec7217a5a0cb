"""One benchmark workload in one fresh interpreter.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to sample set-up time).  The child imports ``repro``,
builds the workload's problem and storage, prints nothing until it is
done, then runs fixed-NFE solves back to back until their solve times
add up to ``--seconds``, checks every solve, and prints one JSON object.

With ``--trace 1`` the solves alternate between untraced and traced
(see ``tracing.py``), so the tracing overhead is measured on the same
host minutes as the layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

#: Snapshot resolution of ``time_to_target_s`` (NFE).
MARK_EVERY = 100
#: Coarse stride (in marks) of the first-crossing search.
COARSE = 10
#: Reopens per serial/processes solve; their median is the solve's value.
CHECKPOINT_REOPENS = 3


@dataclass(frozen=True)
class Spec:
    """Fixed size, evaluation time and quality gates of one workload."""

    nfe: int
    #: Mean evaluation time TF (seconds) a ``TimedProblem`` really
    #: sleeps per DTLZ2-5 evaluation, as in paper §V.
    tf: float
    #: Normalized hypervolume ``time_to_target_s`` waits for.
    hv_target: float
    #: Lowest acceptable final normalized hypervolume.
    hv_floor: float


# Every workload evaluates with a controlled TF: the host's single-core
# speed shifts by up to 80% between minute-long regimes (WORKLOADS.md),
# so a purely CPU-bound serial solve spread 33% (IQR/median) over ten
# runs, and 13% with TF = 1 ms.  With TF 75-85% of a solve the drift
# moves a run that much less; the master's work is the rest.
SPECS = {
    "serial-dtlz2": Spec(nfe=2_000, tf=0.002, hv_target=0.40, hv_floor=0.25),
    "processes-tf2ms": Spec(nfe=3_000, tf=0.002, hv_target=0.40, hv_floor=0.30),
    "service-journal": Spec(nfe=800, tf=0.010, hv_target=0.18, hv_floor=0.04),
}


def timed_dtlz2(spec: Spec, seed: int):
    """DTLZ2 with 5 objectives behind a real ``spec.tf`` sleep (the
    delay stream is separate from the search, so trajectories do not
    depend on it)."""
    from repro.problems import DTLZ2
    from repro.problems.delays import TimedProblem

    return TimedProblem(DTLZ2(nobjs=5), spec.tf, cv=0.1, real_delay=True, seed=seed)


# -- time-to-target probe ----------------------------------------------------
class Marks:
    """Copy of the archive every ``MARK_EVERY`` ingested evaluations,
    stamped with ``perf_counter``; wraps ``BorgEngine.ingest`` once per
    process, in traced and untraced solves alike."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, float, np.ndarray]] = []

    def install(self) -> None:
        from repro.core.borg import BorgEngine

        ingest = BorgEngine.ingest
        rows = self.rows
        clock = time.perf_counter

        def marked_ingest(engine, solution):
            ingest(engine, solution)
            if engine.nfe % MARK_EVERY == 0:
                rows.append(
                    (engine.nfe, clock(), np.array(engine.archive.objectives))
                )

        self._original = ingest
        BorgEngine.ingest = marked_ingest

    def uninstall(self) -> None:
        from repro.core.borg import BorgEngine

        BorgEngine.ingest = self._original

    def take(self) -> list:
        rows = list(self.rows)
        self.rows.clear()
        return rows


def first_crossing(value, n: int, target: float, stride: int = COARSE):
    """Index of the first of ``n`` snapshots with ``value(i) >= target``.

    Scans every ``stride``-th snapshot, then the bracket before the
    first coarse hit one by one (a dip back below the target inside an
    earlier bracket is not seen).  Returns None when none reaches it.
    """
    lo = 0
    while lo < n:
        hi = min(lo + stride, n) - 1
        if value(hi) >= target:
            for i in range(lo, hi):
                if value(i) >= target:
                    return i
            return hi
        lo = hi + 1
    return None


# -- workloads ---------------------------------------------------------------
@dataclass
class Rep:
    """One fixed-NFE solve: its inputs, timings and recorded facts."""

    workdir: str
    #: Seed of this solve (see :func:`solve_seed`).
    seed: int
    problem: object = None
    storage: object = None
    study: object = None
    marks: list = field(default_factory=list)
    start: float = 0.0
    wall: float = 0.0
    reopen_s: float = 0.0
    facts: dict = field(default_factory=dict)


#: Seed of the reference solves that every run repeats.
REFERENCE_SEED = 0


def solve_seed(run_seed: int, k: int) -> int:
    """Seed of a run's ``k``-th solve (``k`` counts from 0).

    Even solves repeat the reference seed, odd ones take fresh seeds
    derived from the run's seed.  Every solve is checked; the
    end-to-end numbers are read from the reference solves only: from
    one seed to the next the normalized hypervolume at a fixed NFE
    spreads by 6-30%, the NFE at which it first reaches a target by
    20-30%, and the cost of a solve with the archive's size, which
    would drown any change in the code.
    """
    return REFERENCE_SEED if k % 2 == 0 else run_seed * 1000 + (k + 1) // 2


class _Workload:
    #: Same seed -> bit-identical trajectory (checked on traced twins).
    deterministic = True

    def __init__(self, spec: Spec, root: str) -> None:
        self.spec = spec
        self.root = root
        #: NFE the solve runs (tests force it away from ``spec.nfe``).
        self.nfe = spec.nfe

    def prepare(self, seed: int) -> Rep:
        # Leave no garbage from the previous solve to collect inside this one.
        gc.collect()
        return Rep(
            workdir=tempfile.mkdtemp(dir=self.root),
            seed=seed,
            problem=timed_dtlz2(self.spec, seed),
        )

    def cleanup(self, rep: Rep) -> None:
        if rep.storage is not None:
            rep.storage.close()
        shutil.rmtree(rep.workdir, ignore_errors=True)

    def _timed(self, rep: Rep, fn, *args, **kwargs):
        rep.start = time.perf_counter()
        out = fn(*args, **kwargs)
        rep.wall = time.perf_counter() - rep.start
        return out


class _CheckpointReopen(_Workload):
    """Serial and processes runs write one end-of-run checkpoint
    (``core.checkpoint``); their cold reopen restores it."""

    def _ckpt(self, rep: Rep) -> str:
        return os.path.join(rep.workdir, "run.ckpt")

    def reopen(self, rep: Rep) -> None:
        from repro.core.checkpoint import restore_engine

        path = self._ckpt(rep)
        times = []
        for _ in range(CHECKPOINT_REOPENS):
            t0 = time.perf_counter()
            engine = restore_engine(rep.problem, path)
            cold = engine.result()
            times.append(time.perf_counter() - t0)
        rep.reopen_s = statistics.median(times)
        live = rep.facts["archive"]
        rep.facts["cold_equals_live"] = (
            cold.nfe == rep.facts["nfe"]
            and cold.objectives.tobytes() == live.tobytes()
        )
        rep.facts["durable_bytes"] = os.path.getsize(path)


class SerialDTLZ2(_CheckpointReopen):
    def solve(self, rep: Rep) -> None:
        from repro.parallel import optimize

        result = self._timed(
            rep, optimize, rep.problem, max_nfe=self.nfe, backend="serial",
            seed=rep.seed, checkpoint=self._ckpt(rep),
            checkpoint_interval=self.nfe,
        )
        rep.facts.update(
            nfe=result.nfe,
            evaluations=rep.problem.evaluations,
            faults=0,
            redispatches=0,
            archive=np.array(result.objectives),
            archive_size=len(result.archive),
            restarts=result.restarts,
        )


class ProcessesTF2ms(_CheckpointReopen):
    #: Asynchronous arrival order varies run to run.
    deterministic = False

    def solve(self, rep: Rep) -> None:
        from repro.parallel import optimize

        result = self._timed(
            rep, optimize, rep.problem, max_nfe=self.nfe,
            backend="processes", processors=3, seed=rep.seed,
            checkpoint=self._ckpt(rep), checkpoint_interval=self.nfe,
        )
        faults = result.faults
        rep.facts.update(
            nfe=result.nfe,
            evaluations=int(result.worker_evaluations.sum()),
            faults=faults.tasks_redispatched
            + faults.results_quarantined
            + faults.duplicate_results
            + faults.failures_detected,
            redispatches=faults.tasks_redispatched,
            archive=np.array(result.borg.objectives),
            archive_size=len(result.borg.archive),
            restarts=result.borg.restarts,
        )


class ServiceJournal(_Workload):
    """One ``StorageBackedRunner`` over a fresh fsync'ing journal, then
    a cold reopen through a new handle."""

    study_name = "bench"

    def _journal(self, rep: Rep) -> str:
        return os.path.join(rep.workdir, "study.journal")

    def prepare(self, seed: int) -> Rep:
        from repro.storage import JournalStorage, Study

        rep = super().prepare(seed)
        rep.storage = JournalStorage(self._journal(rep))
        rep.study = Study.create(
            rep.storage, self.study_name,
            meta={"problem": "dtlz2", "max_nfe": self.nfe, "seed": seed},
        )
        return rep

    def solve(self, rep: Rep) -> None:
        from repro.parallel import ServiceConfig, StorageBackedRunner

        runner = StorageBackedRunner(rep.problem, rep.study, service=ServiceConfig())
        result = self._timed(rep, runner.run, max_nfe=self.nfe)
        state = rep.study.state
        borg = result.borg
        rep.facts.update(
            nfe=state.completed if borg is None else borg.nfe,
            evaluations=result.evaluated,
            faults=state.failed
            + state.reclaims
            + state.duplicate_tells
            + result.storage_retries
            + (0 if result.finished else 1),
            redispatches=state.reclaims,
            archive=np.empty((0, 5)) if borg is None else np.array(borg.objectives),
            archive_size=0 if borg is None else len(borg.archive),
            restarts=0 if borg is None else borg.restarts,
        )

    def reopen(self, rep: Rep) -> None:
        from repro.parallel import final_front
        from repro.storage import JournalStorage, Study

        t0 = time.perf_counter()
        cold_storage = JournalStorage(self._journal(rep))
        try:
            cold = Study.load(cold_storage, self.study_name)
            front = final_front(rep.problem, cold)
            rep.reopen_s = time.perf_counter() - t0
            rep.facts["replayed_ops"] = len(cold_storage)
            rep.facts["cold_equals_live"] = (
                cold.dump_state() == rep.study.dump_state()
            )
        finally:
            cold_storage.close()
        rep.facts["cold_front"] = (
            np.empty((0, 5)) if front is None else np.array(front.objectives)
        )
        rep.facts["durable_bytes"] = os.path.getsize(self._journal(rep))


WORKLOADS = {
    "serial-dtlz2": SerialDTLZ2,
    "processes-tf2ms": ProcessesTF2ms,
    "service-journal": ServiceJournal,
}


# -- checks ------------------------------------------------------------------
def score(workload: _Workload, rep: Rep, hv, twin: Rep | None = None) -> None:
    """Fill ``rep.facts`` with the quality numbers the checks use.

    ``twin`` is an earlier solve with the same seed.  On deterministic
    workloads this solve must reproduce its archive and snapshots bit
    for bit, and then reuses its hypervolume numbers.  The time to the
    target is looked for only on the reference solves ``end_to_end``
    reads.
    """
    facts = rep.facts
    marks = rep.marks
    reported = rep.seed == REFERENCE_SEED
    if workload.deterministic and twin is not None:
        facts["same_as_twin"] = (
            facts["archive"].tobytes() == twin.facts["archive"].tobytes()
            and [m[0] for m in marks] == [m[0] for m in twin.marks]
        )
        facts["final_hv"] = twin.facts["final_hv"]
        crossing = twin.facts["crossing"]
    else:
        facts["final_hv"] = float(hv(facts["archive"]))
        cache: dict = {}

        def value(i):
            if i not in cache:
                cache[i] = float(hv(marks[i][2]))
            return cache[i]

        crossing = (
            first_crossing(value, len(marks), workload.spec.hv_target)
            if reported
            else None
        )
    facts["crossing"] = crossing
    if reported:
        facts["time_to_target_s"] = (
            None if crossing is None else marks[crossing][1] - rep.start
        )
    if "cold_front" in facts:
        front = facts["cold_front"]
        facts["front_hv_equal"] = (
            len(front) > 0 and float(hv(front)) == facts["final_hv"]
        )


def checks(spec: Spec, facts: dict) -> list[tuple[str, bool]]:
    """Named pass/fail checks of one solve (``ok_frac``'s terms)."""
    out = [
        ("nfe_exact", facts["nfe"] == spec.nfe),
        ("evaluations_add_up", facts["evaluations"] == facts["nfe"]),
        ("no_faults", facts["faults"] == 0),
        ("hv_floor", facts["final_hv"] >= spec.hv_floor),
        ("cold_equals_live", bool(facts.get("cold_equals_live"))),
    ]
    if "time_to_target_s" in facts:
        out.append(("target_reached", facts["time_to_target_s"] is not None))
    if "front_hv_equal" in facts:
        out.append(("front_hv_equal", facts["front_hv_equal"]))
    if "same_as_twin" in facts:
        out.append(("same_as_twin", facts["same_as_twin"]))
    return out


def ok_frac(results) -> float:
    results = list(results)
    return sum(ok for _, ok in results) / len(results) if results else 0.0


def end_to_end(plain: list[Rep]) -> dict:
    """Medians over a run's untraced reference solves (``setup_s`` is
    measured per process, not per solve); fresh-seed solves are checked
    but not reported."""
    ref = [r for r in plain if r.seed == REFERENCE_SEED]

    def median(values):
        return statistics.median(list(values))

    def ttt(rep):
        # An unreached target fails a check; the solve time stands in.
        t = rep.facts["time_to_target_s"]
        return rep.wall if t is None else t

    return {
        "nfe_per_s": median(r.facts["nfe"] / r.wall for r in ref),
        "peak_rss_mb": median(r.facts["peak_rss_mb"] for r in ref),
        "final_hv": median(r.facts["final_hv"] for r in ref),
        "time_to_target_s": median(ttt(r) for r in ref),
        "study_bytes_per_nfe": median(
            r.facts["durable_bytes"] / r.facts["nfe"] for r in ref
        ),
    }


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (``VmHWM``) of this process."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """``VmHWM`` of this process: its peak RSS since the last reset."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def run_rep(workload: _Workload, marks: Marks, hv, seed: int, twin=None, tracer=None) -> Rep:
    """Prepare, solve, reopen and score one solve."""
    rep = workload.prepare(seed)
    reset_peak_rss()
    try:
        for phase, step in (("solve", workload.solve), ("reopen", workload.reopen)):
            span = tracer.begin(phase, None) if tracer is not None else None
            try:
                step(rep)
            finally:
                if span is not None:
                    tracer.end(span)
            if phase == "solve":
                rep.marks = marks.take()
        rep.facts["peak_rss_mb"] = peak_rss_mb()
    finally:
        workload.cleanup(rep)
    score(workload, rep, hv, twin)
    return rep


# -- entry point -------------------------------------------------------------
def measure(workload: _Workload, run_seed: int, seconds: float, trace: bool) -> dict:
    """Solve (seeds from :func:`solve_seed`) until the untraced solves
    add up to ``seconds`` (at least two).  With ``trace`` each untraced
    solve is followed by a traced twin on the same seed.  On
    deterministic workloads every repeat of a seed must reproduce its
    first solve.  Checking and reopening come on top of ``seconds``."""
    from repro.indicators import NormalizedHypervolume
    from repro.problems import DTLZ2

    hv = NormalizedHypervolume(DTLZ2(nobjs=5))
    marks = Marks()
    marks.install()
    plain: list[Rep] = []
    traced: list[tuple] = []
    first: dict[int, Rep] = {}
    solving = 0.0
    try:
        while solving < seconds or len(plain) < 2:
            seed = solve_seed(run_seed, len(plain))
            rep = run_rep(workload, marks, hv, seed, first.get(seed))
            first.setdefault(seed, rep)
            plain.append(rep)
            solving += rep.wall
            if trace:
                import tracing

                tracer = tracing.Tracer()
                tf_dir = tempfile.mkdtemp(dir=workload.root)
                probe = tracing.instrument(tracer, tf_dir)
                try:
                    twin = run_rep(workload, marks, hv, seed, first[seed], tracer)
                finally:
                    tracer.uninstall()
                traced.append((twin, tracer, probe, tf_dir))
    finally:
        marks.uninstall()

    reps = plain + [t[0] for t in traced]
    per_rep = [checks(workload.spec, rep.facts) for rep in reps]
    results = [r for rep_checks in per_rep for r in rep_checks]
    out = {
        "solves": len(reps),
        "failed_solves": sum(not all(ok for _, ok in c) for c in per_rep),
        "failed_checks": sorted({n for n, ok in results if not ok}),
        "ok_frac": ok_frac(results),
        "e2e": end_to_end(plain),
        # CPU-bound with nothing to dilute it, so reported per layer.
        "reopen_s": statistics.median(
            r.reopen_s for r in plain if r.seed == REFERENCE_SEED
        ),
        "min_final_hv": min(r.facts["final_hv"] for r in reps),
    }
    if trace:
        from layers import layer_metrics

        rows = [layer_metrics(*t) for t in traced if t[0].seed == REFERENCE_SEED]
        out["layers"] = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        out["tracing_overhead"] = [
            1.0 - p.wall / t[0].wall for p, t in zip(plain, traced)
        ]
        for _, _, _, tf_dir in traced:
            shutil.rmtree(tf_dir, ignore_errors=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: everything a user pays before the solve call -- imports,
    # problem construction, storage and study creation.
    import repro  # noqa: F401
    import repro.parallel  # noqa: F401

    workload = WORKLOADS[args.workload](SPECS[args.workload], args.workdir)
    rep = workload.prepare(solve_seed(args.seed, 1))
    ready = time.monotonic()
    workload.cleanup(rep)
    out = {"ready": ready}
    if not args.setup_only:
        out.update(measure(workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
