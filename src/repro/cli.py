"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``solve`` -- run the Borg MOEA on a named problem with any backend;
* ``experiment`` -- regenerate a table/figure by name;
* ``fit`` -- fit timing samples to candidate distributions (the R
  ``fitdistr`` workflow of paper §IV-B);
* ``bounds`` -- evaluate Eqs. 3-4 for a custom (TF, TC, TA) point;
* ``study`` -- durable optimization service: create a crash-safe study
  and attach worker processes (``create``/``worker``/``status``/
  ``export``);
* ``serve`` -- live observability: tail a study's journal behind a
  stdlib HTTP dashboard (REST + SSE; docs/OBSERVABILITY.md), or render
  a static HTML/CSV report with ``--report``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from repro.parallel import BACKENDS
from repro.storage import CorruptRecord

__all__ = ["main", "build_parser"]

_PROBLEMS = {
    "dtlz1": lambda: _problems().DTLZ1(nobjs=3),
    "dtlz2": lambda: _problems().DTLZ2(nobjs=5),
    "dtlz3": lambda: _problems().DTLZ3(nobjs=5),
    "dtlz4": lambda: _problems().DTLZ4(nobjs=5),
    "uf1": lambda: _problems().UF1(),
    "uf2": lambda: _problems().UF2(),
    "uf7": lambda: _problems().UF7(),
    "uf8": lambda: _problems().UF8(),
    "uf11": lambda: _problems().UF11(),
    "uf12": lambda: _problems().UF12(),
    "uf13": lambda: _problems().UF13(),
    "wfg1": lambda: _problems().WFG1(nobjs=3),
    "wfg4": lambda: _problems().WFG4(nobjs=3),
    "wfg9": lambda: _problems().WFG9(nobjs=3),
    "zdt1": lambda: _problems().ZDT1(),
    "zdt4": lambda: _problems().ZDT4(),
    "aircraft": lambda: _problems().AircraftDesign(),
    "lake": lambda: _problems().LakeProblem(),
}

_EXPERIMENTS = (
    "table2",
    "speedup",
    "efficiency_surface",
    "timelines",
    "bounds",
    "islands",
    "ablation",
    "dynamics",
)


def _problems():
    import repro.problems as mod

    return mod


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asynchronous master-slave Borg MOEA reproduction "
        "(Hadka, Madduri & Reed, IPDPSW 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the Borg MOEA on a problem")
    solve.add_argument("--problem", choices=sorted(_PROBLEMS), default="dtlz2")
    solve.add_argument("--nfe", type=int, default=10_000)
    solve.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
    )
    solve.add_argument("--processors", type=int, default=8)
    solve.add_argument("--tf", type=float, default=0.01,
                       help="mean TF for virtual backends (seconds)")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--checkpoint", type=str, default=None,
                       help="write engine checkpoints to this file "
                       "(serial/threads/processes backends)")
    solve.add_argument("--checkpoint-interval", type=int, default=None,
                       help="evaluations between checkpoints "
                       "(default: the config snapshot interval)")
    solve.add_argument("--resume", type=str, default=None,
                       help="resume a run from a checkpoint file "
                       "(--seed is ignored; RNG state comes from the file)")

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument("name", choices=_EXPERIMENTS)
    exp.add_argument("args", nargs=argparse.REMAINDER,
                     help="arguments forwarded to the experiment module")

    fit = sub.add_parser(
        "fit", help="fit timing samples (CSV/whitespace file, one value "
        "per line) to candidate distributions"
    )
    fit.add_argument("path", help="file of timing samples, or '-' for stdin")

    bounds = sub.add_parser("bounds", help="Eqs. 3-4 for custom times")
    bounds.add_argument("--tf", type=float, required=True)
    bounds.add_argument("--tc", type=float, default=6e-6)
    bounds.add_argument("--ta", type=float, required=True)
    bounds.add_argument("--batch", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="predict async/sync runtimes over the Table II grid via the "
        "parallel sweep runner (results identical for any --workers)",
    )
    sweep.add_argument(
        "--workers", type=int, default=0,
        help="process-pool size (default 0 = one per CPU; 1 = serial)",
    )
    sweep.add_argument("--seed", type=int, default=20130520)
    sweep.add_argument(
        "--quick", action="store_true",
        help="small grid (DTLZ2 only, P up to 256) for smoke tests",
    )
    sweep.add_argument("--nfe", type=int, default=100_000,
                       help="evaluation budget per operating point")
    sweep.add_argument("--csv", type=str, default=None)

    chaos = sub.add_parser(
        "chaos",
        help="fault-tolerance demo: run the process backend under "
        "injected worker crashes and compare the measured degradation "
        "against the failure-injected simulation model",
    )
    chaos.add_argument("--problem", choices=sorted(_PROBLEMS), default="dtlz2")
    chaos.add_argument("--nfe", type=int, default=1200)
    chaos.add_argument("--processors", type=int, default=4)
    chaos.add_argument("--tf", type=float, default=0.002,
                       help="mean evaluation time (seconds)")
    chaos.add_argument("--crash-rate", type=float, default=0.05,
                       help="per-evaluation worker crash probability")
    chaos.add_argument("--seed", type=int, default=20130520)

    study = sub.add_parser(
        "study",
        help="durable optimization-as-a-service: create a study in "
        "crash-safe storage and attach worker processes to co-drive it "
        "(docs/RESILIENCE.md §6)",
    )
    study_sub = study.add_subparsers(dest="study_command", required=True)

    create = study_sub.add_parser(
        "create", help="create a named study in a storage file"
    )
    create.add_argument("--storage", required=True,
                        help="journal path or memory://")
    create.add_argument("--name", default="default")
    create.add_argument("--problem", choices=sorted(_PROBLEMS),
                        default="dtlz2")
    create.add_argument("--nfe", type=int, default=10_000)
    create.add_argument("--seed", type=int, default=None)
    create.add_argument("--exist-ok", action="store_true")

    worker = study_sub.add_parser(
        "worker",
        help="attach one worker process to a study (run N of these "
        "concurrently; leader election picks the master), or with "
        "--all serve every study in the storage as a multi-tenant "
        "fleet",
    )
    worker.add_argument("--storage", required=True)
    worker.add_argument("--name", default="default")
    worker.add_argument("--all", action="store_true",
                        help="multi-tenant fleet: multiplex every study "
                        "in the storage (including ones created while "
                        "running) over this process")
    worker.add_argument("--worker-id", default=None)
    worker.add_argument("--max-seconds", type=float, default=None,
                        help="give up after this long even if unfinished")
    worker.add_argument("--lease-ttl", type=float, default=10.0,
                        help="evaluation/master lease TTL (seconds)")
    worker.add_argument("--lookahead", type=int, default=8,
                        help="max trials pending+running at once")
    worker.add_argument("--claim-batch", type=int, default=1,
                        help="trials claimed/told per compound storage "
                        "op (the batched ingest path)")
    worker.add_argument("--group-commit", action="store_true",
                        help="coalesce concurrent appends into shared "
                        "fsync barriers (journal storage only)")
    worker.add_argument("--flush-interval", type=float, default=0.0,
                        help="group-commit linger (seconds) before the "
                        "leader flushes (bounds added latency)")

    status = study_sub.add_parser(
        "status", help="inspect studies in a storage file"
    )
    status.add_argument("--storage", required=True)
    status.add_argument("--name", default=None,
                        help="study to detail (default: list all)")
    status.add_argument("--watch", action="store_true",
                        help="follow the journal live (tailer-based; "
                        "Ctrl-C or study finish to stop)")
    status.add_argument("--interval", type=float, default=1.0,
                        help="poll interval for --watch (seconds)")
    status.add_argument("--max-seconds", type=float, default=None,
                        help="stop --watch after this long (default: "
                        "until the study finishes)")

    export = study_sub.add_parser(
        "export", help="write a study's final Pareto front to CSV "
        "(and, with --json, the run's fault/lease counters)"
    )
    export.add_argument("--storage", required=True)
    export.add_argument("--name", default="default")
    export.add_argument("--csv", required=True)
    export.add_argument("--json", default=None,
                        help="also write a JSON payload: front plus "
                        "reclaims/dead-letter/duplicate-tell counters")

    traffic = sub.add_parser(
        "traffic",
        help="traffic harness: saturate the study service with "
        "realistic load and validate the queueing model "
        "(docs/PERFORMANCE.md)",
    )
    traffic.add_argument("--threads", type=int, default=8,
                         help="closed-loop workers in the tell storms")
    traffic.add_argument("--tells-per-thread", type=int, default=100)
    traffic.add_argument("--claim-batch", type=int, default=8,
                         help="tells per storage op in the batched storm")
    traffic.add_argument("--mix-users", type=int, default=8,
                         help="closed-loop users in the request-mix replay")
    traffic.add_argument("--mix-duration", type=float, default=1.5)
    traffic.add_argument("--think-mean", type=float, default=0.002,
                         help="mean exponential think time (seconds)")
    traffic.add_argument("--max-batch", type=int, default=64,
                         help="group-commit batch cap")
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--json", default=None, metavar="PATH",
                         help="write the full report as JSON")

    serve = sub.add_parser(
        "serve",
        help="HTTP dashboard over a study storage (REST + SSE + "
        "single-file UI; stdlib only -- docs/OBSERVABILITY.md)",
    )
    serve.add_argument("--storage", required=True,
                       help="journal path or memory://")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument("--poll-interval", type=float, default=0.25,
                       help="journal poll cadence for SSE streams (s)")
    serve.add_argument("--verbose", action="store_true",
                       help="log HTTP requests to stderr")
    serve.add_argument("--report", default=None, metavar="HTML",
                       help="instead of serving, write a static HTML "
                       "report to this path and exit")
    serve.add_argument("--csv", default=None,
                       help="with --report: also write a metrics CSV")
    serve.add_argument("--study", default=None,
                       help="with --report: study to report on "
                       "(default: first in storage)")
    return parser


def _cmd_solve(args) -> int:
    from repro.indicators.refsets import NormalizedHypervolume
    from repro.parallel import optimize
    from repro.stats import ranger_timing, constant_timing

    problem = _PROBLEMS[args.problem]()
    timing = None
    if args.backend.startswith("virtual"):
        try:
            timing = ranger_timing(
                problem.name, max(args.processors, 2), args.tf
            )
        except KeyError:
            timing = constant_timing(tf=args.tf, tc=6e-6, ta=30e-6)

    print(f"Solving {problem} with backend={args.backend} "
          f"(N={args.nfe}, P={args.processors})")
    result = optimize(
        problem,
        args.nfe,
        backend=args.backend,
        processors=args.processors,
        timing=timing,
        seed=args.seed,
        checkpoint=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        resume=args.resume,
    )
    borg = result if hasattr(result, "archive") else result.borg
    print(f"Archive: {len(borg.archive)} solutions, "
          f"{borg.restarts} restarts, NFE {borg.nfe}")
    if hasattr(result, "elapsed"):
        unit = "virtual s" if args.backend.startswith("virtual") else "s"
        print(f"Elapsed: {result.elapsed:.4g} {unit}")
    try:
        metric = NormalizedHypervolume(
            problem, method="monte-carlo", samples=20_000
        )
        print(f"Normalised hypervolume: {metric(borg.objectives):.3f}")
    except KeyError:
        pass  # no analytic ideal for this problem
    print("Operator probabilities:",
          {k: round(v, 3) for k, v in borg.operator_probabilities.items()})
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main(args.args)
    return 0


def _cmd_fit(args) -> int:
    from repro.stats import fit_best

    if args.path == "-":
        raw = sys.stdin.read()
    else:
        with open(args.path) as fh:
            raw = fh.read()
    data = np.array(
        [float(tok) for tok in raw.replace(",", " ").split() if tok.strip()]
    )
    print(f"{data.size} samples: mean={data.mean():.6g} "
          f"std={data.std(ddof=1):.3g} cv={data.std(ddof=1) / data.mean():.3g}")
    results = fit_best(data)
    print(f"\n{'family':>12} | {'loglik':>12} | {'AIC':>12} | parameters")
    print("-" * 60)
    for r in results:
        print(f"{r.name:>12} | {r.loglik:12.2f} | {r.aic:12.2f} | {r.distribution!r}")
    print(f"\nBest fit by log-likelihood: {results[0].name}")
    return 0


def _cmd_bounds(args) -> int:
    from repro.models import processor_lower_bound, processor_upper_bound

    pub = processor_upper_bound(args.tf, args.tc, args.ta, batch=args.batch)
    plb = processor_lower_bound(args.tf, args.tc, args.ta)
    print(f"TF={args.tf:g}s TC={args.tc:g}s TA={args.ta:g}s batch={args.batch}")
    print(f"P_UB (Eq. 3): {pub:.1f} workers before master saturation")
    print(f"P_LB (Eq. 4): more than {plb:.3f} processors to beat serial")
    return 0


def _sweep_cell(problem: str, tf: float, p: int, nfe: int, seed):
    """One sweep operating point: predicted async and sync runtimes.

    Module-level so the process pool can pickle it by reference;
    ``seed`` is the cell's own child SeedSequence (see
    :func:`repro.experiments.sweep.spawn_seeds`).
    """
    from repro.models.simmodel import predict_async_time, predict_sync_time
    from repro.stats.timing import ranger_timing

    # Rebuild the SeedSequence from its identity so the result is a pure
    # function of (entropy, spawn_key) -- independent of any spawn state
    # the object accumulated in a previous use of the same cell.
    seed = np.random.SeedSequence(
        entropy=seed.entropy, spawn_key=seed.spawn_key
    )
    timing = ranger_timing(problem, p, tf)
    t_async = predict_async_time(p, nfe, timing, seed=seed)
    t_sync = predict_sync_time(p, nfe, timing, seed=seed)
    return (problem, tf, p, t_async, t_sync)


def _cmd_sweep(args) -> int:
    import time

    from repro.experiments.reporting import format_table, write_csv
    from repro.experiments.sweep import resolve_workers, run_cells, spawn_seeds

    if args.quick:
        problems, p_grid = ("DTLZ2",), (16, 64, 256)
    else:
        problems = ("DTLZ2", "UF11")
        p_grid = (16, 32, 64, 128, 256, 512, 1024)
    tf_values = (0.001, 0.01, 0.1)

    points = [
        (problem, tf, p)
        for problem in problems
        for tf in tf_values
        for p in p_grid
    ]
    # One independent child seed per cell: results are a pure function
    # of (--seed, cell index), identical for every --workers value.
    seeds = spawn_seeds(args.seed, len(points))
    cells = [
        (problem, tf, p, args.nfe, seeds[i])
        for i, (problem, tf, p) in enumerate(points)
    ]

    workers = resolve_workers(args.workers)
    print(
        f"Prediction sweep: {len(cells)} operating points, N={args.nfe}, "
        f"{workers} worker(s)"
    )
    start = time.perf_counter()
    rows = run_cells(_sweep_cell, cells, workers=workers)
    elapsed = time.perf_counter() - start

    headers = ("Problem", "TF", "P", "AsyncTime", "SyncTime", "AsyncAdvantage")
    table = [
        (problem, tf, p, f"{ta_:.3f}", f"{ts_:.3f}", f"{ts_ / ta_:5.2f}x")
        for problem, tf, p, ta_, ts_ in rows
    ]
    print(format_table(headers, table, title="Predicted runtimes (simulation model)"))
    print(f"\nswept {len(cells)} cells in {elapsed:.2f}s "
          f"({len(cells) / elapsed:.1f} cells/s)")
    if args.csv:
        write_csv(args.csv, headers[:5], [r for r in rows])
        print(f"wrote {args.csv}")
    return 0


def _cmd_chaos(args) -> int:
    """Measured-vs-modeled fault tolerance (docs/RESILIENCE.md §5).

    Four runs share one :class:`~repro.models.ChaosSummary` schema: the
    real process backend healthy and under injected crashes, and the
    failure-injected simulation model at the matching operating point
    (worker MTBF = TF / crash_rate: a worker that crashes with
    probability ``r`` per evaluation survives ``1/r`` evaluations of
    ``TF`` seconds each on average).
    """
    from repro.experiments.reporting import format_table
    from repro.models import (
        simulate_async_with_failures,
        summarize_run,
        throughput_degradation,
    )
    from repro.parallel import SupervisorConfig, run_process_master_slave
    from repro.problems import FaultyProblem, TimedProblem
    from repro.stats import constant_timing

    if not 0.0 < args.crash_rate < 1.0:
        raise SystemExit("--crash-rate must be in (0, 1)")
    if args.tf <= 0:
        raise SystemExit("--tf must be positive")
    sup = SupervisorConfig(
        poll_interval=0.02,
        task_timeout=max(0.25, 30.0 * args.tf),
        respawn=True,
    )

    def timed(chaos: bool):
        prob = TimedProblem(
            _PROBLEMS[args.problem](), args.tf,
            real_delay=True, seed=args.seed,
        )
        if chaos:
            prob = FaultyProblem(
                prob, crash_rate=args.crash_rate, seed=args.seed
            )
        return prob

    print(f"Chaos run: {args.problem} N={args.nfe} P={args.processors} "
          f"TF={args.tf:g}s crash_rate={args.crash_rate:g}")
    healthy = run_process_master_slave(
        timed(False), args.processors, args.nfe,
        seed=args.seed, supervisor=sup,
    )
    chaotic = run_process_master_slave(
        timed(True), args.processors, args.nfe,
        seed=args.seed, supervisor=sup,
    )

    timing = constant_timing(tf=args.tf, tc=6e-6, ta=30e-6, label="chaos")
    mtbf = args.tf / args.crash_rate
    repair = 2.0 * sup.backoff_base  # respawn latency: backoff, then fork
    sim_healthy = simulate_async_with_failures(
        args.processors, args.nfe, timing, mtbf=1e12, seed=args.seed
    )
    sim_chaotic = simulate_async_with_failures(
        args.processors, args.nfe, timing,
        mtbf=mtbf, repair=repair, seed=args.seed,
    )

    rows = [
        summarize_run(healthy, "measured-healthy"),
        summarize_run(chaotic, "measured-chaos"),
        sim_healthy.summary("model-healthy"),
        sim_chaotic.summary("model-chaos"),
    ]
    headers = ("Source", "P", "NFE", "Elapsed", "Evals/s",
               "Failures", "Recoveries", "Lost/Redisp")
    table = [
        (s.source, s.processors, s.nfe, f"{s.elapsed:.3f}",
         f"{s.throughput:.1f}", s.failures, s.recoveries,
         s.lost_or_redispatched)
        for s in rows
    ]
    print(format_table(headers, table, title="Measured vs modeled degradation"))
    measured = throughput_degradation(rows[0], rows[1])
    modeled = throughput_degradation(rows[2], rows[3])
    print(f"\nThroughput degradation under chaos: "
          f"measured {measured:+.1%}, model predicts {modeled:+.1%}")
    print(f"Supervisor: failures_detected={chaotic.failures_detected} "
          f"tasks_redispatched={chaotic.tasks_redispatched} "
          f"results_quarantined={chaotic.results_quarantined} "
          f"workers_respawned={chaotic.faults.workers_respawned}")
    return 0


def _no_such_journal(spec: str) -> bool:
    """True, after saying so on stderr, when ``spec`` names a journal
    that does not exist.  Verbs that read a study check this before
    opening it, since opening a path creates the journal: only
    ``study create`` may do that."""
    if spec == "memory://" or os.path.exists(spec):
        return False
    print(f"repro: no such journal: {spec}", file=sys.stderr)
    return True


def _cmd_study(args) -> int:
    """Durable-study verbs (docs/RESILIENCE.md §6)."""
    from repro.storage import JournalStorage, Study, list_studies, open_storage

    if args.study_command != "create" and _no_such_journal(args.storage):
        return 1
    storage = open_storage(args.storage)
    try:
        if args.study_command == "create":
            meta = {
                "problem": args.problem,
                "max_nfe": args.nfe,
                "seed": args.seed,
            }
            Study.create(
                storage, args.name, meta=meta, exist_ok=args.exist_ok
            )
            print(f"study {args.name!r} in {args.storage}: "
                  f"problem={args.problem} N={args.nfe} seed={args.seed}")
            print(f"start workers with: repro study worker "
                  f"--storage {args.storage} --name {args.name}")
            return 0

        if args.study_command == "worker":
            from repro.parallel.service import (
                FleetRunner,
                ServiceConfig,
                StorageBackedRunner,
            )

            service = ServiceConfig(
                lease_ttl=args.lease_ttl,
                master_lease_ttl=args.lease_ttl,
                lookahead=args.lookahead,
                claim_batch=args.claim_batch,
            )
            if args.group_commit:
                if not isinstance(storage, JournalStorage):
                    raise SystemExit(
                        f"--group-commit applies to journal storage; "
                        f"{args.storage} is not a journal"
                    )
                storage.close()
                storage = open_storage(
                    args.storage,
                    group_commit=True,
                    flush_interval=args.flush_interval,
                )
            if args.all:
                # Multi-tenant fleet: serve every study over one
                # shared cache.
                fleet = FleetRunner(
                    storage,
                    service=service,
                    worker_id=args.worker_id,
                )
                result = fleet.run(max_seconds=args.max_seconds)
                print(f"{result.worker}: served {result.studies} "
                      f"studies, finished {result.finished}, "
                      f"evaluated {result.evaluated} trials in "
                      f"{result.elapsed:.2f}s")
                cache = result.cache
                print(f"cache: hit_rate={cache.get('hit_rate', 0):.3f} "
                      f"backend_reads={cache.get('backend_reads')} "
                      f"probes={cache.get('backend_probes')}")
                for name in sorted(result.per_study):
                    info = result.per_study[name]
                    print(f"  {name}: evaluated={info['evaluated']} "
                          f"finished={info['finished']}")
                done = result.finished >= result.studies
                return 0 if result.studies and done else 1

            study = Study.load(storage, args.name)
            problem = _PROBLEMS[study.state.meta["problem"]]()
            runner = StorageBackedRunner(
                problem, study, service=service, worker_id=args.worker_id
            )
            result = runner.run(max_seconds=args.max_seconds)
            role = "master" if result.was_master else "worker"
            print(f"{result.worker} ({role}): evaluated "
                  f"{result.evaluated} trials in {result.elapsed:.2f}s, "
                  f"storage retries {result.storage_retries}")
            print(f"study counts: {result.counts} "
                  f"finished={result.finished}")
            if result.borg is not None:
                print(f"final archive: {len(result.borg.archive)} solutions, "
                      f"NFE {result.borg.nfe}")
            return 0 if result.finished else 1

        if args.study_command == "status":
            names = [args.name] if args.name else list_studies(storage)
            if not names:
                print(f"no studies in {args.storage}")
                return 0
            if args.watch:
                return _watch_status(storage, names[0], args)
            for name in names:
                study = Study.load(storage, name)
                state = study.state
                counts = study.counts()
                snap = state.snapshot
                print(f"{name}: problem={state.meta.get('problem')} "
                      f"N={state.meta.get('max_nfe')} "
                      f"finished={state.finished}")
                print(f"  trials: {counts} duplicates={state.duplicate_tells} "
                      f"reclaims={state.reclaims}")
                print(f"  snapshot: "
                      + (f"nfe={snap['nfe']}" if snap else "none")
                      + f"  master={study.lease_holder('master')}")
            return 0

        # export
        import json

        from repro.experiments.reporting import write_csv
        from repro.parallel.service import final_front

        study = Study.load(storage, args.name)
        problem = _PROBLEMS[study.state.meta["problem"]]()
        result = final_front(problem, study)
        if result is None:
            print(f"study {args.name!r} has no snapshot yet")
            return 1
        objectives = result.objectives
        headers = [f"f{i + 1}" for i in range(objectives.shape[1])]
        write_csv(args.csv, headers, [tuple(row) for row in objectives])
        print(f"wrote {objectives.shape[0]} archive solutions "
              f"(NFE {result.nfe}) to {args.csv}")
        if args.json:
            state = study.state
            payload = {
                "study": args.name,
                "problem": state.meta.get("problem"),
                "nfe": result.nfe,
                "restarts": result.restarts,
                "finished": state.finished,
                "counts": state.counts(),
                # The run's resilience record, not just its front:
                "reclaims": state.reclaims,
                "dead_letters": state.counts()["failed"],
                "duplicate_tells": state.duplicate_tells,
                "operator_probabilities": result.operator_probabilities,
                "front": [[float(x) for x in row] for row in objectives],
            }
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
            print(f"wrote run summary (reclaims={state.reclaims} "
                  f"dead_letters={payload['dead_letters']} "
                  f"duplicate_tells={state.duplicate_tells}) "
                  f"to {args.json}")
        return 0
    finally:
        storage.close()


def _watch_status(storage, name: str, args) -> int:
    """``repro study status --watch``: follow the journal live, print a
    status line whenever new ops land (built on the telemetry tailer)."""
    import time

    from repro.telemetry import JournalTailer, MetricsRegistry

    tailer = JournalTailer(storage, study=name)
    registry = MetricsRegistry()
    deadline = (
        None if args.max_seconds is None
        else time.monotonic() + args.max_seconds
    )
    print(f"watching {name!r} in {args.storage} "
          f"(poll {args.interval:g}s; Ctrl-C to stop)")
    try:
        while True:
            events = tailer.poll()
            for event in events:
                registry.observe(event)
            if events:
                state = tailer.state(name)
                counts = state.counts()
                c = registry.counters
                print(f"[{time.strftime('%H:%M:%S')}] "
                      f"nfe={registry.nfe} "
                      f"pending={counts['pending']} "
                      f"running={counts['running']} "
                      f"completed={counts['complete']} "
                      f"failed={counts['failed']} "
                      f"archive={registry.archive_size} "
                      f"restarts={c['restarts']} "
                      f"reclaims={c['reclaims']} "
                      f"dup={c['duplicate_tells']} "
                      f"master={registry.master or '-'}",
                      flush=True)
            if tailer.state(name).finished:
                print(f"study {name!r} finished "
                      f"(nfe {registry.nfe})")
                return 0
            if deadline is not None and time.monotonic() >= deadline:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_traffic(args) -> int:
    """``repro traffic``: saturate the service, validate the model."""
    import json

    from repro.experiments.traffic import (
        TrafficConfig,
        format_report,
        run_traffic,
    )

    config = TrafficConfig(
        threads=args.threads,
        tells_per_thread=args.tells_per_thread,
        claim_batch=args.claim_batch,
        mix_users=args.mix_users,
        mix_duration=args.mix_duration,
        think_mean=args.think_mean,
        max_batch=args.max_batch,
        seed=args.seed,
    )
    report = run_traffic(config)
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0


def _cmd_serve(args) -> int:
    """``repro serve``: live dashboard or static report."""
    if _no_such_journal(args.storage):
        return 1
    if args.report is not None:
        from repro.storage import open_storage
        from repro.telemetry.report import generate_report, render_summary

        storage = open_storage(args.storage)
        try:
            snapshot = generate_report(
                storage,
                study=args.study,
                html_path=args.report,
                csv_path=args.csv,
            )
        finally:
            storage.close()
        print(render_summary(snapshot))
        print(f"wrote {args.report}"
              + (f" and {args.csv}" if args.csv else ""))
        return 0
    from repro.telemetry.server import serve

    serve(
        args.storage,
        host=args.host,
        port=args.port,
        poll_interval=args.poll_interval,
        verbose=args.verbose,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "experiment": _cmd_experiment,
        "fit": _cmd_fit,
        "bounds": _cmd_bounds,
        "sweep": _cmd_sweep,
        "chaos": _cmd_chaos,
        "study": _cmd_study,
        "traffic": _cmd_traffic,
        "serve": _cmd_serve,
    }[args.command]
    try:
        return handler(args)
    except CorruptRecord as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
