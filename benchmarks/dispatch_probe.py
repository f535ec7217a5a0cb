"""Dispatch-latency probe for the process backend, and Eq. 3 from it.

Measures how long a task takes from the master's ``submit`` to the
worker's task ``get`` returning it: the transit half of the paper's TC.
The master stamps each task just before ``_ProcessPool.submit`` (so the
stamp includes pickling and the write); the worker stamps it right after
``get`` returns, and again when it puts the reply (TF is the time
between).  All stamps are ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC``, one clock for every process.  Workers write their
stamps to a scratch directory when they exit.  TA is the master's
``next_candidate`` plus ``ingest`` time per evaluation, and the upper
bound on useful processors is Eq. 3's P_UB = TF / (2 TC + TA), with the
probe's mean latency as TC.

The default run is the ``processes-tf2ms`` shape: 2 worker processes,
DTLZ2-5 behind a real 2 ms evaluation sleep.

    PYTHONPATH=src python -m benchmarks.dispatch_probe --nfe 3000 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np

from repro.core import BorgEngine
from repro.parallel import optimize, processes
from repro.problems import DTLZ2
from repro.problems.delays import TimedProblem


def measure_dispatch_latency(
    nfe: int = 3_000, seed: int = 1, tf: float = 0.002, workers: int = 2
) -> dict:
    """Submit-to-receipt latency of one processes run, with the TF and
    TA it ran at and the resulting P_UB; times in milliseconds."""
    submitted: dict[int, float] = {}
    master_s = [0.0]
    submit, worker_main = processes._ProcessPool.submit, processes._worker_main
    next_candidate, ingest = BorgEngine.next_candidate, BorgEngine.ingest

    def stamped_submit(pool, wid, task_id, X):
        submitted[task_id] = time.perf_counter()
        submit(pool, wid, task_id, X)

    def timed(method):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return method(*args)
            finally:
                master_s[0] += time.perf_counter() - start

        return wrapper

    with tempfile.TemporaryDirectory() as stamp_dir:

        def stamped_worker_main(problem, tasks, results, wid, generation=0):
            received, evaluated = [], []
            get, put = tasks.get, results.put

            def stamped_get(*args, **kwargs):
                item = get(*args, **kwargs)
                if item is not None:
                    received.append((item[0], time.perf_counter()))
                return item

            def stamped_put(obj, *args, **kwargs):
                evaluated.append(time.perf_counter() - received[-1][1])
                return put(obj, *args, **kwargs)

            tasks.get, results.put = stamped_get, stamped_put
            try:
                worker_main(problem, tasks, results, wid, generation)
            finally:
                path = os.path.join(stamp_dir, f"stamps-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump([received, evaluated], fh)

        processes._ProcessPool.submit = stamped_submit
        processes._worker_main = stamped_worker_main
        BorgEngine.next_candidate = timed(next_candidate)
        BorgEngine.ingest = timed(ingest)
        try:
            problem = TimedProblem(
                DTLZ2(nobjs=5), tf, cv=0.1, real_delay=True, seed=seed
            )
            result = optimize(
                problem, max_nfe=nfe, backend="processes",
                processors=workers + 1, seed=seed,
            )
        finally:
            processes._ProcessPool.submit = submit
            processes._worker_main = worker_main
            BorgEngine.next_candidate, BorgEngine.ingest = next_candidate, ingest
        received, evaluated = [], []
        for name in os.listdir(stamp_dir):
            with open(os.path.join(stamp_dir, name)) as fh:
                got, took = json.load(fh)
            received.extend(got)
            evaluated.extend(took)

    latency_ms = np.array(
        [(t - submitted[task]) * 1e3 for task, t in received if task in submitted]
    )
    tc_ms, tf_ms = float(latency_ms.mean()), float(np.mean(evaluated)) * 1e3
    ta_ms = master_s[0] / result.nfe * 1e3
    return {
        "nfe": result.nfe,
        "workers": workers,
        "samples": int(latency_ms.size),
        "mean_ms": tc_ms,
        "p90_ms": float(np.percentile(latency_ms, 90)),
        "tf_ms": tf_ms,
        "ta_ms": ta_ms,
        "p_ub": tf_ms / (2 * tc_ms + ta_ms),
        "elapsed_s": result.elapsed,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nfe", type=int, default=3_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tf", type=float, default=0.002)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    print(json.dumps(
        measure_dispatch_latency(args.nfe, args.seed, args.tf, args.workers),
        indent=2,
    ))


if __name__ == "__main__":
    main()
