#!/usr/bin/env python3
"""A miniature of the paper's scalability study, end to end.

For one (problem, TF) operating point, sweeps the processor count on
the virtual TACC-Ranger cluster and reports, per P:

* experimental elapsed time (real Borg on the virtual clock),
* the analytical model's prediction (Eq. 2) and its error,
* the simulation model's prediction (§IV-B) and its error,
* efficiency, master utilisation, and queueing -- showing exactly where
  and why the analytical model breaks (master contention).

The ``queue`` column is ``master_max_queue``: the peak over the whole
run, which includes the t=0 dispatch burst (P-2 when every worker
starts at once), so read contention from ``util``, not from it.

    python examples/scalability_study.py [--tf 0.01] [--nfe 5000]
"""

import argparse

import numpy as np

from repro.core import BorgConfig
from repro.models import AnalyticalModel, QueueingModel, serial_time, simulate_async
from repro.models.analytical import processor_upper_bound
from repro.parallel import run_async_master_slave
from repro.problems import DTLZ2
from repro.stats import ranger_timing
from repro.cluster import ranger


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tf", type=float, default=0.01,
                        help="mean evaluation delay in seconds")
    parser.add_argument("--nfe", type=int, default=5_000)
    parser.add_argument("--seed", type=int, default=20130520)
    args = parser.parse_args()

    machine = ranger()
    print(f"Virtual cluster: {machine}")
    print(f"Workload: 5-objective DTLZ2, TF = {args.tf:g}s (CV 0.1), "
          f"N = {args.nfe}\n")

    header = (
        f"{'P':>5} | {'T_exp':>8} | {'T_eq2':>8} {'err':>5} | "
        f"{'T_mva':>8} {'err':>5} | {'T_sim':>8} {'err':>5} | "
        f"{'eff':>5} | {'util':>5} | {'queue':>5}"
    )
    print(header)
    print("-" * len(header))

    for p in (16, 32, 64, 128, 256, 512, 1024):
        timing = ranger_timing("DTLZ2", p, args.tf)
        experiment = run_async_master_slave(
            DTLZ2(nobjs=5), p, args.nfe, timing,
            config=BorgConfig(initial_population_size=100),
            seed=args.seed, machine=machine,
        )
        analytical = AnalyticalModel.from_timing(timing)
        t_eq2 = analytical.parallel_time(args.nfe, p)
        # The machine-repairman closed form (extension): contention-
        # aware like the simulation model, O(P) arithmetic like Eq. 2.
        t_mva = QueueingModel.from_timing(timing).parallel_time(args.nfe, p)
        sim = simulate_async(p, args.nfe, timing, seed=args.seed + 1)

        ts = serial_time(args.nfe, timing.mean_tf, timing.mean_ta)
        err_a = abs(experiment.elapsed - t_eq2) / experiment.elapsed
        err_m = abs(experiment.elapsed - t_mva) / experiment.elapsed
        err_s = abs(experiment.elapsed - sim.elapsed) / experiment.elapsed
        print(
            f"{p:>5} | {experiment.elapsed:8.3f} | "
            f"{t_eq2:8.3f} {err_a:5.0%} | "
            f"{t_mva:8.3f} {err_m:5.0%} | "
            f"{sim.elapsed:8.3f} {err_s:5.0%} | "
            f"{experiment.efficiency(ts):5.2f} | "
            f"{experiment.master_utilization:5.2f} | "
            f"{experiment.master_max_queue:>5}"
        )

    timing16 = ranger_timing("DTLZ2", 128, args.tf)
    pub = processor_upper_bound(args.tf, timing16.mean_tc, timing16.mean_ta)
    print(
        f"\nAnalytical master-saturation bound (Eq. 3): "
        f"P_UB = {pub:.0f} workers."
    )
    print(
        "Note how measured efficiency peaks well below P_UB and elapsed "
        "time floors once the master saturates -- the paper's central "
        "observation (§VI)."
    )


if __name__ == "__main__":
    main()
