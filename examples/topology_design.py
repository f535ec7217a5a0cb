#!/usr/bin/env python3
"""Designing a parallel topology with the simulation model (§VI, §VII).

Given a processor allocation and a workload, this example:

1. uses the simulation model to size master-slave instances for peak
   efficiency (the hierarchical-topology recommendation of §VI);
2. runs a single monolithic master-slave and the recommended
   multi-master topology (independent instances, archives merged at
   the end) on the virtual cluster and compares solution quality at
   equal resource-time;
3. previews the paper's future work (§VII): an island model with
   periodic ring migration.

Both topologies run on the sharded island runtime
(``run_sharded_islands``); ``migration_interval=math.inf`` turns
migration off.

    python examples/topology_design.py [--processors 256] [--tf 0.001]
"""

import argparse
import math

from repro.core import BorgConfig
from repro.indicators import NormalizedHypervolume
from repro.parallel import (
    run_async_master_slave,
    run_sharded_islands,
    suggest_partition,
)
from repro.problems import DTLZ2
from repro.stats import ranger_timing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--processors", type=int, default=256)
    parser.add_argument("--tf", type=float, default=0.001)
    parser.add_argument("--nfe", type=int, default=6_000,
                        help="total evaluation budget across the topology")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    timing = ranger_timing("DTLZ2", min(args.processors, 1024), args.tf)
    metric = NormalizedHypervolume(
        DTLZ2(nobjs=5), method="monte-carlo", samples=30_000
    )
    config = BorgConfig(initial_population_size=100)

    print(f"Allocation: {args.processors} processors, TF = {args.tf:g}s, "
          f"budget N = {args.nfe}\n")

    # 1. Size the instances with the simulation model.
    plan = suggest_partition(args.processors, timing, nfe=args.nfe)
    print(f"Simulation-model recommendation: {plan}\n")

    # 2. Monolithic vs recommended multi-master at equal total budget.
    mono = run_async_master_slave(
        DTLZ2(nobjs=5), args.processors, args.nfe, timing,
        config=config, seed=args.seed,
    )
    print(
        f"Monolithic P={args.processors}: elapsed {mono.elapsed:8.3f}s, "
        f"archive hv {metric(mono.borg.objectives):.3f}, "
        f"master util {mono.master_utilization:.2f}"
    )

    per_instance_nfe = max(1, args.nfe // max(1, plan.instances))
    multi = run_sharded_islands(
        lambda: DTLZ2(nobjs=5), plan.instances, plan.processors_per_instance,
        per_instance_nfe, timing, config=config, seed=args.seed,
        migration_interval=math.inf,
    )
    print(
        f"Multi-master {plan.instances} x P={plan.processors_per_instance}: "
        f"elapsed {multi.elapsed:8.3f}s, "
        f"merged archive hv {metric(multi.merged_objectives):.3f}"
    )
    if multi.elapsed < mono.elapsed:
        gain = mono.elapsed / multi.elapsed
        print(f"-> topology finishes the same budget {gain:.1f}x sooner.\n")
    else:
        print("-> monolithic wins here (TF large enough to feed one master).\n")

    # 3. Island-model preview (§VII future work).
    islands = max(2, min(4, plan.instances))
    island = run_sharded_islands(
        lambda: DTLZ2(nobjs=5),
        islands=islands,
        processors_per_island=plan.processors_per_instance,
        max_nfe_per_island=max(1, args.nfe // islands),  # same total budget
        timing=timing,
        config=config,
        seed=args.seed,
        topology="ring",
    )
    print(
        f"Island model {islands} x P={plan.processors_per_instance} "
        f"with ring migration: elapsed {island.elapsed:8.3f}s, "
        f"{island.migrations} migrations, "
        f"merged hv {metric(island.merged_objectives):.3f}"
    )


if __name__ == "__main__":
    main()
