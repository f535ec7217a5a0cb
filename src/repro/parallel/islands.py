"""Sharded multi-master island runtime (paper §VI/§VII, past Eq. 3).

A single master saturates at Eq. 3's ``P_UB = TF / (2 TC + TA)``
workers.  This module shards the run across M concurrently-supervised
masters, each owning an epsilon-archive shard and its own worker pool,
with periodic migration of nondominated solutions over a configurable
topology (ring, fully-connected, or a hierarchical aggregator whose hub
is island 0).  The global front is merged incrementally: every migrant
passes through a live :class:`~repro.core.archive.EpsilonBoxArchive`
via the bulk-insert API, and the final merge bulk-inserts every shard's
archive into a fresh one.

Each island master is a :class:`~repro.parallel.virtual._Master`, the
same FIFO-master recurrence as the virtual-clock runners, so the
runtime shares its clockwork with the fastsim multi-master kernel
(:func:`repro.models.fastsim.simulate_islands_fast`) and the simkit
reference kept in ``tests/reference/simmodel.py``.
At every global epoch ``T_k = k * migration_interval`` a migration
exchange joins each live master's queue, holding it for out-degree TC
draws (sends), in-degree TC draws (receives) and ``in_degree *
migrants`` TA draws (ingests), drawn at service time in that order.
The hold is charged even when a sender's archive happens to be empty,
so island *timing* is a pure function of (seed, topology, budget) and
never of archive content -- which is what makes a run's elapsed / busy
/ checkpoint times bit-identical to the kernel's on a shared seed.
Randomness comes from :func:`repro.models.fastsim.island_seed_streams`:
per-island (timing, migration, engine) ``SeedSequence`` children, so
island *i*'s trajectory is reproducible and interleaving-invariant for
any M.

Migration *content* is resolved at the epoch barrier: after every live
island has served all arrivals before ``T_k``, each live sender samples
``migrants`` archive members per outgoing link with its own migration
stream, and deliveries are simultaneous (a hub therefore forwards its
pre-exchange archive -- one-epoch aggregation delay).  Finished islands
neither send nor receive; live receivers still pay the full hold.

Because every piece of state at an epoch barrier is plain data (no live
generators), the whole multi-island run can be checkpointed mid-epoch
and resumed bit-identically -- see :mod:`repro.core.checkpoint`'s
islands format.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from heapq import heapify
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..core.archive import EpsilonBoxArchive
from ..core.borg import BorgConfig, BorgEngine, BorgResult
from ..core.checkpoint import (
    CheckpointError,
    _pack_solution,
    _unpack_solution,
    engine_state,
    load_islands_checkpoint,
    restore_engine,
    save_islands_checkpoint,
)
from ..core.solution import Solution
from ..models.fastsim import (
    _island_timings,
    island_seed_streams,
    migration_degrees,
    migration_links,
    resolve_migration_interval,
)
from ..stats.timing import TimingModel, TimingSampler
from .supervision import FaultStats, NoLiveWorkersError
from .virtual import _Master

__all__ = [
    "IslandShard",
    "ShardedRunResult",
    "run_sharded_islands",
]

Seed = Union[int, np.random.SeedSequence, None]


@dataclass
class IslandShard:
    """Per-island outcome of a sharded run."""

    index: int
    result: BorgResult
    elapsed: float
    nfe: int
    master_busy: float
    migration_services: int
    checkpoints: tuple[tuple[int, float], ...]


@dataclass
class ShardedRunResult:
    """Outcome of one sharded multi-master island run."""

    #: Global makespan: the slowest island's completion time.
    elapsed: float
    total_nfe: int
    islands: int
    processors_per_island: int
    topology: str
    migration_interval: float
    migrants: int
    #: Migrant deliveries that actually happened (content-level).
    migrations: int
    #: Migration epochs completed.
    epochs: int
    #: Union of every shard archive, bulk-merged under shared epsilons.
    merged_archive: EpsilonBoxArchive
    #: Live cross-island front: every migrant bulk-inserted as it flowed.
    global_front: EpsilonBoxArchive
    #: (epoch, global front size) after each migration epoch.
    front_history: list[tuple[int, int]] = field(default_factory=list)
    shards: list[IslandShard] = field(default_factory=list)
    #: False when the run stopped early (``stop_after_epochs``).
    completed: bool = True
    #: Faults survived: ``islands_retired`` counts islands whose whole
    #: worker pool died (:exc:`~repro.parallel.supervision.NoLiveWorkersError`)
    #: and were retired with their partial shard kept in the merge.
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def processors(self) -> int:
        return self.islands * self.processors_per_island

    @property
    def merged_objectives(self) -> np.ndarray:
        return self.merged_archive.objectives


def _serve_or_retire(
    master: _Master, index: int, limit: float, max_nfe: int, quarter: int,
    faults: FaultStats, publisher=None,
) -> None:
    """Serve every arrival before ``limit`` (see
    :meth:`~repro.parallel.virtual._Master.serve_until`), but degrade
    gracefully when the island's whole worker pool dies: retire the
    island at the clock it reached, drop its in-flight work, and keep
    its partial archive shard for the global merge.  The surviving
    islands carry on."""
    try:
        master.serve_until(limit, max_nfe, quarter)
    except NoLiveWorkersError:
        master.done = True
        master.elapsed = master.master_free
        master.inflight.clear()
        master.heap.clear()
        faults.islands_retired += 1
        if publisher is not None:
            publisher.emit(
                "island-retired", island=index, nfe=master.engine.nfe
            )


#: Per-island master fields a checkpoint stores as they are.
_SCALARS = (
    "initial_left", "master_free", "busy", "done", "elapsed", "exchanges",
)


def _snapshot(
    states: list[_Master], migration_rngs: list[np.random.Generator],
    global_front: EpsilonBoxArchive, meta: dict, epoch_index: int,
    next_epoch: float, migrations: int, front_history: list[tuple[int, int]],
) -> dict:
    """Pack the full multi-island runtime state as plain data."""
    return {
        "meta": dict(meta),
        "epoch_index": epoch_index,
        "next_epoch": next_epoch,
        "migrations": migrations,
        "front_history": list(front_history),
        "global_front": {
            "epsilons": np.asarray(global_front.epsilons, dtype=float),
            "solutions": [_pack_solution(s) for s in global_front.solutions],
        },
        "islands": [
            {
                "engine": engine_state(st.engine),
                "heap": list(st.heap),
                # Islands dispatch one candidate per message.
                "inflight": {
                    wid: _pack_solution(s) for wid, (s,) in st.inflight.items()
                },
                "checkpoints": list(st.checkpoints),
                "draws": list(st.draws),
                "migration_rng_state": rng.bit_generator.state,
                **{key: getattr(st, key) for key in _SCALARS},
            }
            for st, rng in zip(states, migration_rngs)
        ],
    }


def _restore_island(
    spec: dict, problem, sampler: TimingSampler, workers: int
) -> tuple[_Master, np.random.Generator]:
    """Rebuild one island's master and migration stream from a
    checkpoint entry."""
    engine = restore_engine(problem, {"state": spec["engine"]})
    migration_rng = np.random.default_rng()
    migration_rng.bit_generator.state = spec["migration_rng_state"]
    st = _Master(engine, sampler, workers)
    st.heap = [(float(t), int(w)) for t, w in spec["heap"]]
    heapify(st.heap)
    st.inflight = {
        int(w): [_unpack_solution(d)] for w, d in spec["inflight"].items()
    }
    for key in _SCALARS:
        setattr(st, key, spec[key])
    st.checkpoints = [(int(n), float(t)) for n, t in spec["checkpoints"]]
    st.draws = list(spec["draws"])
    # Fast-forward the timing streams: each component's k-th draw is a
    # pure function of (seed, k), so discarding the consumed prefix
    # resumes the stream bit-identically.
    skips = (sampler.tf_array, sampler.tc_array, sampler.ta_array)
    for n, skip in zip(st.draws, skips):
        skip(n)
    return st, migration_rng


def run_sharded_islands(
    problem_factory: Callable[[], object],
    islands: int,
    processors_per_island: int,
    max_nfe_per_island: int,
    timing: Union[TimingModel, Sequence[TimingModel]],
    config: Optional[BorgConfig] = None,
    seed: Seed = 0,
    migration_interval: Optional[float] = None,
    topology: str = "ring",
    migrants: int = 1,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    checkpoint_every: int = 1,
    resume: Optional[Union[str, os.PathLike]] = None,
    stop_after_epochs: Optional[int] = None,
    publisher=None,
) -> ShardedRunResult:
    """Run M concurrently-supervised master-slave Borg islands on one
    virtual clock, with periodic archive migration.

    ``problem_factory()`` builds a fresh problem per island (evaluation
    counters are per-shard).  ``timing`` is one model for all islands or
    a per-island sequence.  ``checkpoint`` writes the full multi-island
    state atomically every ``checkpoint_every`` migration epochs;
    ``resume`` continues from such a file (same factory, timing, config
    and topology parameters must be supplied -- the checkpoint stores
    the run geometry and refuses a mismatch).  ``stop_after_epochs``
    halts after that many *further* migration epochs and returns a
    partial result (``completed=False``) -- the hook the checkpoint
    tests use to stop a run mid-flight.  Both act at epoch barriers, so
    a run without epochs (one island, no links, or an infinite
    ``migration_interval``) refuses them with :class:`ValueError`.

    ``publisher`` (a :class:`repro.telemetry.EventBus` or compatible)
    receives one ``migration`` event per completed epoch and an
    ``island-retired`` event when a shard's worker pool goes extinct.
    Timestamps are wall clock -- the virtual simulation clock rides in
    the event payload instead.
    """
    # Validates ``islands`` and ``topology``.
    links = migration_links(topology, islands)
    if processors_per_island < 2:
        raise ValueError("each island needs a master and a worker")
    if max_nfe_per_island < 1:
        raise ValueError("max_nfe_per_island must be >= 1")
    if migrants < 1:
        raise ValueError("migrants must be >= 1")

    timings = _island_timings(timing, islands)
    interval = resolve_migration_interval(
        migration_interval, processors_per_island, max_nfe_per_island,
        timings[0],
    )
    if (checkpoint is not None or stop_after_epochs is not None) and (
        not links or math.isinf(interval)
    ):
        raise ValueError(
            "checkpoint= and stop_after_epochs= act at migration epochs, "
            "and this run has none (one island, no topology links, or "
            "migration_interval=math.inf)"
        )

    in_deg, out_deg = migration_degrees(topology, islands)
    workers = processors_per_island - 1
    quarter = max(1, max_nfe_per_island // 4)
    streams = island_seed_streams(seed, islands)
    meta = {
        "islands": islands,
        "processors_per_island": processors_per_island,
        "max_nfe_per_island": max_nfe_per_island,
        "topology": topology,
        "migration_interval": interval,
        "migrants": migrants,
        "seed": seed if isinstance(seed, (int, type(None))) else None,
    }

    problems = [problem_factory() for _ in range(islands)]
    samplers = [
        TimingSampler(timings[i], streams[i][0]) for i in range(islands)
    ]

    if resume is not None:
        payload = load_islands_checkpoint(resume)
        saved = payload["state"]["meta"]
        geometry = {k: saved.get(k) for k in meta}
        if geometry != meta:
            raise CheckpointError(
                f"checkpoint geometry {geometry} does not match the "
                f"requested run {meta}"
            )
        states, migration_rngs = map(list, zip(*(
            _restore_island(spec, problems[i], samplers[i], workers)
            for i, spec in enumerate(payload["state"]["islands"])
        )))
        epoch_index = payload["state"]["epoch_index"]
        next_epoch = payload["state"]["next_epoch"]
        migrations = payload["state"]["migrations"]
        front_history = [
            (int(e), int(n)) for e, n in payload["state"]["front_history"]
        ]
        gf_spec = payload["state"]["global_front"]
        global_front = EpsilonBoxArchive(gf_spec["epsilons"])
        global_front.add_all(
            [_unpack_solution(d) for d in gf_spec["solutions"]]
        )
    else:
        engines = [
            BorgEngine(p, config or BorgConfig(), rng=np.random.default_rng(s[2]))
            for p, s in zip(problems, streams)
        ]
        states = [_Master(e, s, workers) for e, s in zip(engines, samplers)]
        migration_rngs = [np.random.default_rng(s[1]) for s in streams]
        epoch_index, next_epoch, migrations = 0, interval, 0
        front_history = []
        global_front = EpsilonBoxArchive(states[0].engine.archive.epsilons)

    epochs_this_call = 0
    completed = True
    faults = FaultStats()
    while True:
        # Without links there are no epochs: every island runs to done.
        limit = next_epoch if links else math.inf
        for i, st in enumerate(states):
            if not st.done:
                _serve_or_retire(
                    st, i, limit, max_nfe_per_island, quarter, faults,
                    publisher=publisher,
                )
        if all(st.done for st in states):
            break

        # -- migration epoch T_k: content first (simultaneous exchange
        # of pre-epoch state), then the timing charge.
        outgoing: list[tuple[int, Solution]] = []
        for src, dst in links:
            sender = states[src]
            if sender.done or states[dst].done:
                continue
            if len(sender.engine.archive) == 0:
                continue
            for _ in range(migrants):
                migrant = sender.engine.archive.sample(
                    migration_rngs[src]
                ).copy()
                migrant.operator = "migration"
                outgoing.append((dst, migrant))
        for i, st in enumerate(states):
            if not st.done:
                # Sends, receives (one TC per link), then one TA per
                # migrant ingested.
                st.serve_exchange(
                    next_epoch,
                    int(out_deg[i]) + int(in_deg[i]),
                    int(in_deg[i]) * migrants,
                )
        for dst, migrant in outgoing:
            engine = states[dst].engine
            # Migrants are already evaluated: inserted directly, no NFE
            # charged to the receiver's budget.
            if len(engine.population):
                engine.population.add(migrant, migration_rngs[dst])
            else:
                engine.population.append(migrant)
            engine.archive.add(migrant)
            migrations += 1
        # Incremental global-front merge: bulk-offer this epoch's
        # migrant batch to the live cross-island archive.
        global_front.add_all([m for _, m in outgoing])
        epoch_index += 1
        epochs_this_call += 1
        front_history.append((epoch_index, len(global_front)))
        if publisher is not None:
            publisher.emit(
                "migration",
                epoch=epoch_index,
                clock=next_epoch,
                delivered=len(outgoing),
                global_front=len(global_front),
            )
        next_epoch += interval

        if checkpoint is not None and epoch_index % max(1, checkpoint_every) == 0:
            save_islands_checkpoint(
                _snapshot(
                    states, migration_rngs, global_front, meta, epoch_index,
                    next_epoch, migrations, front_history,
                ),
                checkpoint,
            )
        if (
            stop_after_epochs is not None
            and epochs_this_call >= stop_after_epochs
            and any(not st.done for st in states)
        ):
            completed = False
            break

    # -- final merge: bulk-insert every shard archive into a fresh one.
    merged = EpsilonBoxArchive(states[0].engine.archive.epsilons)
    for st in states:
        merged.add_all(list(st.engine.archive))

    shards = [
        IslandShard(
            index=i,
            result=st.engine.result(),
            elapsed=st.elapsed if st.done else st.master_free,
            nfe=st.engine.nfe,
            master_busy=st.busy,
            migration_services=st.exchanges,
            checkpoints=tuple(st.checkpoints),
        )
        for i, st in enumerate(states)
    ]
    return ShardedRunResult(
        elapsed=max(s.elapsed for s in shards),
        total_nfe=sum(s.nfe for s in shards),
        islands=islands,
        processors_per_island=processors_per_island,
        topology=topology,
        migration_interval=interval,
        migrants=migrants,
        migrations=migrations,
        epochs=epoch_index,
        merged_archive=merged,
        global_front=global_front,
        front_history=front_history,
        shards=shards,
        completed=completed,
        faults=faults,
    )
