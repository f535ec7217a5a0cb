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

The runtime shares its clockwork with the fastsim multi-master kernel
(:func:`repro.models.fastsim.simulate_islands_fast`) and the simkit
reference (:func:`repro.models.simmodel.simulate_islands_reference`):

* each island master is a FIFO server running the grant/completion
  recurrence ``g = max(master_free, a); c = g + hold`` over a heap of
  worker arrivals, with the same draw-order contract (initial service
  TA,TC; steady service TC,TA,TC; one TF per completion except the
  done-triggering one);
* at every global epoch ``T_k = k * migration_interval`` a migration
  exchange joins each live master's queue, holding it for out-degree TC
  draws (sends), in-degree TC draws (receives) and ``in_degree *
  migrants`` TA draws (ingests), drawn at service time in that order.
  The hold is charged even when a sender's archive happens to be empty,
  so island *timing* is a pure function of (seed, topology, budget) and
  never of archive content -- which is what makes a run's elapsed /
  busy / checkpoint times bit-identical to the kernel's on a shared
  seed;
* randomness comes from :func:`repro.models.fastsim.island_seed_streams`:
  per-island (timing, migration, engine) ``SeedSequence`` children, so
  island *i*'s trajectory is reproducible and interleaving-invariant
  for any M.

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
from heapq import heapify, heappop, heappush
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
    MIGRATION_TOPOLOGIES,
    island_seed_streams,
    migration_degrees,
    migration_links,
    resolve_migration_interval,
)
from ..stats.timing import TimingModel, TimingSampler
from .supervision import FaultStats, NoLiveWorkersError

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


class _IslandState:
    """All mutable per-island runtime state (plain data at barriers)."""

    __slots__ = (
        "index",
        "engine",
        "problem",
        "sampler",
        "migration_rng",
        "in_deg",
        "out_deg",
        "heap",
        "inflight",
        "initial_left",
        "master_free",
        "busy",
        "done",
        "elapsed",
        "checkpoints",
        "exchanges",
        "draws",
    )

    def __init__(self, index, engine, problem, sampler, migration_rng, in_deg, out_deg, workers):
        self.index = index
        self.engine = engine
        self.problem = problem
        self.sampler = sampler
        self.migration_rng = migration_rng
        self.in_deg = in_deg
        self.out_deg = out_deg
        self.heap: list[tuple[float, int]] = [(0.0, w) for w in range(workers)]
        self.inflight: dict[int, Solution] = {}
        self.initial_left = workers
        self.master_free = 0.0
        self.busy = 0.0
        self.done = False
        self.elapsed = 0.0
        self.checkpoints: list[tuple[int, float]] = []
        self.exchanges = 0
        #: Per-component draw counts [tf, tc, ta]; a resumed sampler is
        #: fast-forwarded to these positions (streams are pure functions
        #: of (seed, position)).
        self.draws = [0, 0, 0]

    # Counted draws keep the sampler resumable without serializing it.
    def tf(self) -> float:
        self.draws[0] += 1
        return self.sampler.tf()

    def tc(self) -> float:
        self.draws[1] += 1
        return self.sampler.tc()

    def ta(self) -> float:
        self.draws[2] += 1
        return self.sampler.ta()


def _serve_until(st: _IslandState, limit: float, max_nfe: int, quarter: int) -> None:
    """Serve every worker arrival strictly before ``limit`` (the next
    migration epoch), FIFO, stopping early when the island's NFE budget
    completes.  Identical clockwork to the kernel's ``_island_recurrence``
    worker branch, with the real algorithm doing the work inside each
    hold."""
    heap = st.heap
    engine = st.engine
    while not st.done and heap and heap[0][0] < limit:
        a, wid = heappop(heap)
        g = st.master_free if st.master_free > a else a
        if st.initial_left > 0:
            # Initial dispatch: master generates (TA) and sends (TC).
            hold = st.ta() + st.tc()
            st.initial_left -= 1
            c = g + hold
            st.master_free = c
            st.busy += hold
            st.inflight[wid] = engine.next_candidate()
        else:
            # Steady state: receive (TC), process (TA), send (TC).
            hold = st.tc() + st.ta() + st.tc()
            c = g + hold
            st.master_free = c
            st.busy += hold
            candidate = st.inflight[wid]
            if not candidate.evaluated:
                st.problem.evaluate(candidate)
            engine.ingest(candidate)
            if engine.nfe % quarter == 0:
                st.checkpoints.append((engine.nfe, c))
            if engine.nfe >= max_nfe:
                st.done = True
                st.elapsed = c
                return
            st.inflight[wid] = engine.next_candidate()
        # Completion: the worker draws its next TF and re-arrives.
        heappush(heap, (c + st.tf(), wid))


def _serve_or_retire(
    st: _IslandState,
    limit: float,
    max_nfe: int,
    quarter: int,
    faults: FaultStats,
    publisher=None,
) -> None:
    """Serve like :func:`_serve_until`, but degrade gracefully when the
    island's whole worker pool dies: retire the island at the clock it
    reached, drop its in-flight work, and keep its partial archive
    shard for the global merge.  The surviving islands carry on."""
    try:
        _serve_until(st, limit, max_nfe, quarter)
    except NoLiveWorkersError:
        st.done = True
        st.elapsed = st.master_free
        st.inflight.clear()
        st.heap.clear()
        faults.islands_retired += 1
        if publisher is not None:
            publisher.emit(
                "island-retired", island=st.index, nfe=st.engine.nfe
            )


def _charge_exchange(st: _IslandState, epoch_time: float, migrants: int) -> None:
    """Serve the migration-exchange request that joined ``st``'s queue
    at the epoch boundary: out-degree TC (sends), in-degree TC
    (receives), in-degree * migrants TA (ingests), in that draw order."""
    hold = 0.0
    for _ in range(st.out_deg):
        hold += st.tc()
    for _ in range(st.in_deg):
        hold += st.tc()
    for _ in range(st.in_deg * migrants):
        hold += st.ta()
    g = st.master_free if st.master_free > epoch_time else epoch_time
    st.master_free = g + hold
    st.busy += hold
    st.exchanges += 1


def _snapshot(
    states: list[_IslandState],
    global_front: EpsilonBoxArchive,
    meta: dict,
    epoch_index: int,
    next_epoch: float,
    migrations: int,
    front_history: list[tuple[int, int]],
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
                "inflight": {
                    wid: _pack_solution(s) for wid, s in st.inflight.items()
                },
                "initial_left": st.initial_left,
                "master_free": st.master_free,
                "busy": st.busy,
                "done": st.done,
                "elapsed": st.elapsed,
                "checkpoints": list(st.checkpoints),
                "exchanges": st.exchanges,
                "draws": list(st.draws),
                "migration_rng_state": st.migration_rng.bit_generator.state,
            }
            for st in states
        ],
    }


def _restore_island(
    spec: dict,
    index: int,
    problem,
    sampler: TimingSampler,
    in_deg: int,
    out_deg: int,
    workers: int,
) -> _IslandState:
    """Rebuild one island's runtime state from a checkpoint entry."""
    engine = restore_engine(problem, {"state": spec["engine"]})
    migration_rng = np.random.default_rng()
    migration_rng.bit_generator.state = spec["migration_rng_state"]
    st = _IslandState(
        index, engine, problem, sampler, migration_rng, in_deg, out_deg, workers
    )
    st.heap = [(float(t), int(w)) for t, w in spec["heap"]]
    heapify(st.heap)
    st.inflight = {
        int(w): _unpack_solution(d) for w, d in spec["inflight"].items()
    }
    st.initial_left = spec["initial_left"]
    st.master_free = spec["master_free"]
    st.busy = spec["busy"]
    st.done = spec["done"]
    st.elapsed = spec["elapsed"]
    st.checkpoints = [(int(n), float(t)) for n, t in spec["checkpoints"]]
    st.exchanges = spec["exchanges"]
    st.draws = list(spec["draws"])
    # Fast-forward the timing streams: each component's k-th draw is a
    # pure function of (seed, k), so discarding the consumed prefix
    # resumes the stream bit-identically.
    n_tf, n_tc, n_ta = st.draws
    if n_tf:
        sampler.tf_array(n_tf)
    if n_tc:
        sampler.tc_array(n_tc)
    if n_ta:
        sampler.ta_array(n_ta)
    return st


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
    tests use to stop a run mid-flight.

    ``publisher`` (a :class:`repro.telemetry.EventBus` or compatible)
    receives one ``migration`` event per completed epoch and an
    ``island-retired`` event when a shard's worker pool goes extinct.
    Timestamps are wall clock -- the virtual simulation clock rides in
    the event payload instead.
    """
    if islands < 1:
        raise ValueError("need at least one island")
    if processors_per_island < 2:
        raise ValueError("each island needs a master and a worker")
    if max_nfe_per_island < 1:
        raise ValueError("max_nfe_per_island must be >= 1")
    if migrants < 1:
        raise ValueError("migrants must be >= 1")
    if topology not in MIGRATION_TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; expected one of {MIGRATION_TOPOLOGIES}"
        )

    if isinstance(timing, TimingModel):
        timings = [timing] * islands
    else:
        timings = list(timing)
        if len(timings) != islands:
            raise ValueError(
                f"expected {islands} per-island timing models, got {len(timings)}"
            )
    interval = resolve_migration_interval(
        migration_interval, processors_per_island, max_nfe_per_island,
        timings[0],
    )

    links = migration_links(topology, islands)
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
        states = [
            _restore_island(
                spec,
                i,
                problems[i],
                samplers[i],
                int(in_deg[i]),
                int(out_deg[i]),
                workers,
            )
            for i, spec in enumerate(payload["state"]["islands"])
        ]
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
        states = [
            _IslandState(
                i,
                BorgEngine(
                    problems[i],
                    config or BorgConfig(),
                    rng=np.random.default_rng(streams[i][2]),
                ),
                problems[i],
                samplers[i],
                np.random.default_rng(streams[i][1]),
                int(in_deg[i]),
                int(out_deg[i]),
                workers,
            )
            for i in range(islands)
        ]
        epoch_index = 0
        next_epoch = interval
        migrations = 0
        front_history = []
        global_front = EpsilonBoxArchive(states[0].engine.archive.epsilons)

    epochs_this_call = 0
    completed = True
    faults = FaultStats()
    if not links:
        # Single island (or no topology links): no epochs, run to done.
        for st in states:
            if not st.done:
                _serve_or_retire(
                    st, math.inf, max_nfe_per_island, quarter, faults,
                    publisher=publisher,
                )
    else:
        while any(not st.done for st in states):
            for st in states:
                if not st.done:
                    _serve_or_retire(
                        st, next_epoch, max_nfe_per_island, quarter, faults,
                        publisher=publisher,
                    )
            if all(st.done for st in states):
                break

            # -- migration epoch T_k: content first (simultaneous
            # exchange of pre-epoch state), then the timing charge.
            outgoing: list[tuple[int, Solution]] = []
            for src, dst in links:
                sender = states[src]
                if sender.done or states[dst].done:
                    continue
                if len(sender.engine.archive) == 0:
                    continue
                for _ in range(migrants):
                    migrant = sender.engine.archive.sample(
                        sender.migration_rng
                    ).copy()
                    migrant.operator = "migration"
                    outgoing.append((dst, migrant))
            for st in states:
                if not st.done:
                    _charge_exchange(st, next_epoch, migrants)
            for dst, migrant in outgoing:
                receiver = states[dst]
                engine = receiver.engine
                # Migrants are already evaluated: inserted directly, no
                # NFE charged to the receiver's budget.
                if len(engine.population):
                    engine.population.add(migrant, receiver.migration_rng)
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
                        states,
                        global_front,
                        meta,
                        epoch_index,
                        next_epoch,
                        migrations,
                        front_history,
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
            index=st.index,
            result=st.engine.result(),
            elapsed=st.elapsed if st.done else st.master_free,
            nfe=st.engine.nfe,
            master_busy=st.busy,
            migration_services=st.exchanges,
            checkpoints=tuple(st.checkpoints),
        )
        for st in states
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
