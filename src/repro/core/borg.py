"""The Borg MOEA: configuration, steady-state engine, and serial driver.

The algorithm is split into two layers so that the serial algorithm and
every parallel master share *exactly* the same logic:

* :class:`BorgEngine` -- the algorithm state machine.  It hands out
  unevaluated candidate solutions (:meth:`BorgEngine.next_candidate`)
  and ingests evaluated ones (:meth:`BorgEngine.ingest`).  It knows
  nothing about who evaluates candidates or when.
* :class:`BorgMOEA` -- the serial driver: a loop of
  ``candidate -> evaluate -> ingest`` (paper §II's four ordered steps).

The asynchronous master-slave implementation (paper's contribution)
wraps the same engine: whenever a worker is free, the master calls
``next_candidate``; whenever a result returns, it calls ``ingest``.
The algorithmic consequence of parallelism -- up to P-1 candidates
generated before their siblings' results arrive -- therefore emerges
naturally, exactly as in the C/MPI implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # circular at runtime: problems.base uses core.solution
    from ..problems.base import Problem

from .adaptation import OperatorSelector
from .archive import EpsilonBoxArchive
from .events import RunHistory
from .operators import UniformMutation, default_operators
from .operators.base import Variator
from .population import Population
from .restart import RestartController, RestartPlan
from .solution import Solution

__all__ = ["BorgConfig", "BorgEngine", "BorgMOEA", "BorgResult"]


@dataclass
class BorgConfig:
    """Tunable parameters of the Borg MOEA (defaults follow the paper's
    source studies, Hadka & Reed 2012)."""

    #: Archive resolution; ``None`` uses the problem's default epsilons.
    epsilons: Optional[Sequence[float]] = None
    initial_population_size: int = 100
    #: Target population-to-archive ratio maintained across restarts.
    gamma: float = 4.0
    #: Tournament size as a fraction of population size.
    tau: float = 0.02
    #: Smoothing constant of the operator-probability update.
    zeta: float = 1.0
    #: Evaluations between operator-probability updates.
    adaptation_interval: int = 100
    #: Evaluations between stagnation checks.
    restart_check_interval: int = 100
    #: Multiplicative slack on gamma before a ratio restart.
    injection_ratio_tolerance: float = 1.25
    min_population_size: int = 16
    #: Parents consumed by the multi-parent operators (PCX/SPX/UNDX).
    multiparent_arity: int = 10
    #: Evaluations between archive snapshots in the run history.
    snapshot_interval: int = 100

    def __post_init__(self) -> None:
        if self.initial_population_size < 2:
            raise ValueError("initial population must hold at least 2 solutions")
        if self.adaptation_interval < 1:
            raise ValueError("adaptation interval must be >= 1")


@dataclass
class BorgResult:
    """Outcome of a complete run."""

    archive: EpsilonBoxArchive
    history: RunHistory
    nfe: int
    restarts: int
    #: Final operator selection probabilities, keyed by operator name.
    operator_probabilities: dict[str, float] = field(default_factory=dict)

    @property
    def objectives(self) -> np.ndarray:
        """Final archive objective matrix."""
        return self.archive.objectives


class BorgEngine:
    """State machine of the Borg MOEA (see module docstring).

    Thread-unsafe by design: masters own their engine exclusively; the
    thread-backed master serialises access.
    """

    def __init__(
        self,
        problem: Problem,
        config: Optional[BorgConfig] = None,
        rng: Optional[np.random.Generator] = None,
        operators: Optional[Sequence[Variator]] = None,
    ) -> None:
        self.problem = problem
        self.config = config or BorgConfig()
        self.rng = rng or np.random.default_rng()

        epsilons = (
            self.config.epsilons
            if self.config.epsilons is not None
            else problem.default_epsilons()
        )
        self.archive = EpsilonBoxArchive(epsilons)
        self.population = Population()
        ops = (
            list(operators)
            if operators is not None
            else default_operators(
                problem.lower, problem.upper, self.config.multiparent_arity
            )
        )
        self.selector = OperatorSelector(ops, zeta=self.config.zeta)
        self.restarter = RestartController(
            gamma=self.config.gamma,
            tau=self.config.tau,
            check_interval=self.config.restart_check_interval,
            ratio_tolerance=self.config.injection_ratio_tolerance,
            min_population_size=self.config.min_population_size,
        )
        self._uniform_mutation = UniformMutation(problem.lower, problem.upper)

        #: Completed evaluations.
        self.nfe = 0
        #: Candidates handed out (>= nfe; the difference is in flight).
        self.issued = 0
        self.restarts = 0
        #: Unevaluated solutions awaiting dispatch (multi-offspring
        #: surplus and restart injections).
        self._pending: deque[Solution] = deque()
        #: Population size the engine is currently filling toward.
        self._fill_target = self.config.initial_population_size
        self._init_issued = 0
        self.tournament_size = self.restarter.tournament_size(
            self.config.initial_population_size
        )

        # -- observer hooks (all optional) --
        self.on_ingest: Optional[Callable[[Solution], None]] = None
        self.on_restart: Optional[Callable[[RestartPlan], None]] = None
        self.on_improvement: Optional[Callable[[Solution], None]] = None
        #: Optional telemetry publisher, duck-typed to
        #: :class:`repro.telemetry.EventBus` (``emit(kind, **data)``).
        #: ``None`` by default so an unobserved run pays one attribute
        #: test per would-be event; core never imports telemetry.
        self.publisher = None

    # -- candidate generation ------------------------------------------------
    def next_candidate(self) -> Solution:
        """Produce the next unevaluated candidate solution.

        Order of precedence: queued solutions (restart injections,
        surplus offspring) -> initial random sampling -> steady-state
        recombination.
        """
        if self._pending:
            self.issued += 1
            return self._pending.popleft()

        if self._init_issued < self.config.initial_population_size:
            self._init_issued += 1
            self.issued += 1
            return self.problem.random_solution(self.rng)

        if len(self.population) == 0 or len(self.archive) == 0:
            # A parallel master can outrun initialisation (all initial
            # candidates in flight, none ingested); keep sampling.
            self.issued += 1
            return self.problem.random_solution(self.rng)

        operator = self.selector.select(self.rng)
        parents = self._select_parents(operator)
        children = operator.evolve(parents, self.rng)
        offspring = [
            Solution(child, operator=operator.name) for child in children
        ]
        self._pending.extend(offspring[1:])
        self.issued += 1
        return offspring[0]

    def _select_parents(self, operator: Variator) -> np.ndarray:
        """Borg's parent mix: arity-1 tournament winners from the
        population plus one uniformly random archive member."""
        k = operator.arity
        if k == 1:
            return self.population.tournament(self.tournament_size, self.rng).variables[
                None, :
            ]
        rows = [
            self.population.tournament(self.tournament_size, self.rng).variables
            for _ in range(k - 1)
        ]
        rows.append(self.archive.sample(self.rng).variables)
        return np.vstack(rows)

    # -- result ingestion --------------------------------------------------------
    def ingest(self, solution: Solution) -> None:
        """Process one evaluated solution (paper §II steps 3-4):
        population update, archive update, adaptation, restart check."""
        if not solution.evaluated:
            raise ValueError("ingest requires an evaluated solution")
        self.nfe += 1

        if len(self.population) < self._fill_target:
            self.population.append(solution)
        else:
            self.population.add(solution, self.rng)

        result = self.archive.add(solution)
        if result.improvement and self.on_improvement is not None:
            self.on_improvement(solution)
        if self.publisher is not None and result.accepted:
            self.publisher.emit(
                "archive-insert",
                nfe=self.nfe,
                operator=solution.operator,
                archive_size=len(self.archive),
            )
            if result.improvement:
                self.publisher.emit(
                    "epsilon-progress",
                    nfe=self.nfe,
                    improvements=self.archive.improvements,
                    archive_size=len(self.archive),
                )

        if self.nfe % self.config.adaptation_interval == 0:
            self.selector.update(self.archive.operator_counts)
            if self.publisher is not None:
                self.publisher.emit(
                    "operator-update",
                    nfe=self.nfe,
                    probabilities=self.operator_probabilities(),
                )

        # Restarts are atomic in Borg: the stagnation/ratio check must
        # not run while a refill (initialisation or restart injection)
        # is still streaming through the evaluation pipeline.
        refill_complete = (
            not self._pending and len(self.population) >= self._fill_target
        )
        if refill_complete:
            plan = self.restarter.check(
                self.nfe,
                self.archive.improvements,
                len(self.population),
                len(self.archive),
            )
            if plan is not None:
                self._execute_restart(plan)

        if self.on_ingest is not None:
            self.on_ingest(solution)

    def _execute_restart(self, plan: RestartPlan) -> None:
        """Empty the population, refill from the archive, inject mutants."""
        self.restarts += 1
        self.population.clear()
        for member in self.archive:
            self.population.append(member)

        # Stale queued offspring refer to the pre-restart state; drop
        # them and queue the injection mutants instead.
        self._pending.clear()
        for _ in range(plan.injections):
            base = self.archive.sample(self.rng)
            mutant = self._uniform_mutation.evolve(
                base.variables[None, :], self.rng
            )[0]
            # Tagged "injection" (not "um") so restart refills don't
            # inflate uniform mutation's adaptive selection credit.
            self._pending.append(Solution(mutant, operator="injection"))

        self._fill_target = plan.new_population_size
        self.tournament_size = plan.tournament_size
        self.selector.update(self.archive.operator_counts)
        if self.on_restart is not None:
            self.on_restart(plan)
        if self.publisher is not None:
            self.publisher.emit(
                "restart",
                nfe=self.nfe,
                restarts=self.restarts,
                population_size=plan.new_population_size,
                injections=plan.injections,
                reason=plan.reason,
            )

    # -- summaries ----------------------------------------------------------------
    def operator_probabilities(self) -> dict[str, float]:
        return {
            op.name: float(p)
            for op, p in zip(self.selector.operators, self.selector.probabilities)
        }

    def result(self, history: Optional[RunHistory] = None) -> BorgResult:
        return BorgResult(
            archive=self.archive,
            history=history or RunHistory(),
            nfe=self.nfe,
            restarts=self.restarts,
            operator_probabilities=self.operator_probabilities(),
        )


class BorgMOEA:
    """Serial Borg MOEA driver (paper §III's reference algorithm).

    Example::

        from repro.core import BorgMOEA, BorgConfig
        from repro.problems import DTLZ2

        result = BorgMOEA(DTLZ2(nobjs=5), seed=42).run(max_nfe=10_000)
        pareto_front = result.objectives
    """

    def __init__(
        self,
        problem: Problem,
        config: Optional[BorgConfig] = None,
        seed: Optional[int] = None,
        operators: Optional[Sequence[Variator]] = None,
    ) -> None:
        self.problem = problem
        self.config = config or BorgConfig()
        self.engine = BorgEngine(
            problem,
            self.config,
            rng=np.random.default_rng(seed),
            operators=operators,
        )

    @classmethod
    def from_checkpoint(
        cls,
        problem: Problem,
        path,
        config: Optional[BorgConfig] = None,
        operators: Optional[Sequence[Variator]] = None,
    ) -> "BorgMOEA":
        """Rebuild a driver from a checkpoint file (see
        :mod:`repro.core.checkpoint`); :meth:`run` then continues the
        interrupted run bit-identically."""
        from .checkpoint import restore_engine

        moea = cls.__new__(cls)
        moea.problem = problem
        moea.engine = restore_engine(
            problem, path, config=config, operators=operators
        )
        moea.config = moea.engine.config
        return moea

    def step(self) -> Solution:
        """One steady-state iteration: generate, evaluate, ingest."""
        candidate = self.engine.next_candidate()
        self.problem.evaluate(candidate)
        self.engine.ingest(candidate)
        return candidate

    def run(
        self,
        max_nfe: int,
        history: Optional[RunHistory] = None,
        checkpoint=None,
        checkpoint_interval: Optional[int] = None,
    ) -> BorgResult:
        """Run until ``max_nfe`` evaluations have completed.

        ``checkpoint`` names a file to serialize full engine state to
        every ``checkpoint_interval`` evaluations (default: the
        snapshot interval) and once more at completion, enabling
        :meth:`from_checkpoint` resume.
        """
        if max_nfe < 1:
            raise ValueError("max_nfe must be >= 1")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        ckpt_every = checkpoint_interval or self.config.snapshot_interval
        last_checkpoint_nfe = self.engine.nfe
        hist = history or RunHistory(
            snapshot_interval=self.config.snapshot_interval
        )
        engine = self.engine
        # Batch the initial random population through one vectorized
        # evaluate_batch call.  During initialisation next_candidate's
        # draws do not depend on ingest state and no restart/adaptation
        # can fire before the population fills, so issuing all initial
        # candidates first is trajectory-identical to the serial
        # generate-evaluate-ingest loop.
        if engine.nfe == 0 and engine.issued == 0:
            init = [
                engine.next_candidate()
                for _ in range(
                    min(self.config.initial_population_size, max_nfe)
                )
            ]
            self.problem.evaluate_solutions(init)
            for candidate in init:
                engine.ingest(candidate)
                hist.maybe_record(
                    engine.nfe,
                    float("nan"),
                    engine.archive.objectives,
                    engine.restarts,
                )
        while engine.nfe < max_nfe:
            self.step()
            hist.maybe_record(
                engine.nfe,
                float("nan"),
                engine.archive.objectives,
                engine.restarts,
            )
            if (
                checkpoint is not None
                and engine.nfe - last_checkpoint_nfe >= ckpt_every
            ):
                self._save_checkpoint(checkpoint, max_nfe)
                last_checkpoint_nfe = engine.nfe
        if checkpoint is not None and engine.nfe > last_checkpoint_nfe:
            self._save_checkpoint(checkpoint, max_nfe)
        hist.maybe_record(
            engine.nfe,
            float("nan"),
            engine.archive.objectives,
            engine.restarts,
            force=True,
        )
        hist.total_nfe = engine.nfe
        hist.total_restarts = engine.restarts
        return engine.result(hist)

    def _save_checkpoint(self, path, max_nfe: int) -> None:
        from .checkpoint import save_checkpoint

        save_checkpoint(
            self.engine, path, meta={"backend": "serial", "max_nfe": max_nfe}
        )
