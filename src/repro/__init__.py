"""repro: reproduction of Hadka, Madduri & Reed (IPDPSW 2013),
"Scalability Analysis of the Asynchronous, Master-Slave Borg
Multiobjective Evolutionary Algorithm".

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.core` -- the Borg MOEA itself;
* :mod:`repro.problems` -- DTLZ / CEC-2009 / ZDT test suites plus the
  timed-evaluation wrapper;
* :mod:`repro.indicators` -- hypervolume and friends;
* :mod:`repro.stats` -- distribution fitting, the calibrated Ranger
  timing models and running monitors;
* :mod:`repro.cluster` -- virtual machine/network/timeline substrate;
* :mod:`repro.parallel` -- asynchronous and synchronous master-slave
  runners (virtual clock, threads, processes, MPI) and topologies;
* :mod:`repro.models` -- analytical (Eqs. 1-4), Cantu-Paz (Eq. 6) and
  simulation (§IV-B) performance models; the simulation model runs on
  one FIFO-master recurrence (its SimPy-style discrete-event
  specification is a test oracle in ``tests/reference``);
* :mod:`repro.experiments` -- regenerators for every table and figure.

Quickstart::

    from repro import BorgMOEA
    from repro.problems import DTLZ2

    result = BorgMOEA(DTLZ2(nobjs=5), seed=42).run(max_nfe=10_000)
    print(result.objectives)
"""

from .core import BorgConfig, BorgEngine, BorgMOEA, BorgResult
from .parallel import optimize

__version__ = "1.0.0"

__all__ = [
    "BorgMOEA",
    "BorgEngine",
    "BorgConfig",
    "BorgResult",
    "optimize",
    "__version__",
]
