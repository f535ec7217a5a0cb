"""Live observability: run events, journal tailing, metrics, dashboard.

The diagnostics this repository produced as post-hoc CSVs under
``results/`` become a *product surface* here (docs/OBSERVABILITY.md):

* :mod:`repro.telemetry.events` -- the typed run-event vocabulary plus
  an in-process :class:`EventBus` that engines and runners publish to
  (behind a no-op ``None`` default, so un-observed runs pay nothing);
* :mod:`repro.telemetry.tail` -- :class:`JournalTailer`, which follows
  a durable study log (:class:`~repro.storage.JournalStorage`) from
  any sequence offset and
  folds its ops into the *same* event stream, so live runs and cold
  journals are observed through one interface;
* :mod:`repro.telemetry.metrics` -- :class:`MetricsRegistry`, reducing
  events to the numbers the paper watches (NFE throughput, hypervolume,
  epsilon-progress rate, operator probabilities, fault/lease counters,
  evaluation-latency quantiles);
* :mod:`repro.telemetry.server` -- the stdlib-only ``repro serve`` HTTP
  server (REST + Server-Sent-Events + single-file dashboard);
* :mod:`repro.telemetry.report` -- static HTML/CSV report generation.
"""

from __future__ import annotations

from .events import (
    EVENT_KINDS,
    Event,
    EventBus,
    Subscription,
)
from .metrics import MetricsRegistry
from .tail import JournalTailer
from .report import generate_report

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "JournalTailer",
    "MetricsRegistry",
    "Subscription",
    "generate_report",
]
