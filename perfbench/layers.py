"""Per-layer numbers of one traced solve (see WORKLOADS.md for the
layer -> metric -> end-to-end map)."""

from __future__ import annotations

import glob
import os

import numpy as np

from tracing import END, LAYERS, NAME, START


def _durations(tracer, name: str) -> np.ndarray:
    return np.array(
        [s[END] - s[START] for s in tracer.spans if s[NAME] == name]
    )


def _worker_tf(tf_dir: str) -> np.ndarray:
    samples = []
    for path in glob.glob(os.path.join(tf_dir, "tf-*.txt")):
        with open(path) as fh:
            samples.extend(float(line) for line in fh if line.strip())
    return np.array(samples)


def model_metrics(tracer, tf_dir: str, nfe: int, elapsed: float, seed: int) -> dict:
    """Eq. 2/3 as an instrument: fit measured TF/TC/TA, predict T_P.

    TF is the worker's task get -> result put; TC one master put of a
    task (the reply message is the same size); TA the master's
    ``ingest`` plus ``next_candidate`` per evaluation.
    """
    from repro.models.analytical import processor_upper_bound
    from repro.models.simmodel import predict_async_time
    from repro.stats import calibrate_timing

    tf = _worker_tf(tf_dir)
    tc = _durations(tracer, "parallel.dispatch")
    nc = _durations(tracer, "core.next_candidate")
    ing = _durations(tracer, "core.ingest")
    n = min(len(nc), len(ing))
    ta = nc[:n] + ing[:n]
    fitted = calibrate_timing(tf, ta, tc)
    predicted = predict_async_time(3, nfe, fitted, seed=seed)
    return {
        "model.tf_ms": fitted.mean_tf * 1e3,
        "model.tc_ms": fitted.mean_tc * 1e3,
        "model.ta_ms": fitted.mean_ta * 1e3,
        "model.tf_samples": len(tf),
        "model.p_ub": processor_upper_bound(
            fitted.mean_tf, fitted.mean_tc, fitted.mean_ta
        ),
        "model.predicted_elapsed_s": predicted,
        "model.error_frac": (predicted - elapsed) / elapsed,
    }


def layer_metrics(rep, tracer, probe, tf_dir: str) -> dict:
    facts = rep.facts
    nfe = facts["nfe"]
    solve = tracer.summary("solve")
    by_name, by_layer, wall = solve["by_name"], solve["by_layer"], solve["wall"]

    def per_call(name, scale, inclusive=False):
        count, self_s, total_s = by_name.get(name, (0, 0.0, 0.0))
        if not count:
            return 0.0
        return (total_s if inclusive else self_s) / count * scale

    def count(name):
        return by_name.get(name, (0,))[0]

    def total(name):
        return by_name.get(name, (0, 0.0, 0.0))[2]

    m = {
        "core.next_candidate_us": per_call("core.next_candidate", 1e6),
        "core.tournament_us": per_call("core.tournament", 1e6),
        "core.ingest_us": per_call("core.ingest", 1e6),
        "core.population_add_us": per_call("core.population_add", 1e6),
        "core.archive_add_us": per_call("core.archive_add", 1e6),
        "core.engine_state_ms": per_call("core.engine_state", 1e3, True),
        "core.archive_size": facts["archive_size"],
        "core.restarts": facts["restarts"],
        "problems.evaluate_us": by_layer.get("problems", 0.0) / nfe * 1e6,
        "tf.delay_ms": by_layer.get("tf", 0.0) / nfe * 1e3,
    }

    # -- parallel: master side of the multiprocessing queues -----------------
    wait = total("parallel.result_wait")
    trips = np.array(probe.round_trips) * 1e3
    queued = probe.tasks > 0
    m.update({
        "parallel.master_busy_frac": 1.0 - wait / wall if queued else 0.0,
        "parallel.result_wait_us": wait / len(trips) * 1e6 if len(trips) else 0.0,
        "parallel.dispatch_us": per_call("parallel.dispatch", 1e6),
        "parallel.round_trip_ms.p50": float(np.percentile(trips, 50)) if len(trips) else 0.0,
        "parallel.round_trip_ms.p99": float(np.percentile(trips, 99)) if len(trips) else 0.0,
        "parallel.round_trip_samples": len(trips),
        "parallel.other_share": by_name.get("parallel.master_loop", (0, 0.0))[1] / wall,
        "parallel.tasks": probe.tasks,
        "parallel.redispatches": facts["redispatches"],
    })

    # -- storage: journal appends, fsyncs, study ops, replay -----------------
    appends = count("storage.append")
    journal_bytes = facts["durable_bytes"] if rep.storage is not None else 0
    reopen = tracer.summary("reopen")["by_name"]
    load = reopen.get("storage.load", (0, 0.0, 0.0))[2]
    decode = reopen.get("storage.decode", (0, 0.0, 0.0))[2]
    m.update({
        "storage.append_us": per_call("storage.append", 1e6),
        "storage.appends_per_nfe": appends / nfe,
        "storage.bytes_per_append": journal_bytes / appends if appends else 0.0,
        "storage.fsync_us": per_call("storage.fsync", 1e6, True),
        "storage.fsyncs_per_nfe": count("storage.fsync") / nfe,
        "storage.snapshot_ms": per_call("storage.snapshot", 1e3, True),
        "storage.snapshots": count("storage.snapshot"),
        "storage.refresh_us": per_call("storage.refresh", 1e6, True),
        "storage.enqueue_us": per_call("storage.enqueue", 1e6, True),
        "storage.claim_us": per_call("storage.claim", 1e6, True),
        "storage.tell_us": per_call("storage.tell", 1e6, True),
        "storage.replay_ops_per_s": facts.get("replayed_ops", 0) / load if load else 0.0,
        "storage.replay_decode_share": decode / load if load else 0.0,
    })

    # -- shares of the solve's wall time ---------------------------------------
    for layer in LAYERS:
        m[f"{layer}.share"] = by_layer.get(layer, 0.0) / wall
    m["unattributed.share"] = by_layer.get(None, 0.0) / wall

    model = dict.fromkeys(
        ("model.tf_ms", "model.tc_ms", "model.ta_ms", "model.tf_samples",
         "model.p_ub", "model.predicted_elapsed_s", "model.error_frac"),
        0.0,
    )
    if queued:
        model = model_metrics(tracer, tf_dir, nfe, rep.wall, rep.seed)
    m.update(model)
    return m
