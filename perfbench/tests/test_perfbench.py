"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

#: Small, fast versions of the three workloads (targets always reached).
TINY = {
    "serial-dtlz2": workloads.Spec(nfe=300, tf=2e-4, hv_target=0.0, hv_floor=0.0),
    "processes-tf2ms": workloads.Spec(nfe=200, tf=2e-4, hv_target=0.0, hv_floor=0.0),
    "service-journal": workloads.Spec(nfe=150, tf=2e-4, hv_target=0.0, hv_floor=0.0),
}


def tiny(name, tmp_path):
    return workloads.WORKLOADS[name](TINY[name], str(tmp_path))


@pytest.fixture
def hv():
    from repro.indicators import NormalizedHypervolume
    from repro.problems import DTLZ2

    return NormalizedHypervolume(DTLZ2(nobjs=5))


# -- self time ----------------------------------------------------------------
def test_self_time_subtracts_union_of_children_only():
    spans = [
        ["solve", None, 0.0, 10.0, -1],
        ["core.a", "core", 1.0, 3.0, 0],
        ["core.b", "core", 2.0, 4.0, 0],  # overlaps a: union is [1, 4]
        ["storage.c", "storage", 5.0, 6.0, 0],
        ["storage.d", "storage", 5.2, 5.7, 3],  # grandchild of solve
        ["core.e", "core", 9.5, 11.0, 0],  # clipped to the parent
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 0.5, 2, 2, 0.5, 0.5, 1.5])


def test_layer_shares_and_remainder_add_up_to_wall(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 7.0, 8.0, 9.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    t = Tracer()
    root = t.begin("solve", None)  # 0
    ingest = t.begin("core.ingest", "core")  # 1
    add = t.begin("core.archive_add", "core")  # 2
    t.end(add)  # 2.5
    fsync = t.begin("fsync", None)  # 4: inherits core
    t.end(fsync)  # 5
    t.end(ingest)  # 7
    snap = t.begin("storage.snapshot", "storage")  # 8
    t.end(snap)  # 9
    t.end(root)  # 10
    s = t.summary("solve")
    assert s["wall"] == 10.0
    assert s["by_name"]["core.ingest"] == [1, 6.0 - 0.5 - 1.0, 6.0]
    assert s["by_name"]["core.fsync"] == [1, 1.0, 1.0]
    assert s["by_layer"] == {None: 3.0, "core": 6.0, "storage": 1.0}
    assert sum(s["by_layer"].values()) == s["wall"]


def test_first_crossing_finds_the_first_snapshot_at_target():
    values = [0.1, 0.2, 0.5, 0.4, 0.6, 0.7, 0.8]
    assert workloads.first_crossing(values.__getitem__, 7, 0.45, stride=3) == 2
    assert workloads.first_crossing(values.__getitem__, 7, 0.75, stride=3) == 6
    assert workloads.first_crossing(values.__getitem__, 7, 0.9, stride=3) is None


# -- correctness checks behind ok_frac ----------------------------------------
def _checked(w, rep, hv):
    workloads.score(w, rep, hv, None)
    return dict(workloads.checks(w.spec, rep.facts))


def test_wrong_nfe_drives_ok_frac_below_one(tmp_path, hv):
    w = tiny("serial-dtlz2", tmp_path)
    marks = workloads.Marks()
    marks.install()
    try:
        good = workloads.run_rep(w, marks, hv, workloads.REFERENCE_SEED)
        w.nfe = w.spec.nfe - 100
        bad = workloads.run_rep(w, marks, hv, workloads.REFERENCE_SEED)
    finally:
        marks.uninstall()
    assert workloads.ok_frac(workloads.checks(w.spec, good.facts)) == 1.0
    results = workloads.checks(w.spec, bad.facts)
    assert dict(results)["nfe_exact"] is False
    assert workloads.ok_frac(results) < 1.0


@pytest.mark.parametrize("tamper", [False, True])
def test_tampered_journal_breaks_live_equals_cold(tmp_path, hv, tamper):
    w = tiny("service-journal", tmp_path)
    marks = workloads.Marks()
    marks.install()
    rep = w.prepare(workloads.REFERENCE_SEED)
    try:
        w.solve(rep)
        rep.marks = marks.take()
        if tamper:
            path = w._journal(rep)
            with open(path, "r+b") as fh:
                fh.seek(os.path.getsize(path) // 2)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0xFF]))
        w.reopen(rep)
    finally:
        w.cleanup(rep)
        marks.uninstall()
    results = _checked(w, rep, hv)
    assert results["cold_equals_live"] is (not tamper)
    assert (workloads.ok_frac(results.items()) == 1.0) is (not tamper)


# -- printed metrics ----------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TINY))
def test_printed_metrics_are_exactly_those_in_benchmark_json(tmp_path, name):
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    child = workloads.measure(tiny(name, tmp_path), run_seed=1, seconds=0, trace=True)
    assert child["ok_frac"] == 1.0, child["failed_checks"]
    for trace in (0, 1):
        values = run.report(trace, child, [1.0, 1.1], (100.0, 90.0), [0.5])
        line = json.loads(run.result_line(trace, child, values))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        printed = {k: v["unit"] for k, v in line["metrics"].items()}
        assert printed == declared[trace]


def test_unknown_metric_is_refused():
    child = {"ok_frac": 1.0, "solves": 1, "failed_solves": 0}
    with pytest.raises(run.BenchError):
        run.result_line(0, child, {"not_a_metric": 1.0})

