"""Whole-solve benchmark of the ``repro`` package, split into its layers.

Run from the repository root::

    python3 perfbench/run.py --workload serial-dtlz2 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; progress goes to standard error.  Workloads, metrics and
noise figures are described in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("serial-dtlz2", "processes-tf2ms", "service-journal")
#: Fresh interpreters started only to time set-up, half before and half
#: after the workload's own interpreter (which adds one more sample),
#: so the median straddles the host's drift over the run.
SETUP_SAMPLES = 2
#: Fresh interpreters timing a bare ``import repro`` (traced runs).
IMPORT_SAMPLES = 3
#: Everything a run starts must be over by then (seconds).
RUN_BUDGET = 170.0
#: Duration of one host-speed probe (seconds).
HOST_PROBE_S = 0.5


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def host_loop_per_s(duration: float = HOST_PROBE_S) -> float:
    """Iterations per second of a fixed pure-Python loop that runs no
    ``repro`` code: a reading of the host's speed right now."""

    def block():
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        return acc

    n = 0
    start = time.perf_counter()
    while True:
        block()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration:
            return n / elapsed


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run ``argv`` in a fresh interpreter; returns (spawn instant on
    the monotonic clock, last line of its standard output)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    spawned = time.monotonic()
    # A session of its own, so that a kill also reaches the worker
    # processes a processes-backend solve forked.
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} exceeded the run budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(argv)} printed nothing")
    return spawned, lines[-1]


def _setup_sample(child_argv: list[str], deadline: float) -> float:
    spawned, line = _spawn([*child_argv, "--setup-only"], deadline)
    return json.loads(line)["ready"] - spawned


def _catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def report(trace: int, child: dict, setup: list[float], host: tuple, imports: list[float]) -> dict:
    """Name -> value of every metric a run prints."""
    if not trace:
        values = {
            "setup_s": statistics.median(setup),
            **child["e2e"],
            "ok_frac": child["ok_frac"],
        }
    else:
        values = {
            **child["layers"],
            "reopen_s": child["reopen_s"],
            "setup.import_s": statistics.median(imports),
            "host.loop_per_s": statistics.mean(host),
            "host.loop_change_frac": host[1] / host[0] - 1.0,
            "tracing.overhead_frac": statistics.median(child["tracing_overhead"]),
        }
    return values


def result_line(trace: int, child: dict, values: dict) -> str:
    """The final JSON line; every metric must be declared with its unit
    in ``BENCHMARK.json`` and every declared metric must be present."""
    units = _catalogue()[trace]
    if set(values) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: "
            f"extra {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}"
        )
    return json.dumps({
        "correct": child["ok_frac"] == 1.0,
        "attempted": child["solves"],
        "failed": child["failed_solves"],
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    })


def run(workload: str, seed: int, seconds: int, trace: int) -> str:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_BUDGET
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    child_argv = [
        str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir,
    ]
    try:
        before = host_loop_per_s()
        setup = [_setup_sample(child_argv, deadline) for _ in range(SETUP_SAMPLES // 2)]
        spawned, line = _spawn(child_argv, deadline)
        child = json.loads(line)
        setup.append(child["ready"] - spawned)
        setup += [_setup_sample(child_argv, deadline) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        imports = []
        if trace:
            probe = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
            for _ in range(IMPORT_SAMPLES):
                imports.append(float(_spawn(["-c", probe], deadline)[1]))
        after = host_loop_per_s()
        print(f"setup samples {[round(s, 3) for s in setup]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is using it
    print(
        f"{workload} seed={seed}: {child['solves']} solves, ok_frac={child['ok_frac']:.3f}"
        f" failed_checks={child['failed_checks']} min_final_hv={child['min_final_hv']:.3f}"
        f" host={before:.0f}->{after:.0f} loops/s",
        file=sys.stderr,
    )
    return result_line(trace, child, report(trace, child, setup, (before, after), imports))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
