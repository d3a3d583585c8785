#!/usr/bin/env python3
"""Benchmark of the aoi_shs toolkit: theory solves and fig4-column simulations.

Usage (from the repository root):

    python3 perfbench/run.py --workload {theory,sim_light,sim_saturated} \
        --seed N --seconds S --trace {0,1}

Workloads (design and baseline in perfbench/DESIGN.md):

* ``theory``: ``sweep-fig3`` commands over seeded grids, then 2000 single
  points through ``two_sensor.average_aoi_general``. No simulation.
* ``sim_light``: the fig4 column at total arrival rate 1 and service rate 1:
  ``simulate`` of ``two_sensor`` (rate 1/2 per sensor), ``mm11`` and ``mm2p``
  at the default protocol (horizon 2e5, 10 trials). No solver.
* ``sim_saturated``: the same three commands at total arrival rate 4.

Every task runs in a fresh child process (``worker.py``), one at a time,
with BLAS/OpenMP threads pinned to 1. The run first measures set-up (import
plus input generation) in several fresh children, then repeats the
workload's set of tasks until ``--seconds`` would be exceeded. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced sets and reports per-layer metrics derived
from the traced spans, plus the tracing overhead. Every output is checked.

The host's speed moves in phases of a few seconds, so the gated timings are
in reference seconds: wall time divided by the time that 350 runs of a fixed
kernel (``reference.py``) take, measured during each command and between
blocks of single points. Wall-clock figures are printed too.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
record with provenance (nproc, Python, numpy, commit, seed) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from worker import SIM_MODELS, SWEEP_L1, SWEEP_M2  # noqa: E402

WORKLOADS = ("theory", "sim_light", "sim_saturated")

#: Fresh children that only set up, on top of the set-up every task reports.
SETUP_PROBES = 5
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(task: dict, env: dict) -> dict:
    """Run one worker task to completion and return its JSON report."""
    task = dict(task, out_dir=str(OUT_DIR))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {task['kind']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def set_tasks(workload: str, seed: int, traced: bool) -> list[dict]:
    base = {"workload": workload, "seed": seed, "traced": traced}
    if workload == "theory":
        return [dict(base, kind="theory")]
    return [dict(base, kind="simulate", model=model) for model in SIM_MODELS]


def run_sets(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    """Repeat the workload's set of tasks while the next set still fits in
    ``seconds``; with tracing, sets alternate untraced and traced."""
    modes = (False, True) if trace else (False,)
    sets = []
    start = time.perf_counter()
    while True:
        traced = modes[len(sets) % len(modes)]
        t0 = time.perf_counter()
        reports = [run_child(task, env) for task in set_tasks(workload, seed, traced)]
        sets.append({"traced": traced, "reports": reports,
                     "duration": time.perf_counter() - t0})
        elapsed = time.perf_counter() - start
        longest = max(s["duration"] for s in sets)
        if len(sets) >= len(modes) and elapsed + longest > seconds:
            return sets


# -- aggregation -----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int):
    """The ``q``-th percentile, interpolated linearly between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, sets, setup_samples):
    """End-to-end metrics from untraced sets, plus the detail lines."""
    reports = [r for s in sets if not s["traced"] for r in s["reports"] if "work_s" in r]
    if not reports:
        raise BenchError("no successful untraced task")
    peaks = [r["peak_mb"] for r in reports]
    if workload == "theory":
        rates = [x for r in reports for x in r["sweep_points_per_s"]]
        ref_rates = [x for r in reports for x in r["sweep_points_per_ref_s"]]
        point_ms = [ns / 1e6 for r in reports for ns in r["point_ns"]]
        point_ref_ms = [ns / 1e6 for r in reports for ns in r["point_ref_ns"]]
        if not rates or not point_ms:
            raise BenchError("no successful sweep or point")
        work = median(ref_rates)
        p50, p75 = median(point_ref_ms), percentile(point_ref_ms, 75)
        sweeps = f"of {len(rates)} sweep-fig3 commands of {SWEEP_L1 * SWEEP_M2} points"
        n = f"n={len(point_ms)}"
        detail = [
            ("sweep_points_per_s", median(rates), "1/s", f"median {sweeps}"),
            ("sweep_points_per_ref_s", work, "1/ref_s", f"median {sweeps}"),
            ("point_us_p50", median(point_ms) * 1e3, "us", n),
            ("point_us_p90", percentile(point_ms, 90) * 1e3, "us", n),
            ("point_us_p99", percentile(point_ms, 99) * 1e3, "us", n),
            ("point_ref_us_p50", p50 * 1e3, "ref_us", n),
            ("point_ref_us_p75", p75 * 1e3, "ref_us", n),
            ("point_ref_us_p90", percentile(point_ref_ms, 90) * 1e3, "ref_us", n),
            ("point_ref_us_p99", percentile(point_ref_ms, 99) * 1e3, "ref_us", n),
        ]
    else:
        by_set = [[r for r in s["reports"] if "work_s" in r]
                  for s in sets if not s["traced"]]
        by_set = [rs for rs in by_set if len(rs) == len(SIM_MODELS)]
        if not by_set:
            raise BenchError("no complete untraced set")

        def arrivals_per(key):
            return median([sum(r["offered_arrivals"] for r in rs) / sum(r[key] for r in rs)
                           for rs in by_set])

        command_ms = [r["work_ref_s"] * 1e3 for r in reports]
        work = arrivals_per("work_ref_s")
        p50, p75 = median(command_ms), percentile(command_ms, 75)
        detail = [("arrivals_per_s", arrivals_per("work_s"), "1/s",
                   f"median of {len(by_set)} sets"),
                  ("arrivals_per_ref_s", work, "1/ref_s", f"median of {len(by_set)} sets")]
        for key, unit in (("work_s", "s"), ("work_ref_s", "ref_s")):
            for model in SIM_MODELS:
                mine = [r for r in reports if r["model"] == model]
                name = f"{model}_s" if key == "work_s" else f"{model}_ref_s"
                detail.append((name, median([r[key] for r in mine]), unit,
                               f"median of {len(mine)}, events={mine[0]['events']}"))
        for model in SIM_MODELS:
            mine = [r["peak_mb"] for r in reports if r["model"] == model]
            detail.append((f"{model}_peak_mb", median(mine), "MB", f"median of {len(mine)}"))
    metrics = {
        "setup_s": (median(setup_samples), "s"),
        "work_per_ref_s": (work, "1/ref_s"),
        "op_ref_ms_p50": (p50, "ref_ms"),
        "op_ref_ms_p75": (p75, "ref_ms"),
        "peak_rss_mb": (median(peaks), "MB"),
        "peak_rss_mb_max": (max(peaks), "MB"),
    }
    detail.insert(0, ("setup_s", median(setup_samples), "s",
                      f"median of {len(setup_samples)} fresh processes"))
    return metrics, detail


_THEORY_LAYERS = (
    "two_sensor.average_aoi_general.self_us",
    "two_sensor.build_two_sensor_chain.self_us",
    "shs_core.build_model_us",
    "shs_core.solve_stationary_us",
    "shs_core.solve_correlation_us",
)
_SIM_LAYERS = (
    ("scan_ns_per_arrival", "ns"),
    ("integrate_ms", "ms"),
    ("bytes_per_event", "B"),
    ("events", "count"),
    ("accept_ratio", "ratio"),
    ("stale_ratio", "ratio"),
)


def set_work(one_set) -> float:
    """Seconds a set spent inside the timed calls, without process start-up."""
    return sum(r.get("work_s", 0.0) for r in one_set["reports"])


def per_layer(sets):
    """Per-layer metrics from the traced sets. A layer the workload does not
    use reports 0."""
    traced = [r for s in sets if s["traced"] for r in s["reports"] if "layers" in r]
    plain = [set_work(s) for s in sets if not s["traced"]]
    timed = [set_work(s) for s in sets if s["traced"]]
    if not traced or not plain:
        raise BenchError("no successful traced and untraced set")
    layers = [r["layers"] for r in traced]
    metrics = {"cli.self_ms": (median([x for lay in layers for x in lay["cli.self_ms"]]), "ms")}
    for name in _THEORY_LAYERS:
        metrics[name] = (median([x for lay in layers for x in lay.get(name, [])]), "us")
    points = sum(lay.get("points", 0) for lay in layers)
    solves = sum(lay.get("solves", 0) for lay in layers)
    metrics["shs_core.solves_per_point"] = (solves / points if points else 0.0, "count")
    for model in SIM_MODELS:
        mine = [dict(r["layers"], events=r["events"]) for r in traced
                if r.get("model") == model]
        for key, unit in _SIM_LAYERS:
            metrics[f"des_sim.{model}.{key}"] = (median([m[key] for m in mine]), unit)
    metrics["trace_overhead_frac"] = (median(timed) / median(plain) - 1, "ratio")
    return metrics


# -- provenance ------------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")

    if not (ROOT / "src" / "aoi_shs" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in _THREAD_VARS})
    env = child_env()
    try:
        # untimed: lets the bytecode cache fill before set-up is timed
        run_child({"kind": "probe", "workload": args.workload, "seed": args.seed}, env)
        probes = [run_child({"kind": "probe", "workload": args.workload,
                             "seed": args.seed}, env) for _ in range(SETUP_PROBES)]
        sets = run_sets(args.workload, args.seed, args.seconds, bool(args.trace), env)
        reports = [r for s in sets for r in s["reports"]]
        setup_samples = [r["setup_s"] for r in probes + reports]
        if args.trace:
            metrics, detail = per_layer(sets), []
        else:
            metrics, detail = end_to_end(args.workload, sets, setup_samples)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sets": len(sets), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": probes[0]["numpy"],
        "aoi_shs": probes[0]["aoi_shs"], "commit": git_commit(),
    }
    print("provenance " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, value, unit, note in detail:
        print(f"{name:24s} {value:14.6g} {unit:6s} {note}")
    print(f"{'fail_frac':24s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} operations")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=provenance, detail=detail)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
