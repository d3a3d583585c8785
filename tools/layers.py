#!/usr/bin/env python3
"""Per-layer timings of the theory solver: where a point's time goes.

Usage (from the repository root):

    python3 tools/layers.py [--rounds R] [--out PATH]

For the nine-state chain (``two_sensor._CHAIN``, one point per general
solve) and the five-state chain (``two_sensor._GRID_CHAIN``, the rate
grids), each at N = 1 and N = ``BATCH_BLOCK`` points log-uniform in
[0.05, 20]^4, it times per point:

* ``solve``: ``shs_core._solve``, both stages of one block inside one
  ``np.errstate``;
* ``stationary`` and ``correlation``: each stage alone;
* ``stationary.inv`` and ``correlation.solve``: the stage's LAPACK call,
  ``np.linalg.inv`` or ``np.linalg.solve``, on the stage's own systems;
* ``stationary.rest`` and ``correlation.rest``: the stage less its LAPACK
  call, taken within each round;
* ``solve.errstate``: ``solve`` less ``stationary`` and ``correlation``,
  the cost of entering and leaving the ``np.errstate``;

and, for one nine-state point, ``average_aoi_general`` and its
``average_aoi_general.wrapping``, the call less ``_solve``.

Every round runs each measurement once, in an order that rotates from round
to round, between two runs of ``perfbench/reference.py``'s kernel; the
round's timings are scaled to reference microseconds by those two runs. The
report gives each measurement's median and quartiles over the rounds. BLAS
runs one thread, as in the benchmark. The JSON document goes to ``--out``
(``BENCH_layers.json`` at the repository root by default), and a table to
standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({name: "1" for name in _THREAD_VARS})  # before numpy loads BLAS

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import numpy as np  # noqa: E402
import reference  # noqa: E402

from aoi_shs import shs_core, two_sensor  # noqa: E402

#: Calls per timed sample, by points per call: a sample takes a few ms.
LOOPS = {1: 100, shs_core.BATCH_BLOCK: 4}
RATE_RANGE = (0.05, 20.0)
SEED = 20


def _timer(call, loops: int, points: int):
    """A sample: wall µs per point of ``loops`` calls of ``call``."""
    def sample() -> float:
        t0 = perf_counter()
        for _ in range(loops):
            call()
        return (perf_counter() - t0) / loops / points * 1e6
    return sample


def measurements(chain, rates):
    """The timed calls of one chain at one block of ``rates`` (N, 4), by
    name, and the differences ``(name, whole, *parts)`` taken from them."""
    n, live = chain.num_states, len(chain.live)
    system = (rates @ chain.balance).reshape(-1, n, n)
    system[:, -1, :] = 1.0
    probs = shs_core._stationary(chain, rates, 0)[0]
    correlation = (rates @ chain.correlation).reshape(-1, live, live)
    both = np.ones((len(rates), live, 2))
    both[..., 0] = probs[:, chain.live_states] * chain.live_slopes
    loops, points = LOOPS[len(rates)], len(rates)
    calls = {
        "solve": lambda: shs_core._solve(chain, rates),
        "stationary": lambda: shs_core._stationary(chain, rates, 0),
        "stationary.inv": lambda: np.linalg.inv(system),
        "correlation": lambda: shs_core._correlation(chain, rates, probs, 0),
        "correlation.solve": lambda: np.linalg.solve(correlation, both),
    }
    differences = [("stationary.rest", "stationary", "stationary.inv"),
                   ("correlation.rest", "correlation", "correlation.solve"),
                   ("solve.errstate", "solve", "stationary", "correlation")]
    if chain is two_sensor._CHAIN and points == 1:
        params = two_sensor.TwoSensorParams(*rates[0])
        calls["average_aoi_general"] = lambda: two_sensor.average_aoi_general(params)
        differences.append(("average_aoi_general.wrapping", "average_aoi_general", "solve"))
    return {name: _timer(call, loops, points) for name, call in calls.items()}, differences


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": round(q1, 3), "p50": round(q2, 3), "p75": round(q3, 3)}


def run(rounds: int) -> dict:
    rng = np.random.default_rng(SEED)
    low, high = np.log(RATE_RANGE)
    cases = []
    for label, chain in (("nine_state", two_sensor._CHAIN),
                         ("five_state", two_sensor._GRID_CHAIN)):
        for points in LOOPS:
            rates = np.exp(rng.uniform(low, high, size=(points, 4)))
            timers, differences = measurements(chain, rates)
            cases.append((label, points, timers, differences))
    timer_of = {(label, points, name): timer for label, points, timers, _ in cases
                for name, timer in timers.items()}
    samples = {key: [] for key in timer_of}
    order = list(timer_of)
    for timer in timer_of.values():  # warm-up: caches and lazy set-up
        timer()
    scales = []
    gc.disable()
    try:
        kernel = reference.kernel_s()
        for r in range(rounds):
            start = r % len(order)
            wall = {key: timer_of[key]() for key in order[start:] + order[:start]}
            after = reference.kernel_s()
            scale = reference.ref_per_wall([kernel, after])
            kernel = after
            scales.append(scale)
            for key, us in wall.items():
                samples[key].append(us * scale)
    finally:
        gc.enable()
    chains = {}
    for label, points, timers, differences in cases:
        rows = {name: samples[label, points, name] for name in timers}
        for name, whole, *parts in differences:
            rows[name] = [a - sum(b) for a, *b in zip(rows[whole], *(rows[p] for p in parts))]
        chains.setdefault(label, {})[str(points)] = {
            name: quartiles(values) for name, values in rows.items()}
    return {
        "unit": "ref_us per point",
        "rounds": rounds,
        "ref_per_wall": quartiles(scales),
        "rate_range": list(RATE_RANGE),
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "chains": chains,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=101,
                        help="interleaved rounds; each times every measurement once")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    report = run(args.rounds)
    for label, by_points in report["chains"].items():
        for points, rows in by_points.items():
            for name, q in rows.items():
                print(f"{label:<10} N={points:<4} {name:<29} "
                      f"{q['p50']:9.2f}  [{q['p25']:.2f}, {q['p75']:.2f}]")
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
