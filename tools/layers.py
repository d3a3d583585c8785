#!/usr/bin/env python3
"""Per-layer timings of the theory solver and of the simulators: where a
point's and a simulated event's time go.

Usage (from the repository root):

    python3 tools/layers.py [--rounds R] [--out PATH]

Solver. For the nine-state chain (``two_sensor._CHAIN``, one point per
general solve) and the five-state chain (``two_sensor._GRID_CHAIN``, the
rate grids), each at N = 1 and N = ``BATCH_BLOCK`` points log-uniform in
[0.05, 20]^4, it times per point:

* ``solve``: ``shs_core._solve``, both stages of one block inside one
  ``np.errstate``;
* ``stationary`` and ``correlation``: each stage alone;
* ``stationary.assembly`` and ``correlation.assembly``: the stage's systems
  from the rates, ``shs_core._balance_systems`` or
  ``shs_core._correlation_systems``;
* ``stationary.inv`` and ``correlation.solve``: the stage's LAPACK call,
  ``np.linalg.inv`` or ``np.linalg.solve``, on the stage's own systems;
* ``stationary.guards`` and ``correlation.guards``: the guard quantities,
  the pass check and the values from the LAPACK call's result,
  ``shs_core._stationary_guards`` or ``shs_core._certificate_guards``, on
  the stage's own systems and result;
* ``stationary.rest`` and ``correlation.rest``: the stage less its LAPACK
  call, and ``stationary.other`` and ``correlation.other``: the rest less
  assembly and guards (the calls, and the correlation stage's scatter of
  the solution into the vectors), each taken within each round;
* ``solve.errstate``: ``solve`` less ``stationary`` and ``correlation``,
  the cost of entering and leaving the ``np.errstate``;

and, for one nine-state point, ``average_aoi_general`` and its
``average_aoi_general.wrapping``, the call less ``_solve``.

Simulators. For each simulator (two sensors, each at half the total arrival
rate; ``mm11``; ``mm2p``) at total arrival rate 1 and 4, service rate 1,
and horizons 2e3 and 2e5, it times one trial's parts (a sample of trials at
the short horizon) per processed event, arrivals (blocked ones included)
plus deliveries by the horizon:

* ``channels``: every channel's blocks, each channel drained alone on its
  trial's streams: its draws and its scan;
* ``merge``: ``des_sim._Merge`` on copies of those blocks, with a sink that
  does nothing;
* ``integral``: ``des_sim._AgeIntegral.add`` on copies of the batches the
  merge hands its sink.

Every round runs each measurement of a half once, in an order that rotates
from round to round, between two runs of ``perfbench/reference.py``'s
kernel; the round's timings are scaled to reference units by those two runs.
The report gives each measurement's median and quartiles over the rounds.
BLAS runs one thread, as in the benchmark. The JSON document goes to
``--out`` (``BENCH_layers.json`` at the repository root by default), and a
table to standard output.
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

from aoi_shs import des_sim, shs_core, two_sensor  # noqa: E402

#: Calls per timed sample, by points per call: a sample takes a few ms.
LOOPS = {1: 100, shs_core.BATCH_BLOCK: 4}
RATE_RANGE = (0.05, 20.0)
SEED = 20

#: Simulated trials per timed sample, by horizon: a sample takes a few ms or more.
SIM_TRIALS = {"2e3": 10, "2e5": 1}
SIM_TOTAL_RATES = (1.0, 4.0)
SIM_MU = 1.0
SIM_WARMUP = 0.01


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
    balance, system = shs_core._balance_systems(chain, rates)
    inverse = np.linalg.inv(system)
    probs = shs_core._stationary(chain, rates, 0)[0]
    correlation, norm, both = shs_core._correlation_systems(chain, rates, probs)
    solution = np.linalg.solve(correlation, both)
    loops, points = LOOPS[len(rates)], len(rates)
    calls = {
        "solve": lambda: shs_core._solve(chain, rates),
        "stationary": lambda: shs_core._stationary(chain, rates, 0),
        "stationary.assembly": lambda: shs_core._balance_systems(chain, rates),
        "stationary.inv": lambda: np.linalg.inv(system),
        "stationary.guards": lambda: shs_core._stationary_guards(chain, rates, 0, balance,
                                                                 inverse),
        "correlation": lambda: shs_core._correlation(chain, rates, probs, 0),
        "correlation.assembly": lambda: shs_core._correlation_systems(chain, rates, probs),
        "correlation.solve": lambda: np.linalg.solve(correlation, both),
        "correlation.guards": lambda: shs_core._certificate_guards(
            correlation, norm, rates, 0, both, solution),
    }
    differences = [
        ("stationary.rest", "stationary", "stationary.inv"),
        ("stationary.other", "stationary", "stationary.assembly", "stationary.inv",
         "stationary.guards"),
        ("correlation.rest", "correlation", "correlation.solve"),
        ("correlation.other", "correlation", "correlation.assembly", "correlation.solve",
         "correlation.guards"),
        ("solve.errstate", "solve", "stationary", "correlation"),
    ]
    if chain is two_sensor._CHAIN and points == 1:
        params = two_sensor.TwoSensorParams(*rates[0])
        calls["average_aoi_general"] = lambda: two_sensor.average_aoi_general(params)
        differences.append(("average_aoi_general.wrapping", "average_aoi_general", "solve"))
    return {name: _timer(call, loops, points) for name, call in calls.items()}, differences


def sim_channels(model: str, rate: float, horizon: float) -> list:
    """The channels of one simulator at total arrival rate ``rate``, as its
    ``des_sim.simulate_*`` function builds them."""
    if model == "two_sensor":
        return [des_sim._BlockingChannel(rate / 2, SIM_MU, horizon, k) for k in (1, 2)]
    if model == "mm11":
        return [des_sim._BlockingChannel(rate, SIM_MU, horizon, 1)]
    return [des_sim._PreemptivePair(rate, SIM_MU, horizon)]


def sim_measurements(model: str, rate: float, horizon: str):
    """The timed parts of ``SIM_TRIALS[horizon]`` trials of one simulator,
    by name, each a sample in wall ns per processed event, and the events."""
    end = float(horizon)
    channels = sim_channels(model, rate, end)
    trials = range(SIM_TRIALS[horizon])

    def streams():
        # fresh generators for every trial and channel, as the runner seeds them
        return [[(des_sim._rng(SEED, trial, 2 * k), des_sim._rng(SEED, trial, 2 * k + 1))
                 for k in range(len(channels))] for trial in trials]

    before = sum(channel.events for channel in channels)
    blocks = [[[(deps.copy(), gens.copy()) for deps, gens in channel(*pair, None)]
               for channel, pair in zip(channels, trial)] for trial in streams()]
    events = sum(channel.events for channel in channels) - before
    merge = des_sim._Merge()
    batches = []
    for trial in blocks:
        batches.append([])
        merge([iter(chunks) for chunks in trial],
              lambda deps, gens: batches[-1].append((deps.copy(), gens.copy())))
    integral = des_sim._AgeIntegral(SIM_WARMUP * end, end)

    def drain(generators):
        for trial in generators:
            for channel, pair in zip(channels, trial):
                for _ in channel(*pair, None):
                    pass

    def merged(_):
        for trial in blocks:
            merge([iter(chunks) for chunks in trial], lambda deps, gens: None)

    def integrated(_):
        for trial in batches:
            integral.start(0.0)
            for deps, gens in trial:
                integral.add(deps, gens)

    def timer(run, prepare=lambda: None):
        """A sample: wall ns per processed event of ``run(prepare())``, the
        preparation untimed."""
        def sample() -> float:
            args = prepare()
            t0 = perf_counter()
            run(args)
            return (perf_counter() - t0) / events * 1e9
        return sample

    parts = {"channels": timer(drain, streams), "merge": timer(merged),
             "integral": timer(integrated)}
    return parts, events


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": round(q1, 3), "p50": round(q2, 3), "p75": round(q3, 3)}


def interleave(timers: dict, rounds: int):
    """``rounds`` samples of every timer, each scaled to reference time by
    the kernel runs around its round, and the rounds' scales."""
    samples = {key: [] for key in timers}
    order = list(timers)
    for timer in timers.values():  # warm-up: caches and lazy set-up
        timer()
    scales = []
    gc.disable()
    try:
        kernel = reference.kernel_s()
        for r in range(rounds):
            start = r % len(order)
            wall = {key: timers[key]() for key in order[start:] + order[:start]}
            after = reference.kernel_s()
            scale = reference.ref_per_wall([kernel, after])
            kernel = after
            scales.append(scale)
            for key, value in wall.items():
                samples[key].append(value * scale)
    finally:
        gc.enable()
    return samples, scales


def run_solver(rounds: int) -> dict:
    rng = np.random.default_rng(SEED)
    low, high = np.log(RATE_RANGE)
    cases = []
    for label, chain in (("nine_state", two_sensor._CHAIN),
                         ("five_state", two_sensor._GRID_CHAIN)):
        for points in LOOPS:
            rates = np.exp(rng.uniform(low, high, size=(points, 4)))
            timers, differences = measurements(chain, rates)
            cases.append((label, points, timers, differences))
    samples, scales = interleave({(label, points, name): timer
                                  for label, points, timers, _ in cases
                                  for name, timer in timers.items()}, rounds)
    chains = {}
    for label, points, timers, differences in cases:
        rows = {name: samples[label, points, name] for name in timers}
        for name, whole, *parts in differences:
            rows[name] = [a - sum(b) for a, *b in zip(rows[whole], *(rows[p] for p in parts))]
        chains.setdefault(label, {})[str(points)] = {
            name: quartiles(values) for name, values in rows.items()}
    return {"ref_per_wall": quartiles(scales), "chains": chains}


def run_simulators(rounds: int) -> dict:
    cases = {(model, f"{rate:g}", horizon): sim_measurements(model, rate, horizon)
             for model in ("two_sensor", "mm11", "mm2p")
             for rate in SIM_TOTAL_RATES for horizon in SIM_TRIALS}
    samples, scales = interleave({(*case, part): timer for case, (parts, _) in cases.items()
                                  for part, timer in parts.items()}, rounds)
    models = {}
    for (model, rate, horizon), (parts, events) in cases.items():
        row = {"trials": SIM_TRIALS[horizon], "events": events}
        row.update({part: quartiles(samples[model, rate, horizon, part]) for part in parts})
        models.setdefault(model, {}).setdefault(rate, {})[horizon] = row
    return {"unit": "ref_ns per processed event", "ref_per_wall": quartiles(scales),
            "service_rate": SIM_MU, "warmup": SIM_WARMUP, "models": models}


def run(rounds: int) -> dict:
    solver = run_solver(rounds)
    return {
        "unit": "ref_us per point",
        "rounds": rounds,
        "ref_per_wall": solver["ref_per_wall"],
        "rate_range": list(RATE_RANGE),
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "chains": solver["chains"],
        "simulators": run_simulators(rounds),
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
    for model, by_rate in report["simulators"]["models"].items():
        for rate, by_horizon in by_rate.items():
            for horizon, row in by_horizon.items():
                for part in ("channels", "merge", "integral"):
                    q = row[part]
                    print(f"{model:<10} rate {rate:<2} horizon {horizon} {part:<9} "
                          f"{q['p50']:9.2f}  [{q['p25']:.2f}, {q['p75']:.2f}] ref ns/event")
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
