"""One child process of the benchmark: set up, run one task, print one JSON line.

Usage: python3 perfbench/worker.py '<task json>'

The task names the workload, the seed and what to do:

* ``probe``: import the package and generate the workload's inputs, then
  exit; only the set-up time is reported.
* ``theory``: several in-process ``sweep-fig3`` commands, then single points
  through ``two_sensor.average_aoi_general``.
* ``simulate``: one ``simulate`` command of one model at the workload's load.

With ``"traced": true`` the calls run under :class:`tracer.Tracer` and the
child also reports per-layer figures derived from the spans; otherwise it
also times the work in reference seconds (``reference.py``). Every output is
checked; a failed check counts the operation as failed.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracer as tr  # noqa: E402

#: Total arrival rate of the fig4 column each simulation workload runs.
SIM_LOAD = {"sim_light": 1.0, "sim_saturated": 4.0}
SIM_MU = 1.0
SIM_MODELS = ("two_sensor", "mm11", "mm2p")
#: The CLI's default protocol, passed explicitly so the offered work is
#: fixed by the benchmark's inputs.
HORIZON = 2e5
TRIALS = 10
WARMUP = 0.01

SWEEPS = 5
SWEEP_L1 = 20
SWEEP_M2 = 25
POINTS = 2000
#: Points timed between two measurements of the reference kernel, and the
#: kernel runs in each measurement.
POINT_BLOCK = 100
BLOCK_KERNELS = 3
RATE_RANGE = (0.05, 20.0)

#: Tolerances of the correctness checks.
THEORY_REL = 1e-12
STATIONARY_ABS = 1e-12
SIM_REL = 0.02

_SIM_SPAN = {
    "two_sensor": "des_sim.simulate_two_sensor",
    "mm11": "des_sim.simulate_mm11",
    "mm2p": "des_sim.simulate_mm2_preemptive",
}


# -- inputs --------------------------------------------------------------------


def theory_inputs(seed: int):
    """Sweep argument lists and single-point rates, all from ``seed``.

    Every sweep's ``--grid-m2`` starts at its ``--m1``, so its first column
    has equal service rates and can be checked against the eq16 closed form.
    """
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    sweeps = []
    for _ in range(SWEEPS):
        m1 = log_uniform(0.2, 5.0)
        l2 = log_uniform(*RATE_RANGE)
        l1_start = log_uniform(RATE_RANGE[0], 1.0)
        l1_stop = min(RATE_RANGE[1], l1_start * log_uniform(2.0, 20.0))
        m2_stop = min(RATE_RANGE[1], m1 * log_uniform(1.5, 4.0))
        sweeps.append([
            "sweep-fig3", "--l2", repr(l2), "--m1", repr(m1),
            "--grid-l1", repr(l1_start), repr(l1_stop), str(SWEEP_L1),
            "--grid-m2", repr(m1), repr(m2_stop), str(SWEEP_M2),
        ])
    points = [tuple(log_uniform(*RATE_RANGE) for _ in range(4)) for _ in range(POINTS)]
    return {"sweeps": sweeps, "points": points}


def simulate_argv(workload: str, model: str, seed: int) -> list[str]:
    """One fig4-column ``simulate`` command; the two-sensor system splits the
    total arrival rate across its sensors."""
    lam = SIM_LOAD[workload]
    rates = (["--l1", repr(lam / 2), "--l2", repr(lam / 2)] if model == "two_sensor"
             else ["--l1", repr(lam)])
    return ["simulate", "--model", model, *rates, "--m", repr(SIM_MU),
            "--horizon", repr(HORIZON), "--trials", str(TRIALS),
            "--warmup", repr(WARMUP), "--seed", str(seed), "--format", "json"]


def offered_arrivals(workload: str) -> float:
    """Arrivals a fig4-column command offers: total rate x horizon x trials."""
    return SIM_LOAD[workload] * HORIZON * TRIALS


# -- process measurements ----------------------------------------------------


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cli(cli, argv, sampled: bool):
    """Run one in-process CLI command; returns (stdout text, wall seconds,
    reference seconds). Reference seconds are measured only if ``sampled``,
    which untraced tasks set, so that kernel runs never fall inside spans."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if sampled:
            with reference.Timed() as timed:
                code = cli.main(argv)
            wall, ref_s = timed.wall_s, timed.ref_s
        else:
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall, ref_s = time.perf_counter() - t0, None
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with code {code}")
    return buf.getvalue(), wall, ref_s


# -- checks --------------------------------------------------------------------


def check_sweep(text: str, equal_service) -> bool:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    if len(rows) != SWEEP_L1 * SWEEP_M2:
        return False
    checked = 0
    for l1, l2, m1, m2, theory, _, _ in rows:
        value = float(theory)
        if not (math.isfinite(value) and value > 0):
            return False
        if m2 == m1:
            ref = equal_service(float(l1), float(l2), float(m1))
            if abs(value - ref) > THEORY_REL * ref:
                return False
            checked += 1
    return checked == SWEEP_L1


def check_point(breakdown, closed) -> bool:
    value = breakdown.average_aoi
    if not (math.isfinite(value) and value > 0):
        return False
    return float(abs(breakdown.stationary.probs - closed.probs).max()) <= STATIONARY_ABS


def sim_check(model, workload, two_sensor):
    """Predicate on one simulate result's mean age."""
    lam, mu = SIM_LOAD[workload], SIM_MU
    mm11 = 1 / lam + 2 / mu - 1 / (lam + mu)
    if model == "two_sensor":
        eq16 = two_sensor.average_aoi_equal_service(lam / 2, lam / 2, mu)
        eq17 = two_sensor.average_aoi_symmetric(lam / 2, mu)
        return lambda v: all(abs(v - ref) <= SIM_REL * ref for ref in (eq16, eq17))
    if model == "mm11":
        return lambda v: abs(v - mm11) <= SIM_REL * mm11
    # no theory for the preemptive pair yet: it must beat the single queue
    return lambda v: math.isfinite(v) and 0 < v < mm11


# -- tasks ---------------------------------------------------------------------


def run_theory(task, modules, inputs):
    cli, two_sensor = modules["cli"], modules["two_sensor"]
    # references taken before any wrapper is installed
    equal_service = two_sensor.average_aoi_equal_service
    closed_form = two_sensor.stationary_closed_form
    params_type = two_sensor.TwoSensorParams
    tracer = _start_tracer(task, modules)
    sweep_rates, sweep_ref_rates, sweep_wall = [], [], 0.0
    point_ns, point_ref_ns = [], []
    attempted = failed = 0
    try:
        for argv in inputs["sweeps"]:
            attempted += 1
            try:
                text, wall, ref_s = run_cli(cli, argv, sampled=tracer is None)
            except Exception as exc:  # a failing command is a failed operation
                print(f"sweep failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            sweep_wall += wall
            sweep_rates.append(SWEEP_L1 * SWEEP_M2 / wall)
            if ref_s is not None:
                sweep_ref_rates.append(SWEEP_L1 * SWEEP_M2 / ref_s)
            failed += not check_sweep(text, equal_service)
        # every block of points sits between two sets of kernel runs; a timer
        # inside the block would land inside the timed calls
        kernels_before = [reference.kernel_s() for _ in range(BLOCK_KERNELS)]
        points = inputs["points"]
        for start in range(0, len(points), POINT_BLOCK):
            block_ns = []
            for rates in points[start:start + POINT_BLOCK]:
                params = params_type(*rates)
                attempted += 1
                try:
                    t0 = time.perf_counter_ns()
                    breakdown = two_sensor.average_aoi_general(params)
                    t1 = time.perf_counter_ns()
                except Exception as exc:
                    print(f"point {rates} failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                block_ns.append(t1 - t0)
                failed += not check_point(breakdown, closed_form(params))
            kernels_after = [reference.kernel_s() for _ in range(BLOCK_KERNELS)]
            scale = reference.ref_per_wall(kernels_before + kernels_after)
            kernels_before = kernels_after
            point_ns += block_ns
            point_ref_ns += [ns * scale for ns in block_ns]
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "attempted": attempted,
        "failed": failed,
        "work_s": sweep_wall + sum(point_ns) / 1e9,
        "sweep_points_per_s": sweep_rates,
        "sweep_points_per_ref_s": sweep_ref_rates,
        "point_ns": point_ns,
        "point_ref_ns": point_ref_ns,
        "peak_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["layers"] = theory_layers(tracer.spans)
        _write_spans(task, tracer)
    return out


def run_simulate(task, modules):
    cli, two_sensor = modules["cli"], modules["two_sensor"]
    workload, model = task["workload"], task["model"]
    passes = sim_check(model, workload, two_sensor)
    argv = simulate_argv(workload, model, task["seed"])
    start_mb = rss_mb()
    tracer = _start_tracer(task, modules)
    try:
        text, wall, ref_s = run_cli(cli, argv, sampled=tracer is None)
    except Exception as exc:  # a failing command is a failed operation
        print(f"{model} failed: {exc!r}", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "model": model}
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_mb = peak_rss_mb()
    result = json.loads(text)
    ok = (passes(result["mean_aoi"]) and len(result["trial_values"]) == TRIALS
          and result["events_processed"] > 0)
    out = {
        "attempted": 1,
        "failed": int(not ok),
        "work_s": wall,
        "work_ref_s": ref_s,
        "model": model,
        "events": result["events_processed"],
        "offered_arrivals": offered_arrivals(workload),
        "start_mb": start_mb,
        "peak_mb": peak_mb,
    }
    if tracer is not None:
        out["layers"] = simulate_layers(tracer, model, out)
        _write_spans(task, tracer)
    return out


def _count_deliveries(tracer, trace_id, args, kwargs, result):
    """Deliveries and stale deliveries, from the arguments of one
    ``time_average_age`` call (sorted delivery instants, generation times)."""
    import numpy as np

    gens = np.asarray(args[1], dtype=float)
    tracer.count(trace_id, "deliveries", gens.size)
    if gens.size > 1:
        running = np.maximum.accumulate(gens)[:-1]
        tracer.count(trace_id, "stale", np.count_nonzero(gens[1:] <= running))


def _start_tracer(task, modules):
    if not task.get("traced"):
        return None
    tracer = tr.Tracer({"des_sim.time_average_age": _count_deliveries})
    tracer.install(modules["cli"], modules["two_sensor"], modules["shs_core"],
                   modules["des_sim"])
    return tracer


def _write_spans(task, tracer):
    out_dir = Path(task["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = f"-{task['model']}" if task.get("model") else ""
    tracer.write(out_dir / f"spans-{task['workload']}{suffix}.jsonl")


# -- per-layer figures from spans --------------------------------------------------


def _by_name(spans):
    groups = {}
    for span in spans:
        groups.setdefault(span[tr.NAME], []).append(span)
    return groups


def _cli_self_ms(spans, own):
    """CLI self time of each command: self time of its ``cli.*`` spans."""
    per_command = {}
    for span in spans:
        if span[tr.NAME].startswith("cli."):
            per_command[span[tr.TRACE]] = per_command.get(span[tr.TRACE], 0) + own[span[tr.ID]]
    return [ns / 1e6 for ns in per_command.values()]


def theory_layers(spans):
    own = tr.self_times(spans)
    groups = _by_name(spans)

    def self_us(name):
        return [own[s[tr.ID]] / 1e3 for s in groups.get(name, [])]

    def net_us(name):
        return [tr.net_ns(s) / 1e3 for s in groups.get(name, [])]

    points = len(groups.get("two_sensor.average_aoi_general", []))
    solves = (len(groups.get("shs_core.solve_stationary", []))
              + len(groups.get("shs_core.solve_correlation", [])))
    return {
        "cli.self_ms": _cli_self_ms(spans, own),
        "two_sensor.average_aoi_general.self_us": self_us("two_sensor.average_aoi_general"),
        "two_sensor.build_two_sensor_chain.self_us": self_us("two_sensor.build_two_sensor_chain"),
        "shs_core.build_model_us": net_us("shs_core.build_model"),
        "shs_core.solve_stationary_us": net_us("shs_core.solve_stationary"),
        "shs_core.solve_correlation_us": net_us("shs_core.solve_correlation"),
        "points": points,
        "solves": solves,
    }


def simulate_layers(tracer, model, out):
    spans = tracer.spans
    own = tr.self_times(spans)
    groups = _by_name(spans)
    (sim,) = groups[_SIM_SPAN[model]]
    integrate_ns = sum(tr.net_ns(s) for s in groups.get("des_sim.time_average_age", []))
    counts = tracer.counts.get(sim[tr.TRACE], {})
    deliveries = counts.get("deliveries", 0)
    return {
        "cli.self_ms": _cli_self_ms(spans, own),
        "scan_ns_per_arrival": (tr.net_ns(sim) - integrate_ns) / out["offered_arrivals"],
        "integrate_ms": integrate_ns / 1e6,
        "bytes_per_event": (out["peak_mb"] - out["start_mb"]) * 2**20 / out["events"],
        "accept_ratio": deliveries / out["offered_arrivals"],
        "stale_ratio": counts.get("stale", 0) / deliveries if deliveries else 0.0,
    }


# -- entry point -----------------------------------------------------------------


def setup(task):
    """Import the package and generate the inputs; the set-up time ends here."""
    from aoi_shs import cli, des_sim, shs_core, two_sensor

    modules = {"cli": cli, "des_sim": des_sim, "shs_core": shs_core,
               "two_sensor": two_sensor}
    inputs = theory_inputs(task["seed"]) if task["workload"] == "theory" else None
    return modules, inputs, time.perf_counter() - _T0


def main() -> int:
    task = json.loads(sys.argv[1])
    modules, inputs, setup_s = setup(task)
    import aoi_shs
    import numpy

    if task["kind"] == "probe":
        out = {"attempted": 0, "failed": 0}
    elif task["kind"] == "theory":
        out = run_theory(task, modules, inputs)
    else:
        out = run_simulate(task, modules)
    out.update(setup_s=setup_s, numpy=numpy.__version__,
               python=sys.version.split()[0], aoi_shs=aoi_shs.__version__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
