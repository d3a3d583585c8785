"""Command-line front end: theory values, simulations, and sweep tables.

Subcommands
    theory        closed-form or solver-based average age for given rates
    simulate      run one simulator and report per-trial statistics
    sweep-fig3    age surface over a (lambda1, mu2) grid, theory plus
                  optional simulation
    compare-fig4  three-way comparison table over an arrival-rate grid
    export-model  JSON dump of the nine-state chain for given rates

Every output is schema-stable (fixed column order and field names) and fully
determined by the flags plus --seed; see the README for the schemas.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import des_sim, shs_core, two_sensor

_FIG4_HEADER = (
    "lambda,theory_two_sensor,sim_two_sensor,ci_two_sensor,"
    "sim_mm11,ci_mm11,sim_mm2p,ci_mm2p"
)
_FIG3_HEADER = "lambda1,lambda2,mu1,mu2,theory_aoi,sim_mean,sim_ci95"
_THEORY_BREAKDOWN_HEADER = "state,pi,v_monitor,v_sensor1,v_sensor2,average_aoi"
_THEORY_SCALAR_HEADER = "l1,l2,m1,m2,method,average_aoi"
_SIMULATE_HEADER = (
    "model,l1,l2,m1,m2,horizon,trials,seed,warmup,"
    "mean_aoi,stderr,ci95_halfwidth,events_processed"
)
_RATE_FLAGS = ("l1", "l2", "m1", "m2", "m")


class UsageError(ValueError):
    """Bad flag combination or parameter value; exits with code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-shs",
        description="Average age-of-information: theory, simulation, and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rates(p):
        p.add_argument("--l1", type=float, help="arrival rate of sensor 1")
        p.add_argument("--l2", type=float, help="arrival rate of sensor 2")
        p.add_argument("--m1", type=float, help="service rate of channel 1")
        p.add_argument("--m2", type=float, help="service rate of channel 2")
        p.add_argument("--m", type=float, help="shared service rate (sets both --m1 and --m2)")

    def add_sim(p):
        p.add_argument("--horizon", type=float, default=2e5)
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--seed", type=int, default=des_sim.DEFAULT_SEED)
        p.add_argument("--warmup", type=float, default=0.01)

    def add_out(p, default_format):
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("theory", help="compute the average age analytically")
    add_rates(p)
    p.add_argument(
        "--method",
        choices=("general", "eq16", "eq17", "zero_wait"),
        default="general",
        help="general: 9-state solver; eq16: closed form, needs m1 == m2; "
        "eq17: closed form, needs l1 == l2 and m1 == m2; zero_wait: 5/(4*mu)",
    )
    add_out(p, "json")

    p = sub.add_parser("simulate", help="run one simulator")
    p.add_argument("--model", choices=("two_sensor", "mm11", "mm2p"), required=True)
    add_rates(p)
    add_sim(p)
    p.add_argument("--trace-dir", default=None, help="write per-trial event traces here")
    add_out(p, "json")

    p = sub.add_parser("sweep-fig3", help="age surface over a (lambda1, mu2) grid")
    p.add_argument("--l2", type=float, default=0.8)
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--grid-l1", type=float, nargs=3, default=(0.1, 0.9, 9),
                   metavar=("START", "STOP", "COUNT"))
    p.add_argument("--grid-m2", type=float, nargs=3, default=(1.0, 1.8, 9),
                   metavar=("START", "STOP", "COUNT"))
    p.add_argument("--simulate", action="store_true",
                   help="add simulated columns (slow at default config)")
    add_sim(p)
    add_out(p, "csv")

    p = sub.add_parser("compare-fig4", help="two-sensor vs one-queue vs preemptive pair")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--grid-lambda", type=float, nargs=3, default=(0.2, 5.0, 12),
                   metavar=("START", "STOP", "COUNT"))
    add_sim(p)
    add_out(p, "csv")

    p = sub.add_parser("export-model", help="dump the nine-state chain as JSON")
    add_rates(p)
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _DISPATCH[args.command]
    try:
        _check_rate_flags(args)
        text = handler(args)
        _emit(text, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except shs_core.IllConditionedSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# -- helpers -----------------------------------------------------------------


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table(fmt: str, header: str, rows) -> str:
    """CSV under ``header``, or a JSON list of objects keyed by its columns."""
    if fmt == "json":
        keys = header.split(",")
        return _json([dict(zip(keys, row)) for row in rows])
    return _csv(header, rows)


def _grid(spec, name: str) -> list[float]:
    if not float(spec[2]).is_integer():
        raise UsageError(f"{name}: grid count must be an integer, got {spec[2]!r}")
    start, stop, count = float(spec[0]), float(spec[1]), int(spec[2])
    if count < 1:
        raise UsageError(f"{name}: grid count must be >= 1, got {count}")
    if not (0 < start < math.inf and 0 < stop < math.inf):
        raise UsageError(
            f"{name}: grid endpoints must be positive and finite, got {start!r} and {stop!r}"
        )
    if count == 1:
        return [start]
    return [float(x) for x in np.linspace(start, stop, count)]


def _service_rates(args):
    if args.m is not None:
        if args.m1 is not None or args.m2 is not None:
            raise UsageError("pass either --m or --m1/--m2, not both")
        return args.m, args.m
    return args.m1, args.m2


def _sim_config(args) -> des_sim.SimConfig:
    return des_sim.SimConfig(
        horizon=args.horizon,
        num_trials=args.trials,
        seed=args.seed,
        warmup=args.warmup,
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _check_rate_flags(args) -> None:
    """Every rate flag the subcommand has must be positive and finite."""
    for flag in _RATE_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            _require(math.isfinite(value), f"--{flag} must be finite, got {value!r}")
            _require(value > 0, f"--{flag} must be positive, got {value!r}")


# -- subcommand handlers -----------------------------------------------------


def _cmd_theory(args) -> str:
    m1, m2 = _service_rates(args)
    l1, l2 = args.l1, args.l2
    method = args.method

    if method == "zero_wait":
        _require(m1 is not None or m2 is not None,
                 "method zero_wait requires --m (or --m1/--m2)")
        _require(m1 is None or m2 is None or m1 == m2,
                 "method zero_wait requires equal service rates: --m1 == --m2 (or use --m)")
        mu = m1 if m1 is not None else m2
        value = two_sensor.zero_wait_limit(mu)
        return _theory_scalar(args, method, None, None, mu, mu, value)

    _require(l1 is not None and l2 is not None,
             f"method {method} requires --l1 and --l2")
    _require(m1 is not None and m2 is not None,
             f"method {method} requires service rates (--m1/--m2 or --m)")

    if method == "general":
        breakdown = two_sensor.average_aoi_general(
            two_sensor.TwoSensorParams(l1, l2, m1, m2)
        )
        if args.format == "json":
            return _json({
                "method": method,
                "params": {"l1": l1, "l2": l2, "m1": m1, "m2": m2},
                "average_aoi": breakdown.average_aoi,
                "stationary": breakdown.stationary.probs.tolist(),
                "correlations": breakdown.correlations.vectors.tolist(),
                "diagnostics": {
                    "stationary_condition": breakdown.stationary_condition,
                    "stationary_residual": breakdown.stationary_residual,
                    "correlation_condition": breakdown.correlation_condition,
                    "correlation_residual": breakdown.correlation_residual,
                },
            })
        rows = [
            (q, breakdown.stationary.probs[q], *breakdown.correlations.vectors[q],
             breakdown.average_aoi)
            for q in range(two_sensor.NUM_STATES)
        ]
        return _csv(_THEORY_BREAKDOWN_HEADER, rows)

    if method == "eq16":
        _require(m1 == m2,
                 "method eq16 requires equal service rates: --m1 == --m2 (or use --m)")
        value = two_sensor.average_aoi_equal_service(l1, l2, m1)
    else:  # eq17
        _require(l1 == l2, "method eq17 requires equal arrival rates: --l1 == --l2")
        _require(m1 == m2,
                 "method eq17 requires equal service rates: --m1 == --m2 (or use --m)")
        value = two_sensor.average_aoi_symmetric(l1, m1)
    return _theory_scalar(args, method, l1, l2, m1, m2, value)


def _theory_scalar(args, method, l1, l2, m1, m2, value) -> str:
    if args.format == "json":
        return _json({
            "method": method,
            "params": {"l1": l1, "l2": l2, "m1": m1, "m2": m2},
            "average_aoi": value,
        })
    return _csv(_THEORY_SCALAR_HEADER, [(l1, l2, m1, m2, method, value)])


def _cmd_simulate(args) -> str:
    config = _sim_config(args)
    m1, m2 = _service_rates(args)
    model = args.model
    if model == "two_sensor":
        _require(args.l1 is not None and args.l2 is not None,
                 "model two_sensor requires --l1 and --l2")
        _require(m1 is not None and m2 is not None,
                 "model two_sensor requires service rates (--m1/--m2 or --m)")
        params = {"l1": args.l1, "l2": args.l2, "m1": m1, "m2": m2}
        result = des_sim.simulate_two_sensor(
            two_sensor.TwoSensorParams(args.l1, args.l2, m1, m2),
            config, args.trace_dir,
        )
    else:
        _require(args.l1 is not None, f"model {model} requires --l1 (arrival rate)")
        _require(m1 is not None, f"model {model} requires --m (service rate)")
        params = {"l1": args.l1, "l2": None, "m1": m1, "m2": None}
        runner = des_sim.simulate_mm11 if model == "mm11" else des_sim.simulate_mm2_preemptive
        result = runner(args.l1, m1, config, args.trace_dir)

    if args.format == "json":
        return _json({
            "model": model,
            "params": params,
            "config": {
                "horizon": config.horizon,
                "num_trials": config.num_trials,
                "seed": config.seed,
                "warmup": config.warmup,
            },
            "mean_aoi": result.mean_aoi,
            "trial_values": list(result.trial_values),
            "stderr": result.stderr,
            "ci95_halfwidth": result.ci95_halfwidth,
            "events_processed": result.events_processed,
        })
    row = (
        model, params["l1"], params["l2"], params["m1"], params["m2"],
        config.horizon, config.num_trials, config.seed, config.warmup,
        result.mean_aoi, result.stderr, result.ci95_halfwidth,
        result.events_processed,
    )
    return _csv(_SIMULATE_HEADER, [row])


def _cmd_sweep_fig3(args) -> str:
    config = _sim_config(args)
    points = [
        (l1, args.l2, args.m1, m2)
        for l1 in _grid(args.grid_l1, "--grid-l1")
        for m2 in _grid(args.grid_m2, "--grid-m2")
    ]
    theory = two_sensor.average_aoi_grid(points).tolist()
    rows = []
    for point, value in zip(points, theory):
        if args.simulate:
            result = des_sim.simulate_two_sensor(two_sensor.TwoSensorParams(*point), config)
            sim_mean, sim_ci = result.mean_aoi, result.ci95_halfwidth
        else:
            sim_mean = sim_ci = None
        rows.append((*point, value, sim_mean, sim_ci))
    return _table(args.format, _FIG3_HEADER, rows)


def _cmd_compare_fig4(args) -> str:
    config = _sim_config(args)
    mu = args.m
    rows = []
    for lam in _grid(args.grid_lambda, "--grid-lambda"):
        # the two-sensor column splits the arrival rate across the sensors
        params = two_sensor.TwoSensorParams(lam / 2, lam / 2, mu, mu)
        two = des_sim.simulate_two_sensor(params, config)
        one = des_sim.simulate_mm11(lam, mu, config)
        pre = des_sim.simulate_mm2_preemptive(lam, mu, config)
        rows.append((
            lam, two_sensor.average_aoi_symmetric(lam / 2, mu),
            two.mean_aoi, two.ci95_halfwidth,
            one.mean_aoi, one.ci95_halfwidth,
            pre.mean_aoi, pre.ci95_halfwidth,
        ))
    return _table(args.format, _FIG4_HEADER, rows)


def _cmd_export_model(args) -> str:
    m1, m2 = _service_rates(args)
    _require(args.l1 is not None and args.l2 is not None,
             "export-model requires --l1 and --l2")
    _require(m1 is not None and m2 is not None,
             "export-model requires service rates (--m1/--m2 or --m)")
    model = two_sensor.build_two_sensor_chain(
        two_sensor.TwoSensorParams(args.l1, args.l2, m1, m2)
    )
    return shs_core.model_to_json(model)


_DISPATCH = {
    "theory": _cmd_theory,
    "simulate": _cmd_simulate,
    "sweep-fig3": _cmd_sweep_fig3,
    "compare-fig4": _cmd_compare_fig4,
    "export-model": _cmd_export_model,
}
