"""Command-line front end: theory values, simulations, and sweep tables.

Subcommands
    theory        closed-form or solver-based average age for given rates
    simulate      run one simulator and report per-trial statistics
    sweep-fig3    age surface over a (lambda1, mu2) grid, theory plus
                  optional simulation
    compare-fig4  three-way comparison table over an arrival-rate grid
    export-model  JSON dump of the nine-state chain for given rates

Which rate flags each theory method, simulate model and subcommand reads is
declared once, in ``_READS``. ``--m`` sets ``--m1`` and ``--m2``; where one
service rate is read, ``--m1`` is an alias of ``--m``. A rate flag the
variant does not read is a usage error, not silently dropped.

Every output is schema-stable (fixed column order and field names) and fully
determined by the flags plus --seed; see the README for the schemas. The
parser is built once per process, at import, and reused by every ``main``
call, since parsing leaves it unchanged.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
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

#: The rate flags each theory method, simulate model and subcommand reads;
#: ``m`` is one service rate (``--m``, or ``--m1`` as its alias).
_READS = {
    **dict.fromkeys(("general", "eq16", "eq17", "two_sensor", "export-model"),
                    ("l1", "l2", "m1", "m2")),
    "zero_wait": ("m",),
    "mm11": ("l1", "m"),
    "mm2p": ("l1", "m"),
    "sweep-fig3": ("l2", "m1"),
    "compare-fig4": ("m",),
}


#: Most grid points one command may build, checked before any is. Measured
#: peak RSS growth of a sweep-fig3 command over 1e4 to 5e5 points: at most
#: 570 B per point as CSV and 870 B as JSON (points, solver output, ages,
#: rows and the output text), and 250 MB and 330 MB at 5e5 points.
MAX_GRID_POINTS = 500_000


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
        protocol = des_sim.SimConfig()
        p.add_argument("--horizon", type=float, default=protocol.horizon)
        p.add_argument("--trials", type=int, default=protocol.num_trials)
        p.add_argument("--seed", type=int, default=protocol.seed)
        p.add_argument("--warmup", type=float, default=protocol.warmup)

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


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _emit(_DISPATCH[args.command](args, _rates(args)), args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (shs_core.IllConditionedSystemError, OSError) as exc:
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
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table(fmt: str, header: str, rows) -> str:
    """CSV under ``header``, or a JSON list of objects keyed by its columns,
    the text ``json.dumps(indent=2)`` gives, encoded one row at a time."""
    if fmt == "json":
        keys = header.split(",")
        objects = ("  " + json.dumps(dict(zip(keys, row)), indent=2).replace("\n", "\n  ")
                   for row in rows)
        return "[\n" + ",\n".join(objects) + "\n]\n"
    return _csv(header, rows)


def _grids(*specs) -> list[list[float]]:
    """The grid of each ``(START STOP COUNT, flag)`` spec; each spec is checked,
    then their product against :data:`MAX_GRID_POINTS`, before any is built."""
    checked = []
    for spec, name in specs:
        start, stop, count = spec
        _require(count >= 1 and float(count).is_integer(),
                 f"{name}: grid count must be an integer >= 1, got {count!r}")
        shs_core._require_positive(**{f"{name} START": start, f"{name} STOP": stop})
        checked.append((start, stop, int(count)))
    total = math.prod(count for _, _, count in checked)
    _require(total <= MAX_GRID_POINTS,
             f"{' x '.join(name for _, name in specs)}: {total} grid points "
             f"exceed the cap of {MAX_GRID_POINTS}")
    return [np.linspace(start, stop, count).tolist() for start, stop, count in checked]


def _sim_config(args) -> des_sim.SimConfig:
    return des_sim.SimConfig(
        horizon=args.horizon,
        num_trials=args.trials,
        seed=args.seed,
        warmup=args.warmup,
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _rates(args) -> dict:
    """The ``{l1, l2, m1, m2}`` rates the command's variant reads, None where
    it reads none; one service rate is reported as ``m1``.

    Every typed rate flag must pass the package's one rate rule,
    :func:`shs_core._require_positive`, named by its flag; then ``--m``
    excludes ``--m1``/``--m2``; then a typed flag the variant does not read
    and a flag it reads but was not given are usage errors.
    """
    variant = getattr(args, "method", None) or getattr(args, "model", None) or args.command
    label = {"theory": "method ", "simulate": "model "}.get(args.command, "") + variant
    typed = {}
    for flag in ("l1", "l2", "m1", "m2", "m"):
        value = getattr(args, flag, None)
        if value is not None:
            shs_core._require_positive(**{f"--{flag}": value})
            typed[flag] = value
    reads = _READS[variant]
    if "m" in typed:
        _require("m1" not in typed and "m2" not in typed,
                 "pass either --m or --m1/--m2, not both")
        if "m" not in reads:
            typed["m1"] = typed["m2"] = typed.pop("m")
    elif "m" in reads and "m1" in typed:
        typed["m"] = typed.pop("m1")
    unread = ", ".join(f"--{flag}" for flag in typed if flag not in reads)
    _require(not unread, f"{label} does not read {unread}")
    missing = ", ".join(f"--{flag}" for flag in reads if flag not in typed)
    _require(not missing, f"{label} requires {missing}")
    return {"l1": typed.get("l1"), "l2": typed.get("l2"),
            "m1": typed.get("m1", typed.get("m")), "m2": typed.get("m2")}


# -- subcommand handlers -----------------------------------------------------


def _cmd_theory(args, rates) -> str:
    method = args.method
    l1, l2, m1, m2 = rates.values()
    if method == "general":
        breakdown = two_sensor.average_aoi_general(two_sensor.TwoSensorParams(l1, l2, m1, m2))
        if args.format == "json":
            return _json({
                "method": method,
                "params": rates,
                "average_aoi": breakdown.average_aoi,
                "stationary": breakdown.stationary.probs.tolist(),
                "correlations": breakdown.correlations.vectors.tolist(),
                "diagnostics": {
                    "stationary_condition": breakdown.stationary.condition,
                    "stationary_residual": breakdown.stationary.residual,
                    "correlation_condition": breakdown.correlations.condition,
                    "correlation_residual": breakdown.correlations.residual,
                },
            })
        rows = [
            (q, breakdown.stationary.probs[q], *breakdown.correlations.vectors[q],
             breakdown.average_aoi)
            for q in range(two_sensor.NUM_STATES)
        ]
        return _csv(_THEORY_BREAKDOWN_HEADER, rows)

    if method == "zero_wait":
        rates["m2"] = m1  # the limit holds for two channels of one service rate
        value = two_sensor.zero_wait_limit(m1)
    elif method == "eq16":
        _require(m1 == m2,
                 "method eq16 requires equal service rates: --m1 == --m2 (or use --m)")
        value = two_sensor.average_aoi_equal_service(l1, l2, m1)
    else:  # eq17
        _require(l1 == l2, "method eq17 requires equal arrival rates: --l1 == --l2")
        _require(m1 == m2,
                 "method eq17 requires equal service rates: --m1 == --m2 (or use --m)")
        value = two_sensor.average_aoi_symmetric(l1, m1)
    if args.format == "json":
        return _json({"method": method, "params": rates, "average_aoi": value})
    return _csv(_THEORY_SCALAR_HEADER, [(*rates.values(), method, value)])


def _cmd_simulate(args, rates) -> str:
    config = _sim_config(args)
    model = args.model
    if model == "two_sensor":
        result = des_sim.simulate_two_sensor(
            two_sensor.TwoSensorParams(*rates.values()), config, args.trace_dir
        )
    else:
        runner = des_sim.simulate_mm11 if model == "mm11" else des_sim.simulate_mm2_preemptive
        result = runner(rates["l1"], rates["m1"], config, args.trace_dir)

    if args.format == "json":
        return _json({
            "model": model,
            "params": rates,
            "config": dataclasses.asdict(config),
            "mean_aoi": result.mean_aoi,
            "trial_values": list(result.trial_values),
            "stderr": result.stderr,
            "ci95_halfwidth": result.ci95_halfwidth,
            "events_processed": result.events_processed,
        })
    row = (
        model, *rates.values(), config.horizon, config.num_trials, config.seed, config.warmup,
        result.mean_aoi, result.stderr, result.ci95_halfwidth,
        result.events_processed,
    )
    return _csv(_SIMULATE_HEADER, [row])


def _cmd_sweep_fig3(args, rates) -> str:
    config = _sim_config(args)
    l1s, m2s = _grids((args.grid_l1, "--grid-l1"), (args.grid_m2, "--grid-m2"))
    points = [(l1, rates["l2"], rates["m1"], m2) for l1 in l1s for m2 in m2s]
    theory = two_sensor.average_aoi_grid(np.array(points)).tolist()
    rows = []
    for point, value in zip(points, theory):
        if args.simulate:
            result = des_sim.simulate_two_sensor(two_sensor.TwoSensorParams(*point), config)
            sim_mean, sim_ci = result.mean_aoi, result.ci95_halfwidth
        else:
            sim_mean = sim_ci = None
        rows.append((*point, value, sim_mean, sim_ci))
    return _table(args.format, _FIG3_HEADER, rows)


def _cmd_compare_fig4(args, rates) -> str:
    config = _sim_config(args)
    mu = rates["m1"]
    rows = []
    (lams,) = _grids((args.grid_lambda, "--grid-lambda"))
    for lam in lams:
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


def _cmd_export_model(args, rates) -> str:
    model = two_sensor.build_two_sensor_chain(two_sensor.TwoSensorParams(*rates.values()))
    return shs_core.model_to_json(model)


_DISPATCH = {
    "theory": _cmd_theory,
    "simulate": _cmd_simulate,
    "sweep-fig3": _cmd_sweep_fig3,
    "compare-fig4": _cmd_compare_fig4,
    "export-model": _cmd_export_model,
}
