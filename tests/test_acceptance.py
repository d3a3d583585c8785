"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest -s`` to see them on success).

Set AOI_SHS_SLOW_TESTS=1 to enable the long-horizon convergence tier.

Each simulation-against-theory comparison passes two gates: the relative
gap under its bound, and ``z = (simulated - theory) / stderr`` inside the
two-sided Student-t quantile for ``num_trials - 1`` degrees of freedom at a
Bonferroni share of a 1% family-wise false-alarm rate over all
``GATED_COMPARISONS``. The relative bound alone passes a simulator whose
rates are 3% off (see ``test_z_gate_catches_a_rate_error``).
"""

import os
import time

import numpy as np
import pytest
from scipy import stats

from aoi_shs.des_sim import SimConfig, simulate_mm11, simulate_two_sensor, simulate_mm2_preemptive
from aoi_shs.shs_core import average_age, solve_correlation, solve_stationary
from aoi_shs.two_sensor import (
    TwoSensorParams,
    average_aoi_equal_service,
    average_aoi_general,
    average_aoi_symmetric,
    build_two_sensor_chain,
    stationary_closed_form,
    zero_wait_limit,
)
from oracles import nine_state_residual, sawtooth_average_walk, single_queue_model

BASE_SEED = 12345

#: Sim-versus-theory comparisons under the z-gate, over both tiers: the
#: 3x3 sweep grid, three single-queue points, the 81 cells of the full
#: sweep and the long-horizon run.
GATED_COMPARISONS = 9 + 3 + 81 + 1
FAMILY_ALPHA = 0.01


def z_limit(num_trials: int) -> float:
    """The largest |z| a simulation of ``num_trials`` trials may show."""
    return float(stats.t.ppf(1 - FAMILY_ALPHA / (2 * GATED_COMPARISONS), num_trials - 1))


def gap_and_z(simulated: float, theory: float, stderr: float) -> tuple[float, float]:
    """The relative gap of a simulated mean to theory, and its z."""
    return (simulated - theory) / theory, (simulated - theory) / stderr


def worst(values) -> float:
    """The entry of largest magnitude, with its sign."""
    return max(values, key=abs)


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_closed_form_vs_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)
    max_pi_gap = 0.0
    max_residual = 0.0
    for _ in range(100):
        params = TwoSensorParams(*rng.uniform(0.05, 20.0, size=4))
        closed = stationary_closed_form(params).probs
        model = build_two_sensor_chain(params)
        pi = solve_stationary(model)
        v = solve_correlation(model, pi)
        max_pi_gap = max(max_pi_gap, float(np.abs(closed - pi.probs).max()))
        max_residual = max(max_residual, nine_state_residual(
            params.lambda1, params.lambda2, params.mu1, params.mu2,
            pi.probs, v.vectors))
    elapsed = time.perf_counter() - start
    report(
        "closed-form stationary distribution matches the generic solve "
        "(100 draws, 1e-12) and correlation residuals stay below 1e-10",
        max_pi_gap < 1e-12 and max_residual < 1e-10 and elapsed < 1.0,
        f"pi gap {max_pi_gap:.2e}, residual {max_residual:.2e}, {elapsed:.2f}s",
    )


def test_equal_service_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for l1 in np.linspace(0.2, 2.0, 5):
        for l2 in np.linspace(0.2, 2.0, 5):
            closed = average_aoi_equal_service(l1, l2, 1.0)
            solved = average_aoi_general(TwoSensorParams(l1, l2, 1.0, 1.0)).average_aoi
            worst = max(worst, abs(closed - solved) / solved)
    elapsed = time.perf_counter() - start
    report(
        "equal-service closed form matches the solver on the 5x5 grid (1e-10 rel)",
        worst < 1e-10 and elapsed < 1.0,
        f"worst rel gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_symmetric_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0, 10.0):
        nested = average_aoi_equal_service(lam, lam, 1.0)
        direct = average_aoi_symmetric(lam, 1.0)
        worst = max(worst, abs(nested - direct) / direct)
    spot = average_aoi_symmetric(1.0, 1.0)
    elapsed = time.perf_counter() - start
    report(
        "symmetric closed form nests inside the equal-service one (1e-12 rel) "
        "and evaluates to 103/64 at unit rates",
        worst < 1e-12 and abs(spot - 103 / 64) < 1e-14 and elapsed < 0.1,
        f"worst rel gap {worst:.2e}, spot {spot!r}, {elapsed:.2f}s",
    )


def test_zero_wait_limit():
    start = time.perf_counter()
    value = average_aoi_symmetric(1e8, 1.0)
    elapsed = time.perf_counter() - start
    report(
        "saturated symmetric system reaches the zero-wait limit 1.25 (1e-6 abs)",
        abs(value - zero_wait_limit(1.0)) < 1e-6 and elapsed < 0.1,
        f"value {value!r}, {elapsed:.2f}s",
    )


def test_simulation_matches_theory_on_sweep_grid():
    start = time.perf_counter()
    gaps, zs = [], []
    covered = 0
    cell = 0
    for l1 in (0.1, 0.5, 0.9):
        for m2 in (1.0, 1.4, 1.8):
            params = TwoSensorParams(l1, 0.8, 1.0, m2)
            theory = average_aoi_general(params).average_aoi
            config = SimConfig(horizon=2e5, num_trials=10, seed=BASE_SEED + cell)
            result = simulate_two_sensor(params, config)
            gap, z = gap_and_z(result.mean_aoi, theory, result.stderr)
            gaps.append(gap)
            zs.append(z)
            covered += abs(result.mean_aoi - theory) <= result.ci95_halfwidth
            cell += 1
    elapsed = time.perf_counter() - start
    limit = z_limit(10)
    report(
        f"simulated mean within 2% and |z| <= {limit:.2f} of the solver on the "
        "3x3 sweep grid, with theory inside the 95% CI in at least 8 of 9 cells",
        max(map(abs, gaps)) < 0.02 and max(map(abs, zs)) <= limit
        and covered >= 8 and elapsed < 120.0,
        f"worst rel gap {worst(gaps):+.3%}, worst z {worst(zs):+.2f}, "
        f"CI coverage {covered}/9, {elapsed:.1f}s",
    )


def test_z_gate_catches_a_rate_error():
    # cell (0.5, 0.8, 1, 1.4) of the sweep grid at its seed, simulated with
    # mu2 3% fast: the relative bound passes it, the z-gate must not
    start = time.perf_counter()
    theory = average_aoi_general(TwoSensorParams(0.5, 0.8, 1.0, 1.4)).average_aoi
    config = SimConfig(horizon=2e5, num_trials=10, seed=BASE_SEED + 4)
    result = simulate_two_sensor(TwoSensorParams(0.5, 0.8, 1.0, 1.4 * 1.03), config)
    gap, z = gap_and_z(result.mean_aoi, theory, result.stderr)
    limit = z_limit(10)
    elapsed = time.perf_counter() - start
    report(
        "a simulation with mu2 3% fast passes the 2% bound but fails the z-gate",
        abs(gap) < 0.02 and abs(z) > limit and elapsed < 10.0,
        f"rel gap {gap:+.3%}, z {z:+.2f} against {limit:.2f}, {elapsed:.1f}s",
    )


def test_two_sensor_beats_single_queue():
    start = time.perf_counter()
    config = SimConfig()
    separated = True
    recorded = []
    for lam in (0.2, 0.5, 1.0, 2.0, 5.0):
        two = simulate_two_sensor(TwoSensorParams(lam / 2, lam / 2, 1.0, 1.0), config)
        one = simulate_mm11(lam, 1.0, config)
        pre = simulate_mm2_preemptive(lam, 1.0, config)
        separated &= (two.mean_aoi + two.ci95_halfwidth
                      < one.mean_aoi - one.ci95_halfwidth)
        recorded.append(
            f"lam={lam}: two={two.mean_aoi:.4f} mm11={one.mean_aoi:.4f} "
            f"mm2p={pre.mean_aoi:.4f}±{pre.ci95_halfwidth:.4f}")
    elapsed = time.perf_counter() - start
    # the preemptive-pair column is recorded for reference, not gated
    for line in recorded:
        print("  " + line)
    report(
        "two-sensor mean age sits below the single queue with CI separation "
        "at every arrival rate",
        separated and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_single_queue_cross_oracle():
    start = time.perf_counter()
    gaps, zs = [], []
    config = SimConfig()
    for lam, mu in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0)):
        model = single_queue_model(lam, mu)
        theory = average_age(solve_correlation(model, solve_stationary(model)))
        result = simulate_mm11(lam, mu, config)
        gap, z = gap_and_z(result.mean_aoi, theory, result.stderr)
        gaps.append(gap)
        zs.append(z)
    elapsed = time.perf_counter() - start
    limit = z_limit(config.num_trials)
    report(
        "two-state solve of the single blocking queue agrees with its "
        f"simulation within 2% and |z| <= {limit:.2f}",
        max(map(abs, gaps)) < 0.02 and max(map(abs, zs)) <= limit and elapsed < 30.0,
        f"worst rel gap {worst(gaps):+.3%}, worst z {worst(zs):+.2f}, {elapsed:.1f}s",
    )


def test_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 1000)
    ok = True

    # normalization, range, and nonnegative correlations
    for _ in range(100):
        params = TwoSensorParams(*rng.uniform(0.05, 20.0, size=4))
        breakdown = average_aoi_general(params)
        probs = breakdown.stationary.probs
        ok &= abs(probs.sum() - 1.0) < 1e-12
        ok &= bool((probs >= 0).all() and (probs <= 1).all())
        ok &= bool((breakdown.correlations.vectors >= 0).all())

    # relabeling invariance of the average age
    params = TwoSensorParams(0.7, 1.9, 1.3, 0.6)
    model = build_two_sensor_chain(params)
    base = average_age(solve_correlation(model, solve_stationary(model)))
    for _ in range(10):
        perm = rng.permutation(model.num_states)
        inverse = np.argsort(perm)
        shuffled_transitions = [
            (int(perm[t.from_state]), int(perm[t.to_state]), t.rate, t.reset_map)
            for t in model.transitions
        ]
        from aoi_shs.shs_core import build_model
        shuffled = build_model(model.num_states, model.num_components,
                               shuffled_transitions, model.slopes[inverse])
        value = average_age(solve_correlation(shuffled, solve_stationary(shuffled)))
        ok &= abs(value - base) < 1e-12 * max(1.0, base)

    # sensor swap symmetry
    for _ in range(50):
        draw = rng.uniform(0.05, 20.0, size=4)
        a = average_aoi_general(TwoSensorParams(*draw)).average_aoi
        b = average_aoi_general(
            TwoSensorParams(draw[1], draw[0], draw[3], draw[2])).average_aoi
        ok &= abs(a - b) / a < 1e-10

    # rate scaling law
    for factor in (0.5, 2.0, 10.0):
        for _ in range(10):
            draw = rng.uniform(0.05, 20.0, size=4)
            base_aoi = average_aoi_general(TwoSensorParams(*draw)).average_aoi
            scaled = average_aoi_general(TwoSensorParams(*(factor * draw))).average_aoi
            ok &= abs(scaled - base_aoi / factor) / (base_aoi / factor) < 1e-10

    # sawtooth behaviour of the exact window average
    from aoi_shs.des_sim import time_average_age
    for _ in range(50):
        count = int(rng.integers(0, 10))
        times = np.sort(rng.uniform(0.0, 20.0, size=count))
        gens = times * rng.uniform(0.0, 1.0, size=count)
        t0 = float(rng.uniform(0.0, 5.0))
        t1 = t0 + float(rng.uniform(0.5, 15.0))
        initial = float(rng.uniform(0.0, 3.0))
        fast = time_average_age(times, gens, (t0, t1), initial)
        slow = sawtooth_average_walk(times, gens, t0, t1, initial)
        ok &= abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))
        ok &= fast >= 0.0

    elapsed = time.perf_counter() - start
    report(
        "property suite: normalization, nonnegativity, relabeling invariance, "
        "swap symmetry, rate scaling, and sawtooth equivalence",
        ok and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


slow_tier = pytest.mark.skipif(
    os.environ.get("AOI_SHS_SLOW_TESTS") != "1",
    reason="long-horizon tier disabled; set AOI_SHS_SLOW_TESTS=1",
)


@slow_tier
def test_full_sweep_simulation_tracks_theory():
    import json

    from aoi_shs.cli import main

    start = time.perf_counter()
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["sweep-fig3", "--simulate", "--format", "json"])
    rows = json.loads(buffer.getvalue())
    quantile = stats.t.ppf(0.975, SimConfig().num_trials - 1)
    gaps, zs = zip(*(gap_and_z(row["sim_mean"], row["theory_aoi"], row["sim_ci95"] / quantile)
                     for row in rows))
    elapsed = time.perf_counter() - start
    limit = z_limit(SimConfig().num_trials)
    report(
        "all 81 simulated sweep cells land within 2% and |z| <= "
        f"{limit:.2f} of theory at the default protocol",
        code == 0 and len(rows) == 81
        and max(map(abs, gaps)) < 0.02 and max(map(abs, zs)) <= limit,
        f"worst rel gap {worst(gaps):+.3%}, worst z {worst(zs):+.2f}, {elapsed:.1f}s",
    )


@slow_tier
def test_long_horizon_convergence():
    start = time.perf_counter()
    theory = average_aoi_symmetric(1.0, 1.0)
    config = SimConfig(horizon=2e6, num_trials=10, seed=BASE_SEED)
    result = simulate_two_sensor(TwoSensorParams(1.0, 1.0, 1.0, 1.0), config)
    gap, z = gap_and_z(result.mean_aoi, theory, result.stderr)
    elapsed = time.perf_counter() - start
    limit = z_limit(config.num_trials)
    report(
        f"long-horizon symmetric run converges to the closed form within 0.5% "
        f"and |z| <= {limit:.2f}",
        abs(gap) < 0.005 and abs(z) <= limit,
        f"rel gap {gap:+.4%}, z {z:+.2f}, {elapsed:.1f}s",
    )
