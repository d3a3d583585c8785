import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_shs.des_sim import (
    SimConfig,
    simulate_mm11,
    simulate_mm2_preemptive,
    simulate_two_sensor,
    time_average_age,
)
from aoi_shs.two_sensor import TwoSensorParams, average_aoi_general
from oracles import (
    sawtooth_average_grid,
    sawtooth_average_walk,
    single_queue_average_age,
)

# recorded from the first verified run at this exact configuration
MM2P_REFERENCE = 1.170391540727024
MM2P_CONFIG = SimConfig(horizon=2e4, num_trials=5, seed=999, warmup=0.01)

# recorded before the three simulators shared one trial runner; at this
# horizon the arrival and service draws of sensor 1 and of the single queue
# each run past one draw block
PIN_CONFIG = SimConfig(horizon=2e4, num_trials=2, seed=77, warmup=0.02)
TWO_SENSOR_PIN = ((0.9165668747909197, 0.9216572201225445), 235257)
MM11_PIN = ((0.8967555520959994, 0.8991452239177874), 221042)

TRACE_CONFIG = SimConfig(horizon=200.0, num_trials=2, seed=9, warmup=0.0)
TRACE_RUNS = {
    "two_sensor": lambda trace_dir: simulate_two_sensor(
        TwoSensorParams(0.6, 0.9, 1.0, 1.2), TRACE_CONFIG, trace_dir),
    "mm11": lambda trace_dir: simulate_mm11(0.9, 1.2, TRACE_CONFIG, trace_dir),
    "mm2p": lambda trace_dir: simulate_mm2_preemptive(3.0, 1.0, TRACE_CONFIG, trace_dir),
}
# sha256 of trial_000.csv and trial_001.csv of each TRACE_RUNS entry at TRACE_CONFIG
TRACE_SHA256 = {
    "two_sensor": (
        "00f72fb4b108db017741216b740fcf7f0e67dda74edb88637bc5247805a26e95",
        "b604997aae7d9ca36dbbd6f3520d2b985d378af6a5433ddc90ebb597cdcbe060",
    ),
    "mm11": (
        "daefb5d70ef05ef02df0548a0fcf4ea0564bb1a97df5c786bce434ae219cf142",
        "4b7623c243afb5b65859b6161ed2c4fd8443968fd2c65e0ecb9e81e19ed768a1",
    ),
    "mm2p": (
        "a51c93f41bfdb1179fd45e623290fb7dc2f5f3389b5b234aeba9d082790bf1f5",
        "e37e477f97c91eb4c75f1836e420c9def42dc41e46c25be1a976a7db09ed7605",
    ),
}


@st.composite
def delivery_sequences(draw):
    horizon = draw(st.floats(min_value=2.0, max_value=30.0))
    count = draw(st.integers(min_value=0, max_value=12))
    times = sorted(
        draw(st.floats(min_value=0.001, max_value=horizon)) for _ in range(count)
    )
    fractions = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(count)]
    gens = [t * f for t, f in zip(times, fractions)]
    t0 = draw(st.floats(min_value=0.0, max_value=horizon / 3))
    t1 = t0 + draw(st.floats(min_value=0.5, max_value=horizon))
    initial_age = draw(st.floats(min_value=0.0, max_value=5.0))
    return times, gens, t0, t1, initial_age


class TestTimeAverageAge:
    def test_empty_window_is_linear_ramp(self):
        assert time_average_age([], [], (0.0, 10.0)) == pytest.approx(5.0)

    def test_single_accepted_delivery(self):
        # age runs 0..5, drops to 1, runs 1..6: integral 12.5 + 17.5 = 30
        assert time_average_age([5.0], [4.0], (0.0, 10.0)) == pytest.approx(3.0)

    def test_stale_delivery_changes_nothing(self):
        with_stale = time_average_age([5.0, 6.0], [4.0, 3.0], (0.0, 10.0))
        assert with_stale == pytest.approx(3.0)

    def test_deliveries_before_window_precondition_the_filter(self):
        # monitor already holds generation 0.9 when the window opens
        value = time_average_age([1.0], [0.9], (2.0, 4.0), initial_age=2.0)
        assert value == pytest.approx(2.1)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            time_average_age([2.0, 1.0], [0.5, 0.5], (0.0, 10.0))

    def test_future_generation_rejected(self):
        with pytest.raises(ValueError, match="generated"):
            time_average_age([2.0], [2.5], (0.0, 10.0))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            time_average_age([], [], (3.0, 3.0))

    def test_negative_initial_age_rejected(self):
        with pytest.raises(ValueError, match="initial_age"):
            time_average_age([], [], (0.0, 1.0), initial_age=-0.1)

    @settings(max_examples=120, deadline=None)
    @given(case=delivery_sequences())
    def test_matches_scalar_walk(self, case):
        times, gens, t0, t1, initial_age = case
        fast = time_average_age(times, gens, (t0, t1), initial_age)
        slow = sawtooth_average_walk(times, gens, t0, t1, initial_age)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)
        assert fast >= 0.0

    def test_matches_brute_force_grid(self):
        times = [1.0, 2.5, 4.0, 7.0]
        gens = [0.2, 2.4, 1.0, 6.5]
        fast = time_average_age(times, gens, (0.5, 9.0), initial_age=0.5)
        grid = sawtooth_average_grid(times, gens, 0.5, 9.0, initial_age=0.5)
        assert fast == pytest.approx(grid, rel=2e-3)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"horizon": 0.0},
        {"horizon": -5.0},
        {"num_trials": 0},
        {"warmup": 1.0},
        {"warmup": -0.1},
        {"seed": -1},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_event_budget_cap(self):
        config = SimConfig(horizon=1e6, num_trials=1)
        with pytest.raises(ValueError, match="event budget"):
            simulate_mm11(1e4, 1e4, config)


class TestReproducibility:
    SMALL = SimConfig(horizon=500.0, num_trials=3, seed=77, warmup=0.02)

    def run_all(self):
        params = TwoSensorParams(0.7, 1.1, 1.0, 1.3)
        return (
            simulate_two_sensor(params, self.SMALL),
            simulate_mm11(0.9, 1.2, self.SMALL),
            simulate_mm2_preemptive(1.5, 1.0, self.SMALL),
        )

    def test_identical_results_on_rerun(self):
        first = self.run_all()
        second = self.run_all()
        for a, b in zip(first, second):
            assert a.trial_values == b.trial_values
            assert a.mean_aoi == b.mean_aoi
            assert a.events_processed == b.events_processed

    def test_trial_values_independent_of_trial_count(self):
        params = TwoSensorParams(0.7, 1.1, 1.0, 1.3)
        few = simulate_two_sensor(params, SimConfig(horizon=500.0, num_trials=3, seed=77))
        many = simulate_two_sensor(params, SimConfig(horizon=500.0, num_trials=5, seed=77))
        assert many.trial_values[:3] == few.trial_values

    def test_summary_shape(self):
        result, *_ = self.run_all()
        assert len(result.trial_values) == 3
        assert result.stderr >= 0.0
        assert result.ci95_halfwidth == pytest.approx(1.96 * result.stderr)
        assert result.events_processed > 0
        assert result.mean_aoi > 0

    def test_two_sensor_pinned(self):
        result = simulate_two_sensor(TwoSensorParams(3.0, 1.1, 2.0, 1.3), PIN_CONFIG)
        assert (result.trial_values, result.events_processed) == TWO_SENSOR_PIN

    def test_mm11_pinned(self):
        result = simulate_mm11(4.0, 2.5, PIN_CONFIG)
        assert (result.trial_values, result.events_processed) == MM11_PIN

    @pytest.mark.parametrize("model", sorted(TRACE_RUNS))
    def test_trace_files_pinned(self, tmp_path, model):
        TRACE_RUNS[model](tmp_path)
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.glob("trial_*.csv"))
        )
        assert digests == TRACE_SHA256[model]

    def test_single_trial_has_zero_stderr(self):
        result = simulate_mm11(1.0, 1.0, SimConfig(horizon=300.0, num_trials=1, seed=3))
        assert result.stderr == 0.0
        assert result.ci95_halfwidth == 0.0


class TestAgainstTheory:
    def test_two_sensor_matches_solver(self):
        params = TwoSensorParams(0.5, 0.8, 1.0, 1.0)
        theory = average_aoi_general(params).average_aoi
        result = simulate_two_sensor(
            params, SimConfig(horizon=1e5, num_trials=4, seed=21, warmup=0.01))
        assert result.mean_aoi == pytest.approx(theory, rel=0.02)

    def test_single_queue_matches_two_state_solve(self):
        result = simulate_mm11(
            1.0, 1.0, SimConfig(horizon=1e5, num_trials=4, seed=31, warmup=0.01))
        assert result.mean_aoi == pytest.approx(
            single_queue_average_age(1.0, 1.0), rel=0.02)

    def test_single_queue_saturation(self):
        # at lam >> mu the blocking queue approaches an average age of 2/mu
        result = simulate_mm11(
            50.0, 1.0, SimConfig(horizon=1e4, num_trials=3, seed=5, warmup=0.01))
        assert result.mean_aoi == pytest.approx(2.0, rel=0.03)

    def test_preemptive_pair_sparse_arrivals_dominated_by_waiting(self):
        result = simulate_mm2_preemptive(
            0.05, 1.0, SimConfig(horizon=5e4, num_trials=4, seed=11, warmup=0.01))
        assert result.mean_aoi > 15.0

    def test_preemptive_pair_regression_value(self):
        result = simulate_mm2_preemptive(2.0, 1.0, MM2P_CONFIG)
        assert result.mean_aoi == pytest.approx(MM2P_REFERENCE, rel=1e-12)


class TestTrace:
    def parse(self, path: Path):
        lines = path.read_text().splitlines()
        rows = []
        for line in lines[1:]:
            t, kind, sensor, gen, age = line.split(",")
            rows.append((float(t), kind, int(sensor), float(gen), float(age)))
        return lines[0], rows

    @pytest.mark.parametrize("model", sorted(TRACE_RUNS))
    def test_post_event_ages(self, tmp_path, model):
        TRACE_RUNS[model](tmp_path)
        files = sorted(tmp_path.glob("trial_*.csv"))
        assert len(files) == 2
        header, rows = self.parse(files[0])
        assert header == "time,kind,sensor,generation_time,post_event_age"
        assert rows
        times = [r[0] for r in rows]
        assert times == sorted(times)
        kinds = {"arrival", "preempt", "delivery"} if model == "mm2p" else {
            "arrival", "blocked", "delivery"}
        assert {r[1] for r in rows} <= kinds
        assert {r[2] for r in rows} <= ({1} if model == "mm11" else {1, 2})
        assert any(r[1] == "delivery" for r in rows)
        # recompute the post-event ages with an independent filter walk
        held = 0.0
        for t, kind, _, gen, age in rows:
            assert gen <= t + 1e-12
            if kind == "delivery" and gen > held:
                held = gen
            assert age == pytest.approx(t - held, abs=1e-9)
            assert age >= 0.0

    def test_preemptive_trace_kinds(self, tmp_path):
        config = SimConfig(horizon=300.0, num_trials=1, seed=12, warmup=0.0)
        simulate_mm2_preemptive(3.0, 1.0, config, trace_dir=tmp_path)
        header, rows = self.parse(tmp_path / "trial_000.csv")
        kinds = {r[1] for r in rows}
        assert kinds <= {"arrival", "preempt", "delivery"}
        assert "preempt" in kinds
        counted = sum(1 for r in rows if r[1] in ("arrival", "preempt", "delivery"))
        assert counted == len(rows)
