import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_shs import des_sim
from aoi_shs.des_sim import (
    SimConfig,
    simulate_mm11,
    simulate_mm2_preemptive,
    simulate_two_sensor,
    time_average_age,
)
from aoi_shs.two_sensor import TwoSensorParams, average_aoi_general
from oracles import (
    blocking_channel_loop,
    blocking_system_trial,
    integrate_whole,
    preemptive_pair_scan,
    running_sum_blocks,
    sawtooth_average_grid,
    sawtooth_average_walk,
    single_queue_average_age,
)

# recorded from the first verified run at this exact configuration
MM2P_REFERENCE = 1.170391540727024
MM2P_CONFIG = SimConfig(horizon=2e4, num_trials=5, seed=999, warmup=0.01)

# recorded when the blocking channels moved to renewal form, after they
# matched the per-arrival scan of tests/oracles.py; at this horizon the
# accepted-update draws of sensor 1 and of the single queue each run past
# one draw block
PIN_CONFIG = SimConfig(horizon=2e4, num_trials=2, seed=77, warmup=0.02)
TWO_SENSOR_PIN = ((0.917302689681813, 0.9214665474039285), 235411)
MM11_PIN = ((0.899917682916618, 0.8979810116847353), 221077)
# recorded from the per-arrival loop, before the pair ran on arrays
MM2P_PIN = ((0.5275269043362499, 0.5275937053441493), 266618)

TRACE_CONFIG = SimConfig(horizon=200.0, num_trials=2, seed=9, warmup=0.0)
TRACE_RUNS = {
    "two_sensor": lambda trace_dir: simulate_two_sensor(
        TwoSensorParams(0.6, 0.9, 1.0, 1.2), TRACE_CONFIG, trace_dir),
    "mm11": lambda trace_dir: simulate_mm11(0.9, 1.2, TRACE_CONFIG, trace_dir),
    "mm2p": lambda trace_dir: simulate_mm2_preemptive(3.0, 1.0, TRACE_CONFIG, trace_dir),
}
# sha256 of trial_000.csv and trial_001.csv of each TRACE_RUNS entry at
# TRACE_CONFIG (two_sensor and mm11 re-recorded with the renewal form)
TRACE_SHA256 = {
    "two_sensor": (
        "9c81dacc00b59328b0eb92650a0d8039e67af17f8f34b27114deb9ff0578e2c7",
        "19222519f597bdf1f93863860178c3de49b5212919b5cabec2850b54fafcf9e7",
    ),
    "mm11": (
        "c343b99ccfcc085e0050f6d23c597af079ddb182661e0463b2c32136d19fc11f",
        "61e06af077c8dcd27da427d55513fc60f3707ab17d3fabd36b1fb6594c64e845",
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


@st.composite
def tied_delivery_sequences(draw):
    """Deliveries on a grid of quarter units, so that instants repeat and the
    window's ends can fall on a delivery."""
    grid = st.integers(min_value=1, max_value=40).map(lambda q: q / 4)
    times = sorted(draw(st.lists(grid, max_size=12)))
    gens = [t * draw(st.floats(min_value=0.0, max_value=1.0)) for t in times]
    t0 = draw(st.sampled_from([0.0, *times]))
    t1 = t0 + draw(st.sampled_from([0.25, 1.0, 5.5, 11.0]))
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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            time_average_age([1.0, 2.0], [0.5], (0.0, 10.0))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            time_average_age([], [], (3.0, 3.0))

    def test_negative_initial_age_rejected(self):
        with pytest.raises(ValueError, match="initial_age"):
            time_average_age([], [], (0.0, 1.0), initial_age=-0.1)

    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 3.0), (math.nan, 3.0)])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            time_average_age([1.0], [0.5], window)

    @pytest.mark.parametrize("initial_age", [math.nan, math.inf])
    def test_non_finite_initial_age_rejected(self, initial_age):
        with pytest.raises(ValueError, match="initial_age"):
            time_average_age([], [], (0.0, 1.0), initial_age=initial_age)

    @pytest.mark.parametrize("window, initial_age, field", [
        pytest.param((0.0, True), 0.0, "window", id="t1-bool"),
        pytest.param((False, 1.0), 0.0, "window", id="t0-bool"),
        pytest.param(("0", 1.0), 0.0, "window", id="t0-str"),
        pytest.param((0.0, "1"), 0.0, "window", id="t1-str"),
        pytest.param((0.0, 1.0), True, "initial_age", id="initial-age-bool"),
        pytest.param((0.0, 1.0), "0.5", "initial_age", id="initial-age-str"),
    ])
    def test_non_real_window_or_initial_age_rejected(self, window, initial_age, field):
        with pytest.raises(ValueError, match=field):
            time_average_age([1.0], [0.5], window, initial_age=initial_age)

    def test_numpy_window_and_initial_age_accepted(self):
        value = time_average_age([1.0], [0.9], (np.float64(2.0), np.int64(4)),
                                 initial_age=np.float32(2.0))
        assert value == time_average_age([1.0], [0.9], (2.0, 4.0), initial_age=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delivery_time_rejected(self, bad):
        # a nan delivery time used to pass the sort check
        with pytest.raises(ValueError, match="finite"):
            time_average_age([1.0, bad], [0.5, 0.2], (0.0, 3.0))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_generation_time_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            time_average_age([1.0, 2.0], [0.5, bad], (0.0, 3.0))

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

    # windows of 1, 2 and about one, two and more blocks of segments (a
    # window holding m deliveries has m + 1 segments)
    @pytest.mark.parametrize("segments", [1, 2, des_sim._DRAW_BLOCK - 1, des_sim._DRAW_BLOCK,
                                          des_sim._DRAW_BLOCK + 1, 2 * des_sim._DRAW_BLOCK + 1])
    def test_chunks_match_whole_array_integration(self, segments):
        rng = np.random.default_rng(segments)
        # deliveries before, inside and after the window; a quarter of them
        # have their generation set back by Exp(3), which makes most of those
        # stale
        before, after = 5, 7
        times = np.cumsum(rng.exponential(1.0, before + segments - 1 + after)) + 1.0
        gens = times - rng.exponential(0.5, times.size)
        stale = rng.random(times.size) < 0.25
        gens[stale] -= rng.exponential(3.0, stale.sum())
        t0 = float(np.nextafter(times[before - 1], np.inf))
        t1 = float(times[before + segments - 1])
        inside = times[(times > t0) & (times < t1)].size
        assert inside == segments - 1
        for initial_age in (0.0, 2.5):
            for window in ((t0, t1), (0.5, t1), (t0, times[-1] + 3.0)):
                expected = integrate_whole(times, gens, window, initial_age)
                assert time_average_age(times, gens, window, initial_age) == expected
        # a window with no delivery inside, and one with none before it
        empty = (float(times[3]) + 1e-9, float(times[4]) - 1e-9)
        assert time_average_age(times, gens, empty, 1.5) == integrate_whole(
            times, gens, empty, 1.5)
        assert time_average_age([], [], (2.0, 9.0), 1.0) == integrate_whole(
            [], [], (2.0, 9.0), 1.0)

    # the integral's scratch is one draw block long
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_any_chunk_size_matches_whole_array_integration(self, monkeypatch, chunk):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", chunk)
        rng = np.random.default_rng(chunk)
        times = np.cumsum(rng.exponential(1.0, 300))
        # every third delivery is stale
        gens = times - np.where(np.arange(300) % 3 == 2, 4.0, 0.3) * rng.random(300)
        for window, initial_age in (((10.0, 250.0), 0.0), ((0.1, 400.0), 3.0)):
            assert time_average_age(times, gens, window, initial_age) == integrate_whole(
                times, gens, window, initial_age)

    @settings(max_examples=200, deadline=None)
    @given(case=tied_delivery_sequences(), data=st.data())
    def test_batches_split_anywhere_match_whole_call(self, case, data):
        # the simulators feed the integral one merged block at a time
        times, gens, t0, t1, initial_age = case
        cuts = {0, len(times)}
        for instant in (t0, t1):  # at the window's ends, on either side
            cuts.update(np.searchsorted(times, instant, side=side) for side in ("left", "right"))
        # between equal instants
        cuts.update(i for i in range(1, len(times)) if times[i - 1] == times[i])
        cuts.update(data.draw(st.lists(st.integers(0, len(times)), max_size=4)))
        cuts = sorted(cuts)
        # a small area buffer has to grow, and a small one sets small scratch
        integral = des_sim._AgeIntegral(t0, t1, data.draw(st.integers(1, 16)))
        integral.start(t0 - initial_age)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            integral.add(np.array(times[lo:hi]), np.array(gens[lo:hi]))
        assert integral.value() == time_average_age(times, gens, (t0, t1), initial_age)


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

    @pytest.mark.parametrize("kwargs", [
        {"num_trials": 2.5},
        {"num_trials": 3.0},
        {"num_trials": True},
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": None},
    ])
    def test_non_integer_trials_and_seed_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"horizon": "5"},
        {"warmup": "0.1"},
        {"horizon": True},
        {"horizon": None},
        {"warmup": False},
    ])
    def test_non_real_horizon_and_warmup_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            SimConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        config = SimConfig(horizon=np.float64(50.0), warmup=np.float32(0.25))
        assert (config.horizon, config.warmup) == (50.0, 0.25)
        assert SimConfig(horizon=np.int64(7)).horizon == 7

    def test_numpy_horizon_shown_as_plain_number(self):
        with pytest.raises(ValueError) as exc:
            SimConfig(horizon=np.float64(-1))
        assert str(exc.value) == "horizon must be strictly positive and finite, got -1.0"

    def test_numpy_integer_seed_accepted(self):
        assert SimConfig(num_trials=np.int64(2), seed=np.uint64(7)).seed == 7

    @pytest.mark.parametrize("bad", [True, "1"], ids=["bool", "string"])
    @pytest.mark.parametrize("simulate", [simulate_mm11, simulate_mm2_preemptive])
    def test_non_real_rates_rejected(self, simulate, bad):
        with pytest.raises(ValueError, match="lam must be strictly positive and finite"):
            simulate(bad, 1.0, SimConfig(horizon=10.0, num_trials=1))

    def test_event_budget_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="event budget"):
            simulate_mm11(1e4, 1e4, SimConfig(horizon=1e6, num_trials=1))
        # each model's total rate times the horizon against the cap: a run
        # exactly at it goes ahead, one just over it is refused
        monkeypatch.setattr(des_sim, "MAX_EXPECTED_EVENTS", 100)
        config = SimConfig(horizon=20.0, num_trials=1)
        cases = {  # lam + mu, lam + 2 mu, lam1 + lam2 + mu1 + mu2
            simulate_mm11: ((2, 3), (2, 3.1)),
            simulate_mm2_preemptive: ((2, 1.5), (2, 1.55)),
            simulate_two_sensor: (((1, 1, 1.5, 1.5),), ((1, 1, 1.5, 1.6),)),
        }
        refused = r"total rate = 1\.020e\+02 is above the cap 1e\+02"
        for simulate, (at_cap, over_cap) in cases.items():
            assert simulate(*at_cap, config).events_processed > 0
            with pytest.raises(ValueError, match=refused):
                simulate(*over_cap, config)


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

    def test_plain_tuple_params_give_the_same_result(self):
        rates = (0.7, 1.1, 1.0, 1.3)
        assert (simulate_two_sensor(rates, self.SMALL)
                == simulate_two_sensor(TwoSensorParams(*rates), self.SMALL))

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

    def test_mm2p_pinned(self):
        result = simulate_mm2_preemptive(4.0, 2.5, PIN_CONFIG)
        assert (result.trial_values, result.events_processed) == MM2P_PIN

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


# the blocking simulators against the per-arrival scan of tests/oracles.py,
# as the channels (lambda, mu) of one system
ORACLE_CASES = {
    "mm11-light": ((1.0, 1.0),),
    "mm11-saturated": ((4.0, 1.0),),
    "two_sensor-light": ((0.4, 1.0), (0.6, 1.3)),
    "two_sensor-saturated": ((2.5, 1.0), (1.5, 0.8)),
}
ORACLE_TRIALS = 40
ORACLE_HORIZON = 2000.0
ORACLE_WARMUP = 0.01
ORACLE_SEED = 2024


def _simulate_blocking(channels, config):
    if len(channels) == 1:
        return simulate_mm11(*channels[0], config)
    (l1, m1), (l2, m2) = channels
    return simulate_two_sensor(TwoSensorParams(l1, l2, m1, m2), config)


def _drain(stream):
    """A channel's blocks joined, and its arrival count; checks that each
    block starts no earlier than the last delivery before it."""
    deps, gens, last = [], [], -math.inf
    while True:
        try:
            block_deps, block_gens = next(stream)
        except StopIteration as stop:
            return np.concatenate(deps), np.concatenate(gens), stop.value
        assert (np.diff(block_deps, prepend=last) >= 0).all()
        last = block_deps[-1] if block_deps.size else last
        deps.append(block_deps.copy())
        gens.append(block_gens.copy())


def _mean_and_stderr(values):
    arr = np.asarray(values, dtype=float)
    return arr.mean(), arr.std(ddof=1) / math.sqrt(arr.size)


class TestRenewalChannel:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_arrival_scan(self, case):
        channels = ORACLE_CASES[case]
        # one trial per seed, so that each trial's event count is seen
        renewal = [
            _simulate_blocking(channels, SimConfig(
                horizon=ORACLE_HORIZON, num_trials=1, seed=seed, warmup=ORACLE_WARMUP))
            for seed in range(ORACLE_TRIALS)
        ]
        scanned = [
            blocking_system_trial(channels, ORACLE_HORIZON, ORACLE_WARMUP,
                                  np.random.default_rng([ORACLE_SEED, trial]))
            for trial in range(ORACLE_TRIALS)
        ]
        pairs = {
            "mean age": ([r.mean_aoi for r in renewal], [v for v, _ in scanned]),
            "events per trial": ([r.events_processed for r in renewal],
                                 [e for _, e in scanned]),
        }
        for name, (fast, slow) in pairs.items():
            (m_fast, se_fast), (m_slow, se_slow) = _mean_and_stderr(fast), _mean_and_stderr(slow)
            joint = math.hypot(se_fast, se_slow)
            assert abs(m_fast - m_slow) <= 4 * joint, (name, m_fast, m_slow, joint)

    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (4.0, 1.0), (0.3, 2.0), (50.0, 1.0)])
    def test_matches_plain_loop_bit_for_bit(self, lam, mu):
        # the accepted updates run past two draw blocks
        horizon = 2.5 * des_sim._DRAW_BLOCK * (1.0 / lam + 1.0 / mu)
        streams = [des_sim._rng(5, 0, s) for s in (0, 1)]
        deps, gens, n_arrivals = _drain(
            des_sim._BlockingChannel(lam, mu, horizon, 1)(*streams, None))
        streams = [des_sim._rng(5, 0, s) for s in (0, 1)]
        ref_deps, ref_gens, ref_arrivals = blocking_channel_loop(
            lam, mu, horizon, *streams, block=des_sim._DRAW_BLOCK)
        assert deps.size > 2 * des_sim._DRAW_BLOCK
        assert np.array_equal(deps, ref_deps)
        assert np.array_equal(gens, ref_gens)
        assert n_arrivals == ref_arrivals

    @pytest.mark.parametrize("model", ["mm11", "two_sensor"])
    def test_blocked_rows_inside_busy_intervals(self, tmp_path, model):
        TRACE_RUNS[model](tmp_path)
        for path in sorted(tmp_path.glob("trial_*.csv")):
            _, rows = TestTrace().parse(path)
            for sensor in {r[2] for r in rows}:
                mine = [r for r in rows if r[2] == sensor]
                starts = [r[0] for r in mine if r[1] == "arrival"]
                delivered = {r[3]: r[0] for r in mine if r[1] == "delivery"}
                blocked = [r[0] for r in mine if r[1] == "blocked"]
                assert blocked
                for b in blocked:
                    i = np.searchsorted(starts, b) - 1
                    assert i >= 0
                    start = starts[i]
                    # an update still in service at the horizon has no delivery row
                    end = delivered.get(start, math.nextafter(TRACE_CONFIG.horizon, math.inf))
                    assert start < b < end

    @pytest.mark.parametrize("model", sorted(TRACE_RUNS))
    def test_traced_run_matches_untraced(self, tmp_path, model):
        traced = TRACE_RUNS[model](tmp_path)
        untraced = TRACE_RUNS[model](None)
        assert traced.trial_values == untraced.trial_values
        assert traced.events_processed == untraced.events_processed


class TestPeakMemory:
    """One trial's tracemalloc peak per offered arrival (the total arrival
    rate times the horizon; the two sensors share it evenly). A trial
    streams through block buffers, so what grows with it is 8 B per
    delivery (the age integral's areas) and, in a blocking channel, 8 B per
    accepted update (its busy times). Each bound is about a quarter above
    the streamed figure (2.3, 5.9, 4.2, 4.4 and 10.3 B, in the order
    below); the whole-trial arrays took 19.3, 22.3, 22.2, 5.5 and 13.9 B."""

    @pytest.mark.parametrize("model,lam,horizon,bound", [
        ("mm2p", 50.0, 2e4, 3.0),
        ("mm2p", 4.0, 2e5, 7.5),
        ("mm2p", 4.0, 2e6, 5.5),
        ("mm11", 4.0, 2e5, 5.5),
        ("two_sensor", 4.0, 2e5, 13.0),
    ])
    def test_bytes_per_offered_arrival(self, model, lam, horizon, bound):
        simulate = {
            "mm2p": lambda config: simulate_mm2_preemptive(lam, 1.0, config),
            "mm11": lambda config: simulate_mm11(lam, 1.0, config),
            "two_sensor": lambda config: simulate_two_sensor(
                TwoSensorParams(lam / 2, lam / 2, 1.0, 1.0), config),
        }[model]
        config = SimConfig(horizon=horizon, num_trials=1)
        tracemalloc.start()
        try:
            simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (lam * horizon) < bound


def _oracle_trial(model, channels, config: SimConfig, trial: int):
    """One trial's value and events from the oracles of tests/oracles.py: the
    per-arrival pair, or the step-by-step blocking channels merged by one
    stable sort, both drawing in blocks of ``des_sim._DRAW_BLOCK``, and the
    whole-array age integral."""
    block = des_sim._DRAW_BLOCK
    if model == "mm2p":
        ((lam, mu),) = channels
        deps, gens, n_arrivals, _ = preemptive_pair_scan(
            lam, mu, config.horizon, des_sim._rng(config.seed, trial, 0),
            des_sim._rng(config.seed, trial, 1), block)
        events = n_arrivals + len(deps)
    else:
        deps, gens, events = [], [], 0
        for k, (lam, mu) in enumerate(channels):
            d, g, n_arrivals = blocking_channel_loop(
                lam, mu, config.horizon, des_sim._rng(config.seed, trial, 2 * k),
                des_sim._rng(config.seed, trial, 2 * k + 1), block)
            deps += d
            gens += g
            events += n_arrivals + len(d)
        order = np.argsort(deps, kind="stable")
        deps, gens = np.asarray(deps)[order], np.asarray(gens)[order]
    t0 = config.warmup * config.horizon
    return integrate_whole(deps, gens, (t0, config.horizon), t0), events


class TestBlockEdges:
    """Small draw blocks put the pair's pending decisions and held
    deliveries, and the two-channel merge, across many block edges; trial
    values and event counts still equal the oracles' bit for bit, traced or
    not."""

    CASES = {  # model, (lambda, mu) per channel, horizon
        # lambda/mu = 0.01: a busy arrival is rare, so updates stay pending
        # for about a hundred arrivals
        "mm2p-0.01": ("mm2p", ((0.01, 1.0),), 4e4),
        "mm2p-1": ("mm2p", ((1.0, 1.0),), 400.0),
        "mm2p-50": ("mm2p", ((50.0, 1.0),), 8.0),
        "mm11-0.01": ("mm11", ((0.01, 1.0),), 4e4),
        "mm11-50": ("mm11", ((50.0, 1.0),), 400.0),
        "two_sensor-1": ("two_sensor", ((1.0, 1.0), (1.0, 1.0)), 400.0),
        # sensor 1's blocks span far more time than sensor 2's
        "two_sensor-skewed": ("two_sensor", ((0.05, 1.0), (2.0, 1.0)), 600.0),
    }

    @pytest.mark.parametrize("block", [3, 7, 64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_oracles(self, monkeypatch, tmp_path, case, block):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        model, channels, horizon = self.CASES[case]
        config = SimConfig(horizon=horizon, num_trials=2, seed=31, warmup=0.05)
        if model == "mm2p":
            def run(trace_dir):
                return simulate_mm2_preemptive(*channels[0], config, trace_dir)
        else:
            def run(trace_dir):
                return des_sim._simulate_blocking(channels, config, trace_dir)
        result = run(None)
        expected = [_oracle_trial(model, channels, config, trial) for trial in range(2)]
        assert result.trial_values == tuple(value for value, _ in expected)
        assert result.events_processed == sum(events for _, events in expected)
        assert result.events_processed > 10 * block  # several blocks per trial
        assert run(tmp_path) == result


def _stream(times, gens, cuts, arrivals):
    """A channel stream yielding ``times`` and ``gens`` split at ``cuts``."""
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield np.array(times[lo:hi], dtype=float), np.array(gens[lo:hi], dtype=float)
    return arrivals


class TestMerge:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_one_stable_sort_of_all_channels(self, data):
        # instants on a quarter grid repeat within and across channels and
        # blocks, some blocks are empty, and each generation time names its
        # delivery, so the order of equal instants is seen
        streams, times, gens = [], [], []
        for k in range(data.draw(st.integers(1, 3))):
            mine = sorted(data.draw(st.lists(st.integers(0, 12).map(lambda q: q / 4),
                                             max_size=15)))
            cuts = sorted([0, len(mine), *data.draw(st.lists(st.integers(0, len(mine)),
                                                             max_size=5))])
            named = [100.0 * k + i for i in range(len(mine))]
            streams.append(_stream(mine, named, cuts, arrivals=k + 1))
            times += mine
            gens += named
        batches = []
        events = des_sim._Merge()(streams, lambda d, g: batches.append((d.copy(), g.copy())))
        order = np.argsort(times, kind="stable")
        merged = np.concatenate([d for d, _ in batches] or [np.empty(0)])
        assert np.array_equal(merged, np.asarray(times)[order])
        assert np.array_equal(np.concatenate([g for _, g in batches] or [np.empty(0)]),
                              np.asarray(gens)[order])
        assert events == len(times) + sum(range(1, len(streams) + 1))


TRACE_KIND_CODES = {"arrival": 0, "delivery": 2, "preempt": 3}


def _time_sorted(columns):
    order = np.argsort(columns[0], kind="stable")
    return [np.asarray(column)[order] for column in columns]


class TestPreemptivePair:
    """The array form of the pair against the per-arrival loop of
    tests/oracles.py, on the same streams: equal bit for bit."""

    def check(self, lam, mu, horizon, seed):
        streams = [des_sim._rng(seed, 0, s) for s in (0, 1)]
        trace = []
        deps, gens, n_arrivals = _drain(
            des_sim._PreemptivePair(lam, mu, horizon)(*streams, trace))
        streams = [des_sim._rng(seed, 0, s) for s in (0, 1)]
        ref_deps, ref_gens, ref_arrivals, rows = preemptive_pair_scan(
            lam, mu, horizon, *streams, block=des_sim._DRAW_BLOCK)
        assert np.array_equal(deps, ref_deps)
        assert np.array_equal(gens, ref_gens)
        assert n_arrivals == ref_arrivals
        (chunk,) = trace
        times, kinds, servers, generations = rows
        ref = (times, [TRACE_KIND_CODES[k] for k in kinds], servers, generations)
        for column, ref_column in zip(_time_sorted(chunk), _time_sorted(ref)):
            assert np.array_equal(column, ref_column)
        return n_arrivals, rows

    @pytest.mark.parametrize("seed", [1, 12345])
    # lam/mu = 50 makes almost every arrival busy, 0.05 almost none
    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (4.0, 1.0), (0.3, 2.0), (10.0, 1.0),
                                        (50.0, 1.0), (0.05, 1.0)])
    def test_matches_per_arrival_loop(self, lam, mu, seed):
        # the arrivals run past one draw block
        n_arrivals, rows = self.check(lam, mu, 1.25 * des_sim._DRAW_BLOCK / lam, seed)
        assert n_arrivals > des_sim._DRAW_BLOCK
        assert {"arrival", "preempt", "delivery"} <= set(rows[1])

    # n arrivals fill whole draw blocks: put n and n + 2 just below, at and
    # just above a multiple of the block size, so that the last block holds
    # none or a few of them and decides the updates left pending
    @pytest.mark.parametrize("offset", [-3, -2, -1, 0, 1])
    @pytest.mark.parametrize("lam,mu", [(4.0, 1.0), (50.0, 1.0)])
    def test_matches_per_arrival_loop_across_chunk_edges(self, lam, mu, offset):
        n = 2 * des_sim._DRAW_BLOCK + offset
        rng = des_sim._rng(3, 0, 0)
        arrivals = running_sum_blocks(
            lambda: rng.exponential(1.0 / lam, des_sim._DRAW_BLOCK), (n + 1) / lam * 1.2)
        horizon = float(arrivals[n - 1] + arrivals[n]) / 2
        n_arrivals, rows = self.check(lam, mu, horizon, 3)
        assert n_arrivals == n
        assert {"arrival", "preempt", "delivery"} <= set(rows[1])

    # small draw blocks put many block edges inside one short run
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (4.0, 1.0)])
    def test_any_chunk_size_matches_per_arrival_loop(self, monkeypatch, lam, mu, chunk):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", chunk)
        assert self.check(lam, mu, 500.0 / lam, 8)[0] > 400

    @pytest.mark.parametrize("seed", [1, 12345])
    def test_no_arrival_and_one_arrival(self, seed):
        first, second = np.cumsum(des_sim._rng(seed, 0, 0).exponential(1.0, 2))
        assert self.check(1.0, 1.0, first / 2, seed)[0] == 0
        assert self.check(1.0, 1.0, (first + second) / 2, seed)[0] == 1
