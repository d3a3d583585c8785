import hashlib
import io
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from aoi_shs import des_sim
from aoi_shs.des_sim import (
    SimConfig,
    simulate_mm11,
    simulate_mm2_preemptive,
    simulate_two_sensor,
    time_average_age,
)
from aoi_shs.shs_core import average_age, solve_correlation, solve_stationary
from aoi_shs.two_sensor import TwoSensorParams, average_aoi_general
from oracles import (
    blocking_channel_loop,
    blocking_system_trial,
    exact_solve,
    integrate_whole,
    preemptive_pair_model,
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
# one draw block. The event counts were re-recorded when the blocked counts
# moved to the jumped wait stream, and again when each block drew its own
# blocked count; the trial values did not move
PIN_CONFIG = SimConfig(horizon=2e4, num_trials=2, seed=77, warmup=0.02)
TWO_SENSOR_PIN = ((0.917302689681813, 0.9214665474039285), 235374)
MM11_PIN = ((0.899917682916618, 0.8979810116847353), 220772)
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
# TRACE_CONFIG (two_sensor and mm11 re-recorded with the renewal form, again
# when their blocked rows moved to the jumped wait stream, again when each
# block placed its blocked rows from the wait stream jumped twice, and again
# when the blocked arrivals lost their rows: each file is the one before with
# its blocked rows deleted)
TRACE_SHA256 = {
    "two_sensor": (
        "5e61f97a632d7bf5935c54b9621f4c9b8eeab96da4780787c50b16ac13e3f637",
        "b32ae23ff42480c7b64e730423713316c2063f3d87ca5cecb198161e79488c3f",
    ),
    "mm11": (
        "e45a3890cf698a883834f53ef27b1c23c6e5671dc606148bb2dcdf0cdf4eb064",
        "61740944a82e4f9c6101ca78748b5a02e83e8f26744adf88829e6c765b26cf97",
    ),
    "mm2p": (
        "a51c93f41bfdb1179fd45e623290fb7dc2f5f3389b5b234aeba9d082790bf1f5",
        "e37e477f97c91eb4c75f1836e420c9def42dc41e46c25be1a976a7db09ed7605",
    ),
}

# one trial past the first draw block of each channel: about 17600 cycles of
# sensor 1 and of the single queue, 22000 arrivals at the pair
LONG_TRACE_CONFIG = SimConfig(horizon=2.2e4, num_trials=1, seed=5, warmup=0.0)
LONG_TRACE_RUNS = {
    "two_sensor": lambda trace_dir: simulate_two_sensor(
        TwoSensorParams(1.0, 0.5, 4.0, 1.0), LONG_TRACE_CONFIG, trace_dir),
    "mm11": lambda trace_dir: simulate_mm11(1.0, 4.0, LONG_TRACE_CONFIG, trace_dir),
    "mm2p": lambda trace_dir: simulate_mm2_preemptive(1.0, 1.0, LONG_TRACE_CONFIG, trace_dir),
}
# sha256 of the trial files of one run, joined in trial order: the
# LONG_TRACE_RUNS entries, and the TestBlockEdges cases at two block sizes;
# recorded while each channel still appended its trace after its last block,
# the two_sensor and mm11 ones re-recorded when each block drew its own
# blocked count and placed its blocked rows, and again when the blocked
# arrivals lost their rows
LONG_TRACE_SHA256 = {
    "two_sensor": "9ba9ad5d944597bb74d1fa38a7a391b53e22560dcf2e76c7d0a689b5010faaf2",
    "mm11": "473e1395eac7c8f6d5979bac799e0fcdd98ded71f73ea73a103ff8ce9d847bcf",
    "mm2p": "151302e3a31b54f219039ff99ac8db5a162c0426c45bcb5a9e7aedcdc217f49a",
}
BLOCK_EDGE_TRACE_SHA256 = {
    7: {
        "mm11-0.01": "ab12aab75e099ce6c4d9122db381e0021d6fa80a29e9f78562c043a716b2bbe9",
        "mm11-50": "c9fab44e3d59a2c20eb30ca85330e6ca35b4d0dc174f48c9d7dd435d1cb76ad7",
        "mm2p-0.01": "897b49665601ced5e559bae0109ae7db7dc91742caa1a5d1dc52c7802a03ef58",
        "mm2p-1": "4422cad282d7b155c2ea221fe0dedef4c431c53eea8fdf719b7ed0b2517b4f94",
        "mm2p-50": "5bc9176eeb5fa38c059302e0450546d7d06a1bf921f6db02add8a7412b5ff10c",
        "two_sensor-1": "6f30e91878c4167e91b9d7d2892e35cac576f8d2e7556c9aafa5e1de57c6133d",
        "two_sensor-skewed": "3a824ad43076206291f79c0911038679a668f03c5fba584cedbad1e81987cb66",
    },
    64: {
        "mm11-0.01": "d3118470af899fd8e78e3709b5d71b2bb34565f80d2cd439b4ff3255f1239d9a",
        "mm11-50": "1d91c31f074fe54f4e13f20b7063a5dcee9bf423009fbd7bf3b00e1ec4849c2e",
        "mm2p-0.01": "7b4843dcca162bbf7523204ba0c66b87dae544dfa2ea2806d5b24ad94b669992",
        "mm2p-1": "5ecc5e9373491b930b286fa2de4d17c9375ff3368d90f61475693c86ef93415c",
        "mm2p-50": "1577e48fbc5ed1a9467812c48bd053d7181f29f5de97f109243fa681940ab4f7",
        "two_sensor-1": "879108326aa388f7b5900f3594eec5659ba6b22e7bf2b73fc92d733d6e87446a",
        "two_sensor-skewed": "449d64ca2f19e35e88ec08271cc56314d52e927cb9586edbf03a9cba8def895c",
    },
}


def _trace_digest(trace_dir) -> str:
    """sha256 of the trial files in ``trace_dir``, joined in trial order."""
    digest = hashlib.sha256()
    for path in sorted(Path(trace_dir).glob("trial_*.csv")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_rows_and_blocked_make_the_events(result, trace_dir):
    """A blocking run's trace has one row per accepted arrival and per
    delivery and none per blocked arrival, so its arrival and delivery rows
    and its blocked counts add up to its events exactly."""
    kinds = Counter(line.split(",")[1]
                    for path in Path(trace_dir).glob("trial_*.csv")
                    for line in path.read_text().splitlines()[1:])
    assert set(kinds) == {"arrival", "delivery"}
    assert kinds["arrival"] + kinds["delivery"] + sum(result.blocked) == result.events_processed


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

    @pytest.mark.parametrize("window, initial_age", [
        ((0.0, 1e160), 0.0),
        ((-1e308, 1e308), 0.0),
        ((0.0, 1e100), 1e300),
        ((8e307, math.nextafter(8e307, math.inf)), 0.0),
    ])
    def test_window_whose_integral_overflows_rejected(self, window, initial_age):
        with pytest.raises(ValueError, match="too wide: its age integral overflows"):
            time_average_age([], [], window, initial_age)

    def test_widest_windows_accepted(self):
        assert time_average_age([], [], (0.0, 1e154)) == 5e153
        assert time_average_age([], [], (-1e154, 1e153)) == pytest.approx(5.5e153, rel=1e-15)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            time_average_age([], [], (3.0, 3.0))

    def test_negative_initial_age_rejected(self):
        with pytest.raises(ValueError, match="initial_age"):
            time_average_age([], [], (0.0, 1.0), initial_age=-0.1)

    @pytest.mark.parametrize("window", [
        (0.0, math.inf), (-math.inf, 3.0), (math.nan, 3.0),
        # past the float range, and two ends of one float
        (0.0, 10**400), (-10**400, 3.0), (0.0, Fraction(10**400)),
        (Fraction(1, 10**400), Fraction(2, 10**400)),
    ])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            time_average_age([1.0], [0.5], window)

    @pytest.mark.parametrize("initial_age", [
        math.nan, math.inf, pytest.param(10**400, id="int-past-floats"),
        pytest.param(Fraction(10**400), id="fraction-past-floats"),
    ])
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
        # small scratch puts chunk edges inside and between the batches
        with mock.patch.object(des_sim, "_DRAW_BLOCK", data.draw(st.integers(1, 16))):
            integral = des_sim._AgeIntegral(t0, t1)
            integral.start(t0 - initial_age)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                integral.add(np.array(times[lo:hi]), np.array(gens[lo:hi]))
            assert integral.value() == time_average_age(times, gens, (t0, t1), initial_age)


class TestAgeIntegralLevels:
    """The integral takes each segment's level as the larger of the last two
    generation times and checks it against the running maximum; the
    simulators' deliveries always pass that check, and other input falls
    back to the exact levels, bit for bit with the whole-array oracle."""

    @staticmethod
    def feed(times, gens, window, initial_age, cuts):
        integral = des_sim._AgeIntegral(*window)
        integral.start(window[0] - initial_age)
        cuts = [0, *cuts, len(times)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            integral.add(times[lo:hi], gens[lo:hi])
        return integral.value()

    @staticmethod
    def with_stale_run(rng, times, at, length, floor):
        """Fresh deliveries with ``length`` stale ones from ``at`` on, each
        below the level the monitor holds before the run."""
        gens = times - rng.uniform(0.1, 0.5, times.size)
        level = max(floor, float(gens[:at].max())) if at else floor
        gens[at:at + length] = level - rng.uniform(0.0, 2.0, length)
        return gens

    # chunk edges every 1, 2, 3 or 7 segments fall at, inside and after each
    # stale run
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_stale_runs_match_whole_array_integration(self, monkeypatch, block):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        rng = np.random.default_rng(block)
        n = 12
        times = 1.0 + np.arange(n) + rng.uniform(0.0, 0.5, n)
        window = (0.5, float(times[-1]) + 1.0)
        for length in (2, 3):
            for at in range(n - length + 1):
                for initial_age in (0.0, 0.4):
                    gens = self.with_stale_run(rng, times, at, length, window[0] - initial_age)
                    expected = integrate_whole(times, gens, window, initial_age)
                    assert time_average_age(times, gens, window, initial_age) == expected
                    # a batch starting at the run, an edge inside it, a batch
                    # of only the run, whose floor lies above every generation
                    # time in it, and batches of one delivery
                    for cuts in ([at], [at + 1], [at + length - 1], [at, at + length],
                                 range(1, n)):
                        assert self.feed(times, gens, window, initial_age, cuts) == expected

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("segments", [1, 2, 3])
    def test_short_windows_match_whole_array_integration(self, monkeypatch, block, segments):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        rng = np.random.default_rng(10 * block + segments)
        n = 9
        times = 1.0 + np.arange(n) + rng.uniform(0.0, 0.5, n)
        for length in (2, 3):
            for at in range(n - length + 1):
                gens = self.with_stale_run(rng, times, at, length, 0.0)
                # the window holds segments - 1 deliveries, from delivery j on
                for j in range(n - segments + 1):
                    window = (float(times[j]) - 0.1, float(times[j + segments - 1]) - 0.05)
                    inside = np.count_nonzero((times > window[0]) & (times < window[1]))
                    assert inside == segments - 1
                    for initial_age in (0.0, 2.0):
                        expected = integrate_whole(times, gens, window, initial_age)
                        for cuts in ([], [j], [j + 1], range(1, n)):
                            assert self.feed(times, gens, window, initial_age, cuts) == expected

    # lambda/mu of 0.05, 1, 4 and 50 at mu = 1, the two sensors sharing
    # lambda, and one skewed pair of sensors; about 3e4 events each
    POINTS = {
        **{f"{model}-{lam:g}": (model, channels)
           for lam in (0.05, 1.0, 4.0, 50.0)
           for model, channels in (("mm11", ((lam, 1.0),)), ("mm2p", ((lam, 1.0),)),
                                   ("two_sensor", ((lam / 2, 1.0), (lam / 2, 1.0))))},
        "two_sensor-skewed": ("two_sensor", ((0.3, 0.05), (3.0, 1.5))),
    }

    @pytest.mark.parametrize("block", [64, des_sim._DRAW_BLOCK])
    @pytest.mark.parametrize("case", sorted(POINTS))
    def test_simulators_never_deliver_two_stale_updates_in_a_row(
            self, monkeypatch, case, block):
        # what the fast path rests on: with no two adjacent stale deliveries
        # the larger of the last two generation times is the running maximum,
        # within one merged batch and across the edges between batches
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        model, channels = self.POINTS[case]
        batches = []
        add = des_sim._AgeIntegral.add

        def spy(integral, times, gens):
            batches.append(np.array(gens))  # the merge reuses its buffers
            add(integral, times, gens)

        monkeypatch.setattr(des_sim._AgeIntegral, "add", spy)
        lams, mus = zip(*channels)
        total = sum(lams) + (2 * mus[0] if model == "mm2p" else sum(mus))
        config = SimConfig(horizon=3e4 / total, num_trials=1, seed=3, warmup=0.0)
        if model == "mm2p":
            simulate_mm2_preemptive(*channels[0], config)
        else:
            des_sim._simulate_blocking(channels, config, None)
        gens = np.concatenate(batches)
        level = np.maximum.accumulate(np.concatenate(([0.0], gens[:-1])))
        stale = gens <= level
        assert not (stale[1:] & stale[:-1]).any()
        # a single blocking channel delivers in generation order
        assert stale.any() == (model != "mm11")
        if block == 64:
            assert len(batches) > 8


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

    def test_int_past_the_float_range_rejected(self):
        # an exact comparison passes it, but no float holds it
        huge = 10**400
        with pytest.raises(ValueError) as exc:
            SimConfig(horizon=huge)
        assert str(exc.value) == f"horizon must be strictly positive and finite, got {huge}"
        with pytest.raises(ValueError) as exc:
            simulate_mm11(1.0, huge, SimConfig(horizon=10.0, num_trials=1))
        assert str(exc.value) == f"mu must be strictly positive and finite, got {huge}"

    def test_fraction_whose_float_is_zero_rejected(self):
        # an exact comparison passes it, but it would be stored as 0.0
        tiny = Fraction(1, 10**400)
        with pytest.raises(ValueError) as exc:
            SimConfig(horizon=tiny)
        assert str(exc.value) == f"horizon must be strictly positive and finite, got {tiny!r}"

    def test_horizon_bound_keeps_the_age_integral_finite(self):
        assert des_sim.MAX_HORIZON * des_sim.MAX_HORIZON < math.inf
        assert SimConfig(horizon=des_sim.MAX_HORIZON).horizon == des_sim.MAX_HORIZON
        for horizon in (math.nextafter(des_sim.MAX_HORIZON, math.inf), 1e300, 10**300):
            with pytest.raises(ValueError, match="horizon must be at most 1.3408e"):
                SimConfig(horizon=horizon)

    @pytest.mark.parametrize("horizon", [200, np.int64(200), np.float32(200.5)],
                             ids=["int", "int64", "float32"])
    @pytest.mark.parametrize("simulate", [simulate_mm11, simulate_mm2_preemptive])
    def test_horizon_runs_as_a_float(self, simulate, horizon):
        # an int horizon gave the pair int limits, into which numpy refused
        # to write the arrival instants; a float32 one rounded them
        config = SimConfig(horizon=horizon, num_trials=2, seed=3)
        assert type(config.horizon) is float
        expected = simulate(3.0, 1.0, SimConfig(horizon=float(horizon), num_trials=2, seed=3))
        assert simulate(3.0, 1.0, config) == expected

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
        # Student's t for 3 trials
        assert result.ci95_halfwidth == pytest.approx(4.30265273 * result.stderr)
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

    @pytest.mark.parametrize("model", sorted(LONG_TRACE_RUNS))
    def test_multi_block_trace_files_pinned(self, tmp_path, model):
        LONG_TRACE_RUNS[model](tmp_path)
        text = (tmp_path / "trial_000.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        # sensor 1's accepted arrivals, or all of the pair's: past one draw block
        firsts = [row for row in rows
                  if row[1] in ("arrival", "preempt") and (model == "mm2p" or row[2] == "1")]
        assert len(firsts) > des_sim._DRAW_BLOCK
        assert _trace_digest(tmp_path) == LONG_TRACE_SHA256[model]

    def test_ci_quantile_matches_student_t(self):
        # the table's range, the expansion's, and its large-dof limit
        dofs = [*range(1, 201), 1000, 12345, 10**5, 10**7]
        ours = np.array([des_sim._t975(dof) for dof in dofs])
        np.testing.assert_allclose(ours, stats.t.ppf(0.975, dofs), rtol=1e-7, atol=0)

    def test_single_trial_reports_no_stderr(self):
        # one trial has no spread to estimate, so it claims no certainty
        result = simulate_mm11(1.0, 1.0, SimConfig(horizon=300.0, num_trials=1, seed=3))
        assert result.stderr is None
        assert result.ci95_halfwidth is None


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


def _pair_chain_age(lam: float, mu: float) -> Fraction:
    """The exact average age of the preemptive pair's fake-update chain."""
    model = preemptive_pair_model(lam, mu)
    _, vectors = exact_solve(model, [t.rate for t in model.transitions])
    return sum(v[0] for v in vectors)


class TestPreemptivePairTheory:
    """The preemptive pair against its two-state fake-update chain
    (tests/oracles.py). The simulated mean's z, its gap to the chain over
    its standard error, must lie inside the two-sided Student-t quantile for
    ``TRIALS - 1`` degrees of freedom at a Bonferroni share of a 1 %
    false-alarm rate over the ``SEEDS`` cases, the rule of
    tests/test_acceptance.py in a family of its own."""

    SEEDS = {1.0: 3, 4.0: 3}  # lambda at mu = 1: seed
    TRIALS = 10
    LIMIT = float(stats.t.ppf(1 - 0.01 / (2 * len(SEEDS)), TRIALS - 1))

    @pytest.mark.parametrize("lam,age", [(0.5, Fraction(17, 6)), (1.0, Fraction(7, 4)),
                                         (2.0, Fraction(7, 6)), (4.0, Fraction(17, 20))])
    def test_chain_ages(self, lam, age):
        assert _pair_chain_age(lam, 1.0) == age
        model = preemptive_pair_model(lam, 1.0)
        solved = average_age(solve_correlation(model, solve_stationary(model)))
        assert solved == pytest.approx(float(age), rel=1e-13)

    @pytest.mark.parametrize("lam", sorted(SEEDS))
    def test_simulation_matches_chain(self, lam):
        result = simulate_mm2_preemptive(lam, 1.0, SimConfig(
            horizon=2e4, num_trials=self.TRIALS, seed=self.SEEDS[lam], warmup=0.01))
        theory = float(_pair_chain_age(lam, 1.0))
        z = (result.mean_aoi - theory) / result.stderr
        assert abs(z) <= self.LIMIT, (result.mean_aoi, theory, z)


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
        if model == "mm2p":
            assert {r[1] for r in rows} <= {"arrival", "preempt", "delivery"}
        else:
            assert {r[1] for r in rows} == {"arrival", "delivery"}
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

    @pytest.mark.parametrize("model", sorted(TRACE_RUNS))
    def test_rows_leave_at_each_release(self, monkeypatch, tmp_path, model):
        # the trial file fills as the merge releases deliveries, not at the
        # trial's end; the file's buffer holds back its last few kilobytes
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", 64)
        config = SimConfig(horizon=1000.0, num_trials=1, seed=9, warmup=0.0)
        path = tmp_path / "trial_000.csv"
        seen = []
        add = des_sim._AgeIntegral.add

        def counting(integral, times, gens):
            seen.append(len(path.read_text().splitlines()) if path.exists() else 0)
            add(integral, times, gens)

        monkeypatch.setattr(des_sim._AgeIntegral, "add", counting)
        {
            "two_sensor": lambda: simulate_two_sensor(
                TwoSensorParams(0.6, 0.9, 1.0, 1.2), config, tmp_path),
            "mm11": lambda: simulate_mm11(0.9, 1.2, config, tmp_path),
            "mm2p": lambda: simulate_mm2_preemptive(3.0, 1.0, config, tmp_path),
        }[model]()
        assert len(seen) > 8
        assert seen == sorted(seen)
        assert seen[len(seen) // 2] > 1

    def test_ties_on_a_release_bound_keep_chunk_order(self):
        # rows at a release's last delivery stay pending ahead of later
        # chunks, so the file equals one stable sort of all the chunks
        bound = 2.0
        below = np.nextafter(bound, 0.0)

        def chunk(times, kinds, sensors, gens):
            return np.array(times), np.int8(kinds), np.int8(sensors), np.array(gens)

        early = chunk([0.5, bound, below, 3.0], [0, 1, 1, 0], [1, 1, 2, 2], [0.5, 0.25, 0.5, 3.0])
        later = chunk([bound, 2.5, bound], [1, 0, 0], [2, 1, 2], [1.5, 2.5, 2.0])
        out, added = io.StringIO(), []
        trace = des_sim._Trace(out, lambda deps, gens: added.append(deps.tolist()))
        trace.append(early)
        trace.sink(np.array([below, bound]), np.array([0.5, 0.25]))
        assert out.getvalue().count("\n") == 3  # the header, 0.5 and the row just below
        trace.append(later)
        trace.sink(np.array([bound]), np.array([1.5]))
        trace.write(math.inf)
        assert added == [[below, bound], [bound]]
        rows = sorted(zip(*(np.concatenate(column).tolist() for column in zip(early, later))),
                      key=lambda row: row[0])
        held, lines = 0.0, [des_sim._TRACE_HEADER]
        for t, kind, sensor, gen in rows:
            if kind == 1:
                held = max(held, gen)
            lines.append(f"{t!r},{des_sim._KINDS[kind]},{sensor},{gen!r},{t - held!r}")
        assert out.getvalue().splitlines() == lines
        assert [line.split(",")[2] for line in lines[3:6]] == ["1", "2", "2"]

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


class _DrawCounter:
    """A generator that counts the standard exponentials drawn from it."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_exponential(self, *args, **kwargs):
        draws = self.rng.standard_exponential(*args, **kwargs)
        self.drawn += np.size(draws)
        return draws

    def __getattr__(self, name):
        return getattr(self.rng, name)


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_split_of_a_block_matches_whole_blocks(self, data):
        # pieces of any size in place of the horizon's estimate give the
        # instants and blocked count of whole-block draws, bit for bit
        lam, mu = data.draw(st.sampled_from([(1.0, 1.0), (4.0, 1.0), (0.3, 2.0)]))
        block = data.draw(st.integers(1, 16))
        horizon = data.draw(st.floats(0.01, 3.0)) * block * (1.0 / lam + 1.0 / mu)
        seed = data.draw(st.integers(0, 2**32))

        def pieces(span, cycle, room):
            return data.draw(st.integers(1, room))

        with mock.patch.object(des_sim, "_DRAW_BLOCK", block), \
                mock.patch.object(des_sim, "_cycles_due", pieces):
            streams = [des_sim._rng(seed, 0, s) for s in (0, 1)]
            deps, gens, n_arrivals = _drain(
                des_sim._BlockingChannel(lam, mu, horizon, 1)(*streams, None))
        streams = [des_sim._rng(seed, 0, s) for s in (0, 1)]
        ref_deps, ref_gens, ref_arrivals = blocking_channel_loop(
            lam, mu, horizon, *streams, block=block)
        assert np.array_equal(deps, ref_deps)
        assert np.array_equal(gens, ref_gens)
        assert n_arrivals == ref_arrivals

    # the horizon lies at the end of the first block, or in the first, the
    # second, the last but one or the last cycle of the second block
    @pytest.mark.parametrize("cycles", [0, 1, 2, des_sim._DRAW_BLOCK - 1, des_sim._DRAW_BLOCK])
    def test_horizon_at_block_edges_matches_whole_blocks(self, cycles):
        lam, mu, block = 2.0, 1.0, des_sim._DRAW_BLOCK
        streams = [des_sim._rng(4, 0, s) for s in (0, 1)]
        deps, gens, _ = blocking_channel_loop(
            lam, mu, 3 * block * (1.0 / lam + 1.0 / mu), *streams, block=block)
        assert len(deps) > 2 * block
        # the second block must draw `cycles` cycles to pass the horizon
        horizon = (deps[block - 1] if cycles == 0
                   else (gens[block + cycles - 1] + deps[block + cycles - 1]) / 2)
        streams = [des_sim._rng(4, 0, s) for s in (0, 1)]
        deps, gens, n_arrivals = _drain(
            des_sim._BlockingChannel(lam, mu, horizon, 1)(*streams, None))
        streams = [des_sim._rng(4, 0, s) for s in (0, 1)]
        ref_deps, ref_gens, ref_arrivals = blocking_channel_loop(
            lam, mu, horizon, *streams, block=block)
        assert deps.size == block + max(cycles - 1, 0)
        assert np.array_equal(deps, ref_deps)
        assert np.array_equal(gens, ref_gens)
        assert n_arrivals == ref_arrivals

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cycles", [1, 100, 3000])
    def test_draws_grow_with_the_horizon_not_the_block(self, cycles, seed):
        # a trial of about `cycles` expected wait-and-service cycles draws
        # O(cycles) waits and services, not a whole block of each
        lam, mu = 2.0, 1.0
        horizon = cycles * (1.0 / lam + 1.0 / mu)
        spies = [_DrawCounter(des_sim._rng(seed, 0, s)) for s in (0, 1)]
        deps, gens, n_arrivals = _drain(
            des_sim._BlockingChannel(lam, mu, horizon, 1)(*spies, None))
        assert [spy.drawn <= 2 * cycles + 50 for spy in spies] == [True, True]
        streams = [des_sim._rng(seed, 0, s) for s in (0, 1)]
        ref_deps, ref_gens, ref_arrivals = blocking_channel_loop(
            lam, mu, horizon, *streams, block=des_sim._DRAW_BLOCK)
        assert np.array_equal(deps, ref_deps)
        assert np.array_equal(gens, ref_gens)
        assert n_arrivals == ref_arrivals

    @pytest.mark.parametrize("run", [
        pytest.param(runs[model], id=f"{name}-{model}")
        for name, runs in (("short", TRACE_RUNS), ("long", LONG_TRACE_RUNS))
        for model in ("mm11", "two_sensor")])
    def test_trace_rows_and_blocked_counts_make_the_events(self, tmp_path, run):
        _check_rows_and_blocked_make_the_events(run(tmp_path), tmp_path)

    @pytest.mark.parametrize("model", sorted(TRACE_RUNS))
    def test_traced_run_matches_untraced(self, tmp_path, model):
        traced = TRACE_RUNS[model](tmp_path)
        untraced = TRACE_RUNS[model](None)
        assert traced.trial_values == untraced.trial_values
        assert traced.events_processed == untraced.events_processed


def _busy_time(lam, mu, horizon):
    """Expected busy time by ``horizon`` of a blocking channel that starts
    idle, the channel being busy at t with probability lam / (lam + mu) *
    (1 - exp(-(lam + mu) t)). Its arrivals while busy are blocked, lam times
    this in expectation."""
    rate = lam + mu
    return lam / rate * (horizon + math.expm1(-rate * horizon) / rate)


def _blocking_events(lam, mu, horizon):
    """Expected events, arrivals plus deliveries, of a blocking channel that
    starts idle, by ``horizon``: lam * horizon arrivals, and mu times the
    expected busy time."""
    return lam * horizon + mu * _busy_time(lam, mu, horizon)


def _pair_events(lam, mu, horizon):
    """Expected events, arrivals plus deliveries, of the preemptive pair
    that starts idle, by ``horizon``: lam * horizon arrivals, and mu times
    the expected busy-server time. The busy count is a chain on 0, 1 and 2
    servers (an arrival at 2 replaces the older update, and 2 stay busy);
    its expected times in each state by the horizon, from state 0, are the
    top-right block of expm([[Q, I], [0, 0]] * horizon)."""
    generator = np.zeros((6, 6))
    generator[:3, :3] = [[-lam, lam, 0.0], [mu, -(lam + mu), lam], [0.0, 2 * mu, -2 * mu]]
    generator[:3, 3:] = np.eye(3)
    occupation = expm(generator * horizon)[0, 3:]
    return lam * horizon + mu * float(occupation @ [0.0, 1.0, 2.0])


SHORT_HORIZON_CASES = {  # (lambda, mu) per channel, horizon; the name leads with the model
    "mm11-light": (((1.0, 1.0),), 3.0),
    "mm11-saturated": (((4.0, 1.0),), 2.0),
    "mm11-sparse": (((0.2, 1.0),), 10.0),
    "mm11-short": (((1.0, 2.0),), 0.5),
    "mm11-fast": (((8.0, 4.0),), 10.0),
    "mm2p-light": (((1.0, 1.0),), 3.0),
    "mm2p-saturated": (((4.0, 1.0),), 2.0),
    "mm2p-fast": (((8.0, 4.0),), 10.0),
    "two_sensor-light": (((1.0, 1.0), (0.5, 2.0)), 4.0),
    "two_sensor-saturated": (((2.0, 1.0), (2.0, 1.0)), 2.0),
    "two_sensor-fast": (((6.0, 6.0), (2.0, 8.0)), 5.0),
}
# one gate per z: (case, draw block, channel), the channel None for the
# events of the case's runs and k for the blocked count of their channel k
SHORT_HORIZON_GATES = [
    (case, block, channel)
    for case, block in [*((case, des_sim._DRAW_BLOCK) for case in sorted(SHORT_HORIZON_CASES)),
                        ("mm11-fast", 7), ("two_sensor-fast", 7)]
    for channel in (None, *(() if case.startswith("mm2p")
                            else range(len(SHORT_HORIZON_CASES[case][0]))))
]


class TestShortHorizonEvents:
    """Mean events per trial of the simulators, and mean blocked arrivals
    per trial of each blocking channel, at short horizons, where the
    horizon's edge is a large part of each trial, against their exact
    expectation. Each case runs ``BATCHES`` independently seeded batches of
    ``TRIALS`` trials; z is the gap of the batch means' mean over its
    standard error, and must lie inside the two-sided Student-t quantile
    for ``BATCHES - 1`` degrees of freedom at a Bonferroni share of a 1 %
    false-alarm rate over all ``GATES``, the rule of
    tests/test_acceptance.py. The fast blocking cases run at a 7-draw block
    too, which puts their trials across several block edges, each with its
    own blocked count; the other cases' trials end inside their first
    block. The pair runs at the package's block only: its event counts
    read the same at a 7-draw block."""

    CASES, GATES = SHORT_HORIZON_CASES, SHORT_HORIZON_GATES
    BATCHES, TRIALS = 30, 40
    LIMIT = float(stats.t.ppf(1 - 0.01 / (2 * len(GATES)), BATCHES - 1))

    def batches(self, monkeypatch, case, block):
        """The ``BATCHES`` results of ``case`` at a draw block of ``block``."""
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        channels, horizon = self.CASES[case]
        configs = [SimConfig(horizon=horizon, num_trials=self.TRIALS, seed=seed, warmup=0.0)
                   for seed in range(self.BATCHES)]
        if case.startswith("mm2p"):
            return [simulate_mm2_preemptive(*channels[0], config) for config in configs]
        return [_simulate_blocking(channels, config) for config in configs]

    def check(self, totals, theory):
        mean, stderr = _mean_and_stderr([total / self.TRIALS for total in totals])
        assert abs(mean - theory) <= self.LIMIT * stderr, (mean, theory, stderr)

    @pytest.mark.parametrize("case,block", [(case, block) for case, block, channel in GATES
                                            if channel is None])
    def test_mean_events_match_theory(self, monkeypatch, case, block):
        results = self.batches(monkeypatch, case, block)
        channels, horizon = self.CASES[case]
        if case.startswith("mm2p"):
            assert {result.blocked for result in results} == {(0,)}
            theory = _pair_events(*channels[0], horizon)
        else:
            theory = sum(_blocking_events(lam, mu, horizon) for lam, mu in channels)
        self.check([result.events_processed for result in results], theory)

    @pytest.mark.parametrize("case,block,channel", [gate for gate in GATES
                                                    if gate[2] is not None])
    def test_mean_blocked_match_theory(self, monkeypatch, case, block, channel):
        results = self.batches(monkeypatch, case, block)
        channels, horizon = self.CASES[case]
        assert {len(result.blocked) for result in results} == {len(channels)}
        lam, mu = channels[channel]
        self.check([result.blocked[channel] for result in results],
                   lam * _busy_time(lam, mu, horizon))


class TestPeakMemory:
    """One trial's tracemalloc peak, untraced but in the last test. An
    untraced trial streams through block buffers and sums per block, so its
    memory does not grow with the horizon. Per offered arrival (the total
    arrival rate times the horizon; the two sensors share it evenly) the
    peaks are 2.0, 1.9, 0.19, 1.0 and 3.1 B, in the order below; with the
    areas and busy times held for one sum they were 2.3, 5.9, 4.2, 4.4 and
    8.8 B, and with whole-trial arrays 19.3, 22.3, 22.2, 5.5 and 13.9 B."""

    @staticmethod
    def peak(model, lam, horizon, trace_dir=None):
        simulate = {
            "mm2p": lambda config: simulate_mm2_preemptive(lam, 1.0, config, trace_dir),
            "mm11": lambda config: simulate_mm11(lam, 1.0, config, trace_dir),
            "two_sensor": lambda config: simulate_two_sensor(
                TwoSensorParams(lam / 2, lam / 2, 1.0, 1.0), config, trace_dir),
        }[model]
        tracemalloc.start()
        try:
            simulate(SimConfig(horizon=horizon, num_trials=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("model,lam,horizon,bound", [
        ("mm2p", 50.0, 2e4, 3.0),
        ("mm2p", 4.0, 2e5, 7.5),
        ("mm2p", 4.0, 2e6, 5.5),
        ("mm11", 4.0, 2e5, 5.5),
        ("two_sensor", 4.0, 2e5, 13.0),
    ])
    def test_bytes_per_offered_arrival(self, model, lam, horizon, bound):
        assert self.peak(model, lam, horizon) / (lam * horizon) < bound

    @pytest.mark.parametrize("model", ["mm2p", "mm11", "two_sensor"])
    def test_peak_does_not_grow_with_horizon(self, model):
        short, long = (self.peak(model, 4.0, horizon) for horizon in (2e5, 2e6))
        assert long <= 1.1 * short

    @pytest.mark.parametrize("model", ["mm2p", "mm11", "two_sensor"])
    def test_traced_peak_does_not_grow_with_horizon(self, monkeypatch, tmp_path, model):
        """A traced trial writes its rows as the deliveries are released, so
        its peak, the trace writer's included, does not grow with the
        horizon either: +0.8 %, +4.3 % and +1.6 % from horizon 500 to 5000,
        in the order above, where a trace kept to the trial's end grew 5.6,
        5.4 and 4.9 times. A 256-draw block keeps the block buffers small
        against a trace of that length; a first run takes the first-call
        allocations out of the short one. Star-unpacking a generator once
        per row batch, ``zip(*genexpr)``, grew the pair's peak by 11 %:
        CPython builds that tuple by resizing, and keeps each freed one on
        its tuple free list, up to 2000 of them."""
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", 256)
        self.peak(model, 4.0, 50.0, tmp_path / "first")
        short, long = (self.peak(model, 4.0, horizon, tmp_path / f"{horizon:g}")
                       for horizon in (500.0, 5000.0))
        assert long <= 1.1 * short


def _oracle_deliveries(model, channels, config: SimConfig, trial: int):
    """One trial's deliveries, generation times and events from the oracles
    of tests/oracles.py: the per-arrival pair, or the step-by-step blocking
    channels merged by one stable sort, both drawing in blocks of
    ``des_sim._DRAW_BLOCK``."""
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
    return np.asarray(deps), np.asarray(gens), events


def _oracle_trial(model, channels, config: SimConfig, trial: int):
    """One trial's value and events from the oracles: the deliveries of
    ``_oracle_deliveries`` and the whole-array age integral."""
    deps, gens, events = _oracle_deliveries(model, channels, config, trial)
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

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trace_files_pinned(self, monkeypatch, tmp_path, case, block):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        model, channels, horizon = self.CASES[case]
        config = SimConfig(horizon=horizon, num_trials=2, seed=31, warmup=0.05)
        if model == "mm2p":
            simulate_mm2_preemptive(*channels[0], config, tmp_path)
        else:
            des_sim._simulate_blocking(channels, config, tmp_path)
        assert _trace_digest(tmp_path) == BLOCK_EDGE_TRACE_SHA256[block][case]

    @pytest.mark.parametrize("block", [3, 7, 64])
    @pytest.mark.parametrize("case", sorted(case for case in CASES if not case.startswith("mm2p")))
    def test_trace_rows_and_blocked_counts_make_the_events(self, monkeypatch, tmp_path,
                                                           case, block):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        _, channels, horizon = self.CASES[case]
        config = SimConfig(horizon=horizon, num_trials=2, seed=31, warmup=0.05)
        result = des_sim._simulate_blocking(channels, config, tmp_path)
        _check_rows_and_blocked_make_the_events(result, tmp_path)

    # trials of two or three chunks of areas at the package's block size
    @pytest.mark.parametrize("model,channels,horizon", [
        ("mm2p", ((1.0, 1.0),), 4e4),
        ("mm11", ((1.0, 1.0),), 8e4),
        ("two_sensor", ((1.0, 1.0), (0.5, 2.0)), 5e4),
    ])
    def test_chunked_sum_within_ulps_of_one_whole_sum(self, model, channels, horizon):
        config = SimConfig(horizon=horizon, num_trials=1, seed=8, warmup=0.05)
        if model == "mm2p":
            (value,) = simulate_mm2_preemptive(*channels[0], config).trial_values
        else:
            (value,) = des_sim._simulate_blocking(channels, config, None).trial_values
        deps, gens, _ = _oracle_deliveries(model, channels, config, 0)
        window = (config.warmup * config.horizon, config.horizon)
        assert ((deps > window[0]) & (deps < window[1])).sum() > des_sim._DRAW_BLOCK
        assert value == integrate_whole(deps, gens, window, window[0])
        whole = integrate_whole(deps, gens, window, window[0], chunk=math.inf)
        assert value == pytest.approx(whole, rel=1e-13, abs=0.0)


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


TRACE_KIND_CODES = {"arrival": 0, "delivery": 1, "preempt": 2}


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
        chunk = des_sim._joined(trace)
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

    CHUNKS = [1, 2, 3, 7, 64]

    # small draw blocks put many block edges inside one short run
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (4.0, 1.0), (0.05, 1.0), (50.0, 1.0)])
    def test_any_chunk_size_matches_per_arrival_loop(self, monkeypatch, lam, mu, chunk):
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", chunk)
        assert self.check(lam, mu, 500.0 / lam, 8)[0] > 400

    def test_chunk_runs_hold_the_edge_blocks(self, monkeypatch):
        # the lam/mu = 0.05 and 50 runs of the test above, over its chunk
        # sizes, hold blocks of no busy arrival (none is decided, so the
        # undecided updates outgrow the buffers), of exactly one busy arrival
        # and of busy arrivals only
        room, grown, kinds = des_sim._room, [], set()

        def spy(buf, used, size):
            out = room(buf, used, size)
            if out is not buf:
                grown.append(buf.dtype)
            return out

        monkeypatch.setattr(des_sim, "_room", spy)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(des_sim, "_DRAW_BLOCK", chunk)
            for lam in (0.05, 50.0):
                horizon = 500.0 / lam
                arrival, service = (des_sim._rng(8, 0, s) for s in (0, 1))
                for _ in des_sim._PreemptivePair(lam, 1.0, horizon)(arrival, service, None):
                    pass
                arrival, service = (des_sim._rng(8, 0, s) for s in (0, 1))
                a = running_sum_blocks(lambda: arrival.exponential(1.0 / lam, chunk), horizon)
                a = a[a <= horizon]
                d = a + service.exponential(1.0, a.size)
                busy = np.concatenate(([False], d[:-1] > a[1:]))
                for start in range(0, a.size, chunk):
                    block = busy[start:start + chunk]
                    count = int(block.sum())
                    kinds.add("all" if count == block.size > 1 else count)
        assert {0, 1, "all"} <= kinds
        # each growth grows all four buffers: arrival and delivery instants,
        # busy arrivals and kept updates
        assert grown and grown.count(np.dtype(bool)) == grown.count(np.dtype(float))

    def test_rows_leave_with_their_block(self, monkeypatch):
        # once a block is yielded the trace holds its rows: the deliveries it
        # yields and the arrivals it drew by the horizon, with the kinds and
        # servers of the per-arrival loop
        block = 7
        monkeypatch.setattr(des_sim, "_DRAW_BLOCK", block)
        lam, mu, horizon = 4.0, 1.0, 40.0
        streams = [des_sim._rng(8, 0, s) for s in (0, 1)]
        _, _, n_arrivals, rows = preemptive_pair_scan(lam, mu, horizon, *streams, block=block)
        delivery = TRACE_KIND_CODES["delivery"]
        ref = list(zip(rows[0], [TRACE_KIND_CODES[k] for k in rows[1]], rows[2], rows[3]))
        ref_arrivals = [row for row in ref if row[1] != delivery]
        ref_deliveries = [row for row in ref if row[1] == delivery]
        streams = [des_sim._rng(8, 0, s) for s in (0, 1)]
        trace = []
        pair = des_sim._PreemptivePair(lam, mu, horizon)(*streams, trace)
        delivered = 0
        for count, (deps, _) in enumerate(pair, start=1):
            delivered += deps.size
            assert len(trace) == count
            columns = [np.concatenate(column).tolist() for column in zip(*trace)]
            seen = sorted(zip(*columns))
            assert [row for row in seen if row[1] != delivery] == ref_arrivals[:count * block]
            assert [row for row in seen if row[1] == delivery] == ref_deliveries[:delivered]
        assert count * block > n_arrivals > 20 * block
        assert delivered == len(ref_deliveries)

    @pytest.mark.parametrize("seed", [1, 12345])
    def test_no_arrival_and_one_arrival(self, seed):
        first, second = np.cumsum(des_sim._rng(seed, 0, 0).exponential(1.0, 2))
        assert self.check(1.0, 1.0, first / 2, seed)[0] == 0
        assert self.check(1.0, 1.0, (first + second) / 2, seed)[0] == 1
