import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_shs.shs_core import (
    BATCH_BLOCK,
    IllConditionedSystemError,
    average_age,
    model_from_json,
    model_to_json,
    solve_correlation,
    solve_stationary,
)
from aoi_shs.two_sensor import (
    MONITOR_COMPONENT,
    TwoSensorParams,
    average_aoi_equal_service,
    average_aoi_general,
    average_aoi_grid,
    average_aoi_symmetric,
    build_two_sensor_chain,
    stationary_closed_form,
    zero_wait_limit,
)
from oracles import nine_state_residual

rates = st.floats(min_value=0.05, max_value=20.0)

# exact references for the all-ones rate point
PI_ALL_ONES = [0.25, 0.1875, 0.0625, 0.09375, 0.1875, 0.0625, 0.09375, 0.03125, 0.03125]
AOI_ALL_ONES = 103 / 64
AOI_HALF_ARRIVALS = 677 / 324            # l1 = l2 = 0.5, m1 = m2 = 1
AOI_MIXED = 9522503 / 4115400            # l1, l2, m1, m2 = 0.3, 0.9, 1.2, 0.7


def random_params(rng) -> TwoSensorParams:
    return TwoSensorParams(*rng.uniform(0.05, 20.0, size=4))


class TestParams:
    @pytest.mark.parametrize("bad", [0.0, -2.0, float("inf"), float("nan")])
    def test_positive_finite_required(self, bad):
        with pytest.raises(ValueError, match="mu2"):
            TwoSensorParams(1.0, 1.0, 1.0, bad)


class TestChainConstruction:
    def test_shape(self):
        model = build_two_sensor_chain(TwoSensorParams(0.3, 0.8, 1.0, 1.4))
        assert model.num_states == 9
        assert model.num_components == 3
        assert len(model.transitions) == 18

    def test_service_completion_of_first_channel(self):
        # second listed transition: busy channel 1 drains and updates the monitor
        model = build_two_sensor_chain(TwoSensorParams(0.3, 0.8, 1.5, 1.4))
        t = model.transitions[1]
        assert (t.from_state, t.to_state) == (1, 0)
        assert t.rate == 1.5
        assert t.reset_map.tolist() == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]

    def test_last_transition_superseded_delivery(self):
        # last listed transition: channel 2 drains a superseded update
        model = build_two_sensor_chain(TwoSensorParams(0.3, 0.8, 1.5, 1.4))
        t = model.transitions[17]
        assert (t.from_state, t.to_state) == (8, 1)
        assert t.rate == 1.4
        assert t.reset_map.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]

    def test_slopes(self):
        model = build_two_sensor_chain(TwoSensorParams(1, 1, 1, 1))
        assert model.slopes.tolist() == [
            [1, 0, 0], [1, 1, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1],
            [1, 0, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1],
        ]

    def test_json_round_trip_reproduces_average(self):
        params = TwoSensorParams(0.5, 0.8, 1.0, 1.4)
        clone = model_from_json(model_to_json(build_two_sensor_chain(params)))
        recovered = average_age(solve_correlation(clone, solve_stationary(clone)))
        assert recovered == pytest.approx(
            average_aoi_general(params).average_aoi, rel=1e-14)


class TestStationary:
    def test_all_ones_point(self):
        pi = stationary_closed_form(TwoSensorParams(1, 1, 1, 1)).probs
        assert pi == pytest.approx(PI_ALL_ONES, abs=1e-15)
        assert pi.sum() == pytest.approx(1.0, abs=1e-15)

    def test_solver_reproduces_all_ones_point(self):
        model = build_two_sensor_chain(TwoSensorParams(1, 1, 1, 1))
        assert solve_stationary(model).probs == pytest.approx(PI_ALL_ONES, abs=1e-14)

    def test_closed_form_matches_solver_componentwise(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            params = random_params(rng)
            closed = stationary_closed_form(params).probs
            solved = solve_stationary(build_two_sensor_chain(params)).probs
            assert np.abs(closed - solved).max() < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            probs = stationary_closed_form(random_params(rng)).probs
            assert abs(probs.sum() - 1.0) < 1e-12


class TestAverageAge:
    def test_general_all_ones(self):
        breakdown = average_aoi_general(TwoSensorParams(1, 1, 1, 1))
        assert breakdown.average_aoi == pytest.approx(AOI_ALL_ONES, rel=1e-13)

    def test_general_half_arrivals(self):
        breakdown = average_aoi_general(TwoSensorParams(0.5, 0.5, 1, 1))
        assert breakdown.average_aoi == pytest.approx(AOI_HALF_ARRIVALS, rel=1e-12)

    def test_general_mixed_rates(self):
        breakdown = average_aoi_general(TwoSensorParams(0.3, 0.9, 1.2, 0.7))
        assert breakdown.average_aoi == pytest.approx(AOI_MIXED, rel=1e-12)

    def test_breakdown_is_monitor_column_sum(self):
        breakdown = average_aoi_general(TwoSensorParams(0.4, 1.7, 0.9, 2.2))
        column = breakdown.correlations.vectors[:, MONITOR_COMPONENT].sum()
        assert breakdown.average_aoi == column
        assert breakdown.average_aoi > 0
        assert average_age(breakdown.correlations, MONITOR_COMPONENT) == column

    def test_hand_written_equations_residual(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            params = random_params(rng)
            breakdown = average_aoi_general(params)
            residual = nine_state_residual(
                params.lambda1, params.lambda2, params.mu1, params.mu2,
                breakdown.stationary.probs, breakdown.correlations.vectors)
            assert residual < 1e-10

    def test_swap_symmetry_spec_point(self):
        a = average_aoi_general(TwoSensorParams(0.3, 0.9, 1.2, 0.7)).average_aoi
        b = average_aoi_general(TwoSensorParams(0.9, 0.3, 0.7, 1.2)).average_aoi
        assert a == pytest.approx(b, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(l1=rates, l2=rates, m1=rates, m2=rates)
    def test_swap_symmetry_property(self, l1, l2, m1, m2):
        a = average_aoi_general(TwoSensorParams(l1, l2, m1, m2)).average_aoi
        b = average_aoi_general(TwoSensorParams(l2, l1, m2, m1)).average_aoi
        assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_rate_scaling(self, factor):
        rng = np.random.default_rng(45)
        for _ in range(10):
            raw = rng.uniform(0.05, 20.0, size=4)
            base = average_aoi_general(TwoSensorParams(*raw)).average_aoi
            scaled = average_aoi_general(TwoSensorParams(*(factor * raw))).average_aoi
            assert scaled == pytest.approx(base / factor, rel=1e-10)

    def test_monotone_decreasing_on_sweep_grid(self):
        surface = np.array([
            [average_aoi_general(TwoSensorParams(l1, 0.8, 1.0, m2)).average_aoi
             for m2 in np.linspace(1.0, 1.8, 9)]
            for l1 in np.linspace(0.1, 0.9, 9)
        ])
        assert (np.diff(surface, axis=0) < 0).all()
        assert (np.diff(surface, axis=1) < 0).all()


class TestGrid:
    @pytest.mark.parametrize("size", [1, BATCH_BLOCK - 1, BATCH_BLOCK, BATCH_BLOCK + 1, 500])
    def test_matches_single_points_bit_for_bit(self, size):
        rng = np.random.default_rng(46)
        rates = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=(size, 4)))
        singles = [average_aoi_general(TwoSensorParams(*row)).average_aoi for row in rates]
        assert average_aoi_grid(rates).tolist() == singles

    def test_failing_point_is_named(self):
        rates = np.ones((BATCH_BLOCK + 10, 4))
        rates[BATCH_BLOCK + 3] = (1e6, 1e6, 1e-6, 1e-6)
        with pytest.raises(IllConditionedSystemError,
                           match=rf"point {BATCH_BLOCK + 3} \(rates \[1000000.0, "
                                 r"1000000.0, 1e-06, 1e-06\]\): .*ill-conditioned"):
            average_aoi_grid(rates)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_rate_is_named(self, bad):
        rates = np.ones((5, 4))
        rates[2, 3] = bad
        with pytest.raises(ValueError, match="point 2: mu2 must be strictly positive"):
            average_aoi_grid(rates)

    @pytest.mark.parametrize("shape", [(4,), (0, 4), (3, 3)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            average_aoi_grid(np.ones(shape))


class TestClosedForms:
    def test_equal_service_matches_general_on_grid(self):
        grid = np.linspace(0.2, 2.0, 5)
        for l1 in grid:
            for l2 in grid:
                closed = average_aoi_equal_service(l1, l2, 1.0)
                solved = average_aoi_general(TwoSensorParams(l1, l2, 1.0, 1.0)).average_aoi
                assert closed == pytest.approx(solved, rel=1e-10)

    def test_equal_service_reduces_to_symmetric(self):
        for lam in (0.2, 1.0, 5.0):
            assert average_aoi_equal_service(lam, lam, 1.0) == pytest.approx(
                average_aoi_symmetric(lam, 1.0), rel=1e-12)

    def test_equal_service_all_ones(self):
        assert average_aoi_equal_service(1, 1, 1) == pytest.approx(AOI_ALL_ONES, rel=1e-14)

    def test_symmetric_frozen_points(self):
        assert average_aoi_symmetric(1, 1) == pytest.approx(AOI_ALL_ONES, rel=1e-15)
        assert average_aoi_symmetric(0.5, 1) == pytest.approx(AOI_HALF_ARRIVALS, rel=1e-14)

    def test_symmetric_is_scale_invariant_formulation(self):
        # the normalization trick must not change moderate-rate results
        assert average_aoi_symmetric(3.0, 7.0) == pytest.approx(
            average_aoi_equal_service(3.0, 3.0, 7.0), rel=1e-13)

    def test_saturation_limit(self):
        assert average_aoi_symmetric(1e8, 1.0) == pytest.approx(1.25, abs=1e-6)
        for mu in (0.5, 1.0, 4.0):
            assert average_aoi_symmetric(1e8, mu) == pytest.approx(
                zero_wait_limit(mu), rel=1e-6)

    def test_zero_wait_values(self):
        assert zero_wait_limit(1.0) == 1.25
        assert zero_wait_limit(2.0) == 0.625

    @pytest.mark.parametrize("func, args", [
        (average_aoi_equal_service, (0.0, 1.0, 1.0)),
        (average_aoi_symmetric, (1.0, -1.0)),
        (zero_wait_limit, (0.0,)),
    ])
    def test_nonpositive_rates_rejected(self, func, args):
        with pytest.raises(ValueError):
            func(*args)
