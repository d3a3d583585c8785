import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_shs.shs_core import (
    BALANCE_RESIDUAL_TOL,
    BATCH_BLOCK,
    IllConditionedSystemError,
    average_age,
    model_from_json,
    model_to_json,
    solve_correlation,
    solve_stationary,
)
from aoi_shs.two_sensor import (
    _CHAIN,
    _GRID_CHAIN,
    _RATE_NAMES,
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
from oracles import exact_solve, five_state_residual, nine_state_residual, solve_joined

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

    @pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "string"])
    def test_non_real_rejected(self, bad):
        with pytest.raises(ValueError, match="lambda2 must be strictly positive and finite"):
            TwoSensorParams(1.0, bad, 1.0, 1.0)

    def test_int_past_the_float_range_rejected(self):
        # an exact comparison passes it, but no float holds it
        with pytest.raises(ValueError) as exc:
            TwoSensorParams(10**400, 1, 1, 1)
        assert str(exc.value) == f"lambda1 must be strictly positive and finite, got {10**400}"

    @pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024,
                        reason="a long double is a double on this platform")
    def test_long_double_past_the_float_range_rejected(self):
        # its float reads inf, with no OverflowError and, in a grid, no warning
        huge = np.longdouble(10) ** 400
        with pytest.raises(ValueError, match="lambda1 must be strictly positive and finite"):
            TwoSensorParams(huge, 1, 1, 1)
        with pytest.raises(ValueError, match="point 0: lambda1 must be strictly positive"):
            average_aoi_grid([[huge, 1, 1, 1]])

    def test_fraction_whose_float_is_zero_rejected(self):
        # an exact comparison passes it, but it would be stored as 0.0
        tiny = Fraction(1, 10**400)
        with pytest.raises(ValueError) as exc:
            TwoSensorParams(tiny, 1, 1, 1)
        assert str(exc.value) == f"lambda1 must be strictly positive and finite, got {tiny!r}"

    def test_numpy_rate_shown_as_plain_number(self):
        with pytest.raises(ValueError) as exc:
            TwoSensorParams(np.float64(0), 1, 1, 1)
        assert str(exc.value) == "lambda1 must be strictly positive and finite, got 0.0"

    def test_numpy_numbers_stored_as_floats(self):
        params = TwoSensorParams(np.float32(0.5), np.int64(2), 1, np.float64(1.5))
        assert [(type(v), v) for v in vars(params).values()] == [
            (float, 0.5), (float, 2.0), (float, 1.0), (float, 1.5)]


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

    def test_both_chains_are_solved_in_the_grid_rate_order(self):
        # sorted rate names give the (lambda1, lambda2, mu1, mu2) columns
        assert _CHAIN.rate_names == _GRID_CHAIN.rate_names == _RATE_NAMES

    def test_slopes(self):
        model = build_two_sensor_chain(TwoSensorParams(1, 1, 1, 1))
        assert model.slopes.tolist() == [
            [1, 0, 0], [1, 1, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1],
            [1, 0, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1],
        ]

    def test_general_matches_generic_solves_bit_for_bit(self):
        # both routes assemble the same systems from the same chain, one row
        # per rate name against one per transition. Only the correlation
        # system's norm sums its rows' rates in another order, so its
        # condition number may move by an ulp or two
        rng = np.random.default_rng(2206)
        for row in np.exp(rng.uniform(np.log(0.02), np.log(50.0), size=(100, 4))):
            params = TwoSensorParams(*row)
            model = build_two_sensor_chain(params)
            pi = solve_stationary(model)
            v = solve_correlation(model, pi)
            breakdown = average_aoi_general(params)
            assert np.array_equal(breakdown.stationary.probs, pi.probs)
            assert np.array_equal(breakdown.correlations.vectors, v.vectors)
            assert (pi.condition, pi.residual, v.residual) == (
                breakdown.stationary.condition, breakdown.stationary.residual,
                breakdown.correlations.residual)
            assert breakdown.correlations.condition == pytest.approx(v.condition, rel=1e-15)

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

    def test_closed_form_reports_no_solve_diagnostics(self):
        pi = stationary_closed_form(TwoSensorParams(1, 1, 1, 1))
        assert np.isnan(pi.condition) and np.isnan(pi.residual)

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


def log_uniform_rates(seed, size, low, high):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(low), np.log(high), size=(size, 4)))


class TestGridChain:
    """The five-state fake-update chain that solves rate grids."""

    def test_hand_written_equations_residual(self):
        rates = log_uniform_rates(48, 200, 0.02, 50.0)
        (probs, _, _), (vectors, _, _) = solve_joined(_GRID_CHAIN, rates)
        for row, pi, v in zip(rates, probs, vectors):
            assert five_state_residual(*row, pi, v) < 1e-10

    def test_stationary_is_nine_state_closed_form_lumped(self):
        # both idle; only channel 1 busy; only channel 2 busy; both busy,
        # channel 1 fresher; both busy, channel 2 fresher. The two routes
        # round apart by up to 9.3e-15 over 3000 such points; the balance
        # systems' condition numbers, up to 6e3, allow 1.3e-12
        lumps = ([0], [1, 2], [4, 5], [6, 8], [3, 7])
        rates = log_uniform_rates(49, 200, 0.02, 50.0)
        (probs, _, _), _ = solve_joined(_GRID_CHAIN, rates)
        for row, pi in zip(rates, probs):
            nine = stationary_closed_form(TwoSensorParams(*row)).probs
            lumped = [nine[states].sum() for states in lumps]
            assert np.abs(pi - lumped).max() < 1e-13


class TestReadOnly:
    """Every solved result type carries read-only arrays: the breakdown of a
    single point and the results of the two public stage solves."""

    def test_breakdown_arrays_are_read_only(self):
        breakdown = average_aoi_general(TwoSensorParams(0.5, 0.8, 1.0, 1.4))
        assert breakdown.stationary.probs.flags.writeable is False
        assert breakdown.correlations.vectors.flags.writeable is False

    def test_stage_solve_arrays_are_read_only(self):
        chain = build_two_sensor_chain(TwoSensorParams(0.5, 0.8, 1.0, 1.4))
        pi = solve_stationary(chain)
        assert pi.probs.flags.writeable is False
        assert solve_correlation(chain, pi).vectors.flags.writeable is False


class TestGrid:
    @pytest.mark.parametrize("size", [1, BATCH_BLOCK - 1, BATCH_BLOCK, BATCH_BLOCK + 1, 500])
    def test_matches_single_points_bit_for_bit(self, size):
        # a point solved alone is a grid of one row
        rates = log_uniform_rates(46, size, 0.05, 20.0)
        singles = [average_aoi_grid(row[None, :])[0] for row in rates]
        assert average_aoi_grid(rates).tolist() == singles

    def test_matches_general_to_round_off(self):
        rates = log_uniform_rates(50, 2000, 0.02, 50.0)
        general = [average_aoi_general(TwoSensorParams(*row)).average_aoi for row in rates]
        assert average_aoi_grid(rates) == pytest.approx(general, rel=1e-14, abs=0)

    def test_matches_equal_service_closed_form(self):
        rates = log_uniform_rates(51, 500, 1e-3, 1e3)
        rates[:, 3] = rates[:, 2]
        closed = [average_aoi_equal_service(*row[:3]) for row in rates]
        assert average_aoi_grid(rates) == pytest.approx(closed, rel=1e-12, abs=0)

    def test_rejects_at_the_decade_general_does(self):
        def rejects(solve):
            try:
                solve()
            except IllConditionedSystemError:
                return True
            return False

        verdicts = []
        for s in 10.0 ** np.arange(3, 9):
            row = (s, s, 1 / s, 1 / s)
            verdicts.append((
                rejects(lambda: average_aoi_grid([row])),
                rejects(lambda: average_aoi_general(TwoSensorParams(*row))),
            ))
        assert verdicts == [(False, False)] * 3 + [(True, True)] * 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", [(1, 1, -1, -1), (-1, -1, 1, 1)],
                             ids=["fast-arrivals", "fast-service"])
    def test_extreme_rates_fail_the_condition_guard_cleanly(self, direction):
        # every decade from the first refused one up to 1e308: both solvers
        # refuse on the condition number, with no floating-point warning from
        # the assembly or the quantities the other guards read
        for s in 10.0 ** np.arange(6, 309):
            row = tuple(s ** sign for sign in direction)
            for solve in (lambda: average_aoi_grid([row]),
                          lambda: average_aoi_general(TwoSensorParams(*row))):
                with pytest.raises(IllConditionedSystemError, match="ill-conditioned"):
                    solve()

    @pytest.mark.filterwarnings("error")
    def test_equal_rates_solve_up_to_the_condition_limit(self):
        # (s, s, s, s) has age 1.609375 / s. From 1e7 to 1e11 the absolute
        # balance residual, which the breakdown reports, exceeds 1e-10, but
        # the guard reads it against the system's 1-norm, and both solvers
        # land within 4.4e-16 of the age. From 1e12 to the float limit the
        # condition number refuses, with no floating-point warning
        for s in 10.0 ** np.arange(7, 309):
            row = (s,) * 4
            if s < 1e12:
                breakdown = average_aoi_general(TwoSensorParams(*row))
                assert breakdown.stationary.residual > BALANCE_RESIDUAL_TOL
                assert [average_aoi_grid([row])[0], breakdown.average_aoi] == pytest.approx(
                    [1.609375 / s] * 2, rel=1e-15, abs=0)
                continue
            for solve in (lambda: average_aoi_grid([row]),
                          lambda: average_aoi_general(TwoSensorParams(*row))):
                with pytest.raises(IllConditionedSystemError, match="ill-conditioned"):
                    solve()

    def test_round_off_negatives_are_clipped_to_zero(self):
        # at rates up to eight decades apart some solves leave probabilities
        # a little below 0; those points pass their guards with the entries
        # clipped to 0, which no exact probability is
        clipped = 0
        for row in log_uniform_rates(53, 1000, 1e-4, 1e4):
            try:
                (probs, _, _), (vectors, _, _) = solve_joined(_CHAIN, row[None])
            except IllConditionedSystemError:
                continue
            assert probs.min() >= 0.0 and vectors.min() >= 0.0
            clipped += probs.min() == 0.0
        assert clipped >= 5

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

    @pytest.mark.parametrize("point", [
        pytest.param(["1", "2", "1", "1"], id="strings"),
        pytest.param([True, 2.0, 1.0, 1.0], id="bool"),
    ])
    def test_non_real_entry_is_named(self, point):
        # TwoSensorParams rejects these; a float conversion would read them
        # as rates 1.0 and 2.0
        with pytest.raises(ValueError, match="point 1: lambda1 must be strictly positive"):
            average_aoi_grid([[1.0, 2.0, 1.0, 1.0], point])
        with pytest.raises(ValueError):
            TwoSensorParams(*point)

    @pytest.mark.parametrize("entry", [10**400, -10**400, Fraction(10**400), Fraction(1, 10**400)],
                             ids=["int", "negative-int", "fraction", "tiny-fraction"])
    def test_entry_without_a_positive_float_is_named_as_given(self, entry):
        # its float conversion overflows or reads 0; the message shows the
        # entry as TwoSensorParams shows it
        with pytest.raises(ValueError) as params_error:
            TwoSensorParams(1.0, entry, 1.0, 1.0)
        with pytest.raises(ValueError) as grid_error:
            average_aoi_grid([[1.0, 2.0, 1.0, 1.0], [1.0, entry, 1.0, 1.0]])
        assert str(grid_error.value) == f"point 1: {params_error.value}"

    def test_object_entry_rejected(self):
        rates = np.ones((3, 4), dtype=object)
        rates[2, 2] = None
        with pytest.raises(ValueError, match="point 2: mu1 must be strictly positive"):
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

    @pytest.mark.parametrize("func, args", [
        (average_aoi_symmetric, (1e-320, 1e-320)),
        (average_aoi_symmetric, (1e300, 1e-300)),
        (average_aoi_equal_service, (1e-300, 1e300, 1.0)),
        (average_aoi_equal_service, (1e-320, 1e-320, 1e-320)),
        (zero_wait_limit, (1e-320,)),
    ])
    def test_results_outside_the_float_range_rejected(self, func, args):
        # the denominator underflows to zero, or the age overflows
        with pytest.raises(ValueError, match="lie outside the float range of the closed form"):
            func(*args)

    @pytest.mark.parametrize("func, args", [
        (average_aoi_symmetric, (1e-310, 1e-310)),
        (average_aoi_equal_service, (1e-310, 1e-310, 1e-310)),
        (zero_wait_limit, (1e-320,)),
    ])
    def test_numpy_scalar_overflow_refused_without_warning(self, func, args):
        # numpy scalar rates divide as numpy scalars, and the age overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lie outside the float range of the closed form"):
                func(*map(np.float64, args))

    @pytest.mark.parametrize("func, arity", [
        (average_aoi_equal_service, 3),
        (average_aoi_symmetric, 2),
        (zero_wait_limit, 1),
    ])
    def test_fraction_whose_float_is_zero_rejected(self, func, arity):
        # exact arithmetic would give an age no float holds, or a zero denominator
        tiny = Fraction(1, 10**400)
        with pytest.raises(ValueError) as exc:
            func(tiny, *[Fraction(1)] * (arity - 1))
        assert str(exc.value).endswith(f" must be strictly positive and finite, got {tiny!r}")

    @pytest.mark.parametrize("bad", [True, "1"], ids=["bool", "string"])
    @pytest.mark.parametrize("func, arity", [
        (average_aoi_equal_service, 3),
        (average_aoi_symmetric, 2),
        (zero_wait_limit, 1),
    ])
    def test_non_real_rates_rejected(self, func, arity, bad):
        with pytest.raises(ValueError, match="must be strictly positive and finite, got"):
            func(bad, *[1.0] * (arity - 1))


def transition_rates(chain, row) -> list:
    """Each transition's rate in ``chain`` at a row of its rate names'
    rates, (lambda1, lambda2, mu1, mu2)."""
    rate = dict(zip(chain.rate_names, np.asarray(row, dtype=float)))
    return [rate[t.rate] for t in chain.transitions]


def exact_age(chain, row) -> Fraction:
    """The exact average monitor age of ``chain`` at a (lambda1, lambda2,
    mu1, mu2) row, from the exact rational oracle."""
    _, vectors = exact_solve(chain, transition_rates(chain, row))
    return sum(v[MONITOR_COMPONENT] for v in vectors)


# small-integer rate points, for which the exact solves stay fast
EXACT_POINTS = np.random.default_rng(7).integers(1, 6, size=(20, 4)).astype(float)


@pytest.fixture(scope="module")
def exact_ages():
    """Exact ages at every point, on the grid chain and on the nine-state one."""
    return ([exact_age(_GRID_CHAIN, row) for row in EXACT_POINTS],
            [exact_age(_CHAIN, row) for row in EXACT_POINTS])


class TestExact:
    """Both solvers and the closed forms against exact rational solves."""

    # over 400 points with integer rates 1 to 5 (numpy seeds 0 to 3) both
    # solvers stayed within 3.5 ulps of the exact age
    ULPS = 4

    def test_both_chains_give_the_same_exact_age(self, exact_ages):
        grid, nine = exact_ages
        assert grid == nine

    def test_solvers_within_ulps_of_exact(self, exact_ages):
        solved = zip(average_aoi_grid(EXACT_POINTS),
                     [average_aoi_general(TwoSensorParams(*row)).average_aoi
                      for row in EXACT_POINTS])
        for exact, ages in zip(exact_ages[0], solved):
            ulps = [float(abs(Fraction(age) - exact)) / math.ulp(float(exact)) for age in ages]
            assert max(ulps) <= self.ULPS, ulps

    def test_closed_forms_are_exact_identities(self):
        assert average_aoi_symmetric(Fraction(1), Fraction(1)) == Fraction(103, 64)
        assert average_aoi_equal_service(Fraction(1, 2), Fraction(3, 2), Fraction(1)) \
            == Fraction(849, 500)
        for l1, l2, mu in EXACT_POINTS[:8, :3].astype(int).tolist():
            equal_service = (l1, l2, mu, mu)
            symmetric = (l1, l1, mu, mu)
            assert average_aoi_equal_service(Fraction(l1), Fraction(l2), Fraction(mu)) \
                == exact_age(_GRID_CHAIN, equal_service)
            assert average_aoi_symmetric(Fraction(l1), Fraction(mu)) \
                == exact_age(_GRID_CHAIN, symmetric)

    def test_stationary_closed_form_is_an_exact_identity(self):
        # a duck-typed params object keeps the Fraction rates that
        # TwoSensorParams would turn into floats
        for row in EXACT_POINTS:
            l1, l2, m1, m2 = map(Fraction, row.tolist())
            params = SimpleNamespace(lambda1=l1, lambda2=l2, mu1=m1, mu2=m2)
            assert stationary_closed_form(params).probs.tolist() \
                == exact_solve(_CHAIN, transition_rates(_CHAIN, row))[0]
