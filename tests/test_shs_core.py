import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, inv

from aoi_shs import shs_core
from aoi_shs.shs_core import (
    BALANCE_RESIDUAL_TOL,
    BATCH_BLOCK,
    CONDITION_LIMIT,
    CORRELATION_RESIDUAL_TOL,
    IllConditionedSystemError,
    _certify_m_matrix,
    _condition_check,
    _guard,
    average_age,
    build_model,
    model_from_json,
    model_to_json,
    solve_correlation,
    solve_stationary,
)
from aoi_shs.two_sensor import (
    _CHAIN,
    _GRID_CHAIN,
    TwoSensorParams,
    build_two_sensor_chain,
)
from oracles import (
    exact_solve,
    live_unknowns,
    single_queue_average_age,
    single_queue_model,
    solve_joined,
    stage_systems,
    unreachable_state,
)

rates = st.floats(min_value=0.05, max_value=20.0)


def ring_model(ring_rates, num_components=2, idle_loops=()):
    """Cyclic service pipeline: state 0 generates a fresh update (component 1),
    intermediate hops keep everything, the closing hop delivers component 1
    into the monitor. Solvable for any positive rates."""
    n = len(ring_rates)
    keep = np.eye(num_components)
    generate = np.zeros((num_components, num_components))
    generate[0, 0] = 1.0
    deliver = np.zeros((num_components, num_components))
    deliver[1, 0] = 1.0
    transitions = []
    for i, rate in enumerate(ring_rates):
        if i == 0:
            amap = generate
        elif i == n - 1:
            amap = deliver
        else:
            amap = keep
        transitions.append((i, (i + 1) % n, rate, amap))
    for state, rate in idle_loops:
        transitions.append((state, state, rate, generate))
    slopes = [[1] + [1 if q > 0 else 0] * (num_components - 1) for q in range(n)]
    return build_model(n, num_components, transitions, slopes)


class TestBuildModel:
    def test_minimal_two_state_chain(self):
        model = single_queue_model(1.0, 1.0)
        assert model.num_states == 2
        assert model.num_components == 2
        assert len(model.transitions) == 2

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match=r"transition 0 \(0->1\): rate must be strictly "
                                             r"positive and finite, got 0\.0"):
            single_queue_model(0.0, 1.0)

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_bad_rates_rejected(self, bad):
        with pytest.raises(ValueError, match="rate"):
            single_queue_model(bad, 1.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rate_is_not_called_nonpositive(self, bad):
        with pytest.raises(ValueError, match=r"transition 0 \(0->1\): rate must be strictly "
                                             r"positive and finite, got"):
            single_queue_model(bad, 1.0)

    def test_one_state_chain_builds_and_solves(self):
        # a self-loop resets the monitor at rate 2, so the time-average age
        # of the Exp(2) intervals X is E[X^2] / (2 E[X]) = 1 / 2
        model = build_model(1, 1, [(0, 0, 2.0, [[0]])], [[1]])
        pi = solve_stationary(model)
        assert pi.probs.tolist() == [1.0]
        assert average_age(solve_correlation(model, pi)) == pytest.approx(0.5, rel=1e-15)

    def test_reset_map_shape_named(self):
        with pytest.raises(ValueError, match=r"transition 0: reset_map shape \(1, 2\) "
                                             r"!= \(1, 1\)"):
            build_model(2, 1, [(0, 1, 1.0, [[1, 0]]), (1, 0, 1.0, [[1]])], [[1], [1]])

    def test_out_of_range_state_named(self):
        with pytest.raises(ValueError, match=r"transition 1: to_state 7"):
            build_model(2, 1, [(0, 1, 1.0, [[1]]), (1, 7, 1.0, [[1]])], [[1], [1]])

    def test_reset_column_with_two_entries_rejected(self):
        bad = [[1, 0], [1, 0]]
        with pytest.raises(ValueError, match="column 0 has 2 nonzero entries"):
            build_model(2, 2, [(0, 1, 1.0, bad), (1, 0, 1.0, np.eye(2))],
                        [[1, 0], [1, 1]])

    def test_fractional_reset_entry_rejected(self):
        bad = [[0.5, 0], [0, 0]]
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            build_model(2, 2, [(0, 1, 1.0, bad), (1, 0, 1.0, np.eye(2))],
                        [[1, 0], [1, 1]])

    def test_non_binary_slopes_rejected(self):
        with pytest.raises(ValueError, match="slope entries must be 0 or 1"):
            build_model(2, 1, [(0, 1, 1.0, [[1]]), (1, 0, 1.0, [[1]])],
                        [[1], [2]])

    def test_slope_shape_rejected(self):
        with pytest.raises(ValueError, match="slopes shape"):
            build_model(2, 1, [(0, 1, 1.0, [[1]]), (1, 0, 1.0, [[1]])], [[1]])

    def test_unreachable_state_rejected(self):
        with pytest.raises(ValueError, match="state 2 unreachable from state 0"):
            build_model(3, 1, [(0, 1, 1.0, [[1]]), (1, 0, 1.0, [[1]])],
                        [[1], [1], [1]])

    def test_sink_state_rejected(self):
        transitions = [(0, 1, 1.0, [[1]]), (1, 0, 1.0, [[1]]), (1, 2, 1.0, [[1]])]
        with pytest.raises(ValueError, match="state 0 unreachable from state 2"):
            build_model(3, 1, transitions, [[1], [1], [1]])

    @pytest.mark.parametrize("num_states, num_components, transitions, message", [
        pytest.param(2.7, 1, None, "num_states must be an integer", id="float-num-states"),
        pytest.param(True, 1, None, "num_states must be an integer", id="bool-num-states"),
        pytest.param(2, 1.0, None, "num_components must be an integer",
                     id="float-num-components"),
        pytest.param(2, 1, [(0, 1, 1.0, [[1]]), (1.9, 0, 1.0, [[1]])],
                     r"transition 1: from_state 1\.9 is not an integer", id="float-state"),
        pytest.param(2, 1, [(0, True, 1.0, [[1]]), (1, 0, 1.0, [[1]])],
                     "transition 0: to_state True is not an integer", id="bool-state"),
        pytest.param(2, 1, [(0, 1, True, [[1]]), (1, 0, 1.0, [[1]])],
                     r"transition 0 \(0->1\): rate must be strictly positive and finite, "
                     r"got True", id="bool-rate"),
        pytest.param(2, 1, [(0, 1, 1.0, [[1]]), (1, 0, "2.5", [[1]])],
                     r"transition 1 \(1->0\): rate must be strictly positive and finite, "
                     r"got '2\.5'", id="string-rate"),
        pytest.param(2, 1, [(0, 1, 1.0, [[1]]), (1, 0, 10**400, [[1]])],
                     r"transition 1 \(1->0\): rate must be strictly positive and finite, "
                     r"got 10{400}$", id="int-past-float-range-rate"),
        pytest.param(2, 1, [(0, 1, Fraction(1, 10**400), [[1]]), (1, 0, 1.0, [[1]])],
                     r"transition 0 \(0->1\): rate must be strictly positive and finite, "
                     r"got Fraction\(1, 10{400}\)$", id="fraction-whose-float-is-zero-rate"),
    ])
    def test_malformed_numbers_rejected(self, num_states, num_components, transitions,
                                        message):
        transitions = transitions or [(0, 1, 1.0, [[1]]), (1, 0, 1.0, [[1]])]
        with pytest.raises(ValueError, match=message):
            build_model(num_states, num_components, transitions, [[1], [1]])

    def test_numpy_numbers_accepted(self):
        model = build_model(
            np.int64(2), np.int32(1),
            [(np.int64(0), np.uint8(1), np.float32(1.5), [[1]]),
             (np.int16(1), 0, np.float64(0.5), [[1]])],
            [[1], [1]],
        )
        assert (model.num_states, model.num_components) == (2, 1)
        first = model.transitions[0]
        assert [type(first.from_state), type(first.to_state), type(first.rate)] == [
            int, int, float]
        assert model_from_json(model_to_json(model)).transitions[0].rate == 1.5

    def test_numpy_rate_shown_as_plain_number(self):
        with pytest.raises(ValueError) as exc:
            build_model(2, 1, [(0, 1, np.float32(-2), [[1]]), (1, 0, 1.0, [[1]])],
                        [[1], [1]])
        assert str(exc.value) == (
            "transition 0 (0->1): rate must be strictly positive and finite, got -2.0")

    def test_short_transition_is_named(self):
        with pytest.raises(ValueError, match=r"transition 1 is not a \('from_state', "):
            build_model(2, 1, [(0, 1, 1.0, [[1]]), (1, 0, 1.0)], [[1], [1]])

    def test_named_chain_compiles_one_row_per_name(self):
        # the transitions of one name add into one coefficient row, in
        # sorted name order
        model = build_model(2, 1, [(0, 1, "up", [[1]]), (1, 0, "down", [[1]]),
                                   (0, 1, "up", [[0]])], [[1], [1]])
        assert model.rate_names == ("down", "up")
        assert model.balance.tolist() == [[0, -1, 0, 1], [2, 0, -2, 0]]
        assert model.correlation.tolist() == [[0, -1, 0, 1], [2, 0, -1, 0]]
        assert model.balance_norm.tolist() == [[0, 1], [2, 0]]
        assert model.correlation_norm.tolist() == [[1, 1], [2, 1]]

    @pytest.mark.parametrize("first, second, shown", [
        pytest.param("lam", 2.0, "2.0", id="number-after-name"),
        pytest.param(1.0, "mu", "'mu'", id="name-after-number"),
    ])
    def test_names_mixed_with_numbers_rejected(self, first, second, shown):
        with pytest.raises(ValueError) as exc:
            build_model(2, 1, [(0, 1, first, [[1]]), (1, 0, second, [[1]])], [[1], [1]])
        assert str(exc.value) == f"transition 1: rate {shown} mixes names and numbers"

    def test_named_chain_has_no_rates_of_its_own(self):
        # the stage solves read a chain's own rates, and a named chain has
        # none; the batched solve takes them per point, one per name
        transitions = [(0, 1, "lam", [[1, 0], [0, 0]]), (1, 0, "mu", [[0, 0], [1, 0]])]
        model = build_model(2, 2, transitions, [[1, 0], [1, 1]])
        pi = solve_stationary(single_queue_model(1.0, 1.0))
        for solve in (lambda: solve_stationary(model), lambda: solve_correlation(model, pi)):
            with pytest.raises(ValueError) as exc:
                solve()
            assert str(exc.value) == "transition 0 (0->1): rate 'lam' is a name, not a number"
        _, correlation = shs_core._solve(model, np.array([[1.0, 1.0]]))
        assert average_age(solve_correlation(single_queue_model(1.0, 1.0), pi)) \
            == correlation[0][0, :, 0].sum()


class TestStationary:
    def test_negative_probability_is_read_before_the_clip(self):
        # a negative rate on transition 0->1 of the numeric nine-state chain
        # makes one probability truly negative; read after the clip it would
        # be 0, and the point would fail the normalization guard instead
        model = build_two_sensor_chain(TwoSensorParams(1, 1, 1, 1))
        rows = np.ones((5, len(model.transitions)))
        rows[3, 0] = -0.5
        with pytest.raises(IllConditionedSystemError,
                           match=r"^point 3 \(rates \[-0\.5, .*\]\): stationary solve "
                                 r"produced negative probability -5\.357e-02$"):
            shs_core._stationary(model, rows, 0)

    def test_two_state_balance(self):
        a, b = 1.3, 0.4
        model = single_queue_model(a, b)
        pi = solve_stationary(model).probs
        assert pi == pytest.approx([b / (a + b), a / (a + b)], rel=1e-14)

    def test_sum_is_one_and_in_range(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = ring_model(rng.uniform(0.05, 20.0, size=rng.integers(2, 6)))
            pi = solve_stationary(model).probs
            assert abs(pi.sum() - 1.0) < 1e-12
            assert (pi >= 0).all() and (pi <= 1).all()

    def test_matches_transient_integration_of_forward_equations(self):
        # brute-force oracle for small chains: run the chain to stationarity
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(2, 4))
            model = ring_model(rng.uniform(0.3, 3.0, size=n))
            generator = np.zeros((n, n))
            for t in model.transitions:
                generator[t.from_state, t.to_state] += t.rate
                generator[t.from_state, t.from_state] -= t.rate
            start = np.zeros(n)
            start[0] = 1.0
            transient = start @ expm(generator * 400.0)
            pi = solve_stationary(model).probs
            assert np.abs(transient - pi).max() < 1e-6

    def test_self_loop_does_not_change_distribution(self):
        plain = ring_model([1.0, 2.0, 0.7])
        looped = ring_model([1.0, 2.0, 0.7], idle_loops=[(1, 5.0)])
        assert solve_stationary(plain).probs == pytest.approx(
            solve_stationary(looped).probs, abs=1e-14)

    def test_solves_report_their_diagnostics(self):
        model = ring_model([0.8, 2.5, 1.7], num_components=3)
        pi = solve_stationary(model)
        v = solve_correlation(model, pi)
        assert 1 <= pi.condition < CONDITION_LIMIT and 1 <= v.condition < CONDITION_LIMIT
        assert 0 <= pi.residual < BALANCE_RESIDUAL_TOL
        assert 0 <= v.residual < CORRELATION_RESIDUAL_TOL
        diagnostics = (pi.condition, pi.residual, v.condition, v.residual)
        assert all(type(x) is float for x in diagnostics)


def one_norm_condition(matrix) -> float:
    """``|A|_1 |A^-1|_1``, each norm the largest absolute column sum."""
    return float(np.abs(matrix).sum(axis=0).max() * np.abs(inv(matrix)).sum(axis=0).max())


def live_correlation_system(model) -> np.ndarray:
    """The correlation system of ``stage_systems`` on the live unknowns."""
    live = live_unknowns(model)
    return stage_systems(model)[1][np.ix_(live, live)]


class TestConditionGuard:
    @pytest.mark.parametrize("model", [
        pytest.param(single_queue_model(1.3, 0.4), id="single-queue"),
        pytest.param(single_queue_model(0.07, 13.0), id="single-queue-skewed"),
        pytest.param(ring_model([0.8, 2.5, 1.7], num_components=3), id="ring"),
        pytest.param(ring_model([0.6, 3.0, 1.1, 0.09], num_components=3,
                                idle_loops=[(2, 4.0)]), id="ring-looped"),
    ])
    def test_condition_is_exact_one_norm_number(self, model):
        # the balance stage reports the 1-norm number, the correlation stage
        # the infinity-norm number of its system on the live unknowns
        pi = solve_stationary(model)
        v = solve_correlation(model, pi)
        balance, _ = stage_systems(model)
        assert pi.condition == pytest.approx(one_norm_condition(balance), rel=1e-12)
        assert v.condition == pytest.approx(
            np.linalg.cond(live_correlation_system(model), np.inf), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_singular_member_is_named(self):
        rng = np.random.default_rng(11)
        systems = np.eye(9) + 0.1 * rng.standard_normal((BATCH_BLOCK, 9, 9))
        systems[37] = 0.0
        rates = np.arange(BATCH_BLOCK, dtype=float)[:, None] * np.ones(4)
        with pytest.raises(IllConditionedSystemError,
                           match=r"point 37 \(rates \[37\.0, .*condition estimate inf "):
            _guard(rates, 0, [_condition_check(np.linalg.cond(systems, 1), "correlation")])

    @pytest.mark.filterwarnings("error")
    def test_singular_member_of_balance_stack_is_named(self):
        # no rate on any transition of the numeric nine-state chain into or
        # out of states 2 and 3: two balance rows are exactly zero, so the
        # batched inverse fails
        model = build_two_sensor_chain(TwoSensorParams(1, 1, 1, 1))
        rows = np.ones((2, len(model.transitions)))
        rows[1, [t for t, (frm, to, _, _) in enumerate(model.transitions)
                 if {frm, to} & {2, 3}]] = 0.0
        with pytest.raises(IllConditionedSystemError) as caught:
            shs_core._stationary(model, rows, 10)
        assert str(caught.value) == (
            f"point 11 (rates {rows[1].tolist()}): stationary balance system is "
            "ill-conditioned (condition estimate inf exceeds 1e+12)")

    @pytest.mark.filterwarnings("error")
    def test_public_stationary_solve_refuses_the_float_limit_without_warning(self):
        # the numeric chain's assembly overflows at these rates; the public
        # solve silences floating-point warnings itself, so the refusal is
        # the only report
        model = build_two_sensor_chain(TwoSensorParams(1e308, 1e308, 1e308, 1e308))
        with pytest.raises(IllConditionedSystemError,
                           match=r"^point 0 .*: stationary balance system is ill-conditioned"):
            solve_stationary(model)

    @pytest.mark.filterwarnings("error")
    def test_public_correlation_solve_refuses_the_float_limit_without_warning(self):
        pi = solve_stationary(build_two_sensor_chain(TwoSensorParams(1, 1, 1, 1)))
        model = build_two_sensor_chain(TwoSensorParams(1e308, 1e308, 1e308, 1e308))
        with pytest.raises(IllConditionedSystemError,
                           match=r"^point 0 .*: correlation system is ill-conditioned"):
            solve_correlation(model, pi)


class TestMMatrixCertificate:
    def test_z_matrix_that_is_not_an_m_matrix_reads_inf(self):
        # nonsingular, with a negative inverse: no stationary age exists
        systems = np.array([[[1.0, -2.0], [-2.0, 1.0]]])
        rates = np.ones((1, 4))
        assert np.linalg.cond(systems, 1).tolist() == [3.0]
        with pytest.raises(IllConditionedSystemError,
                           match=r"point 0 \(rates \[1\.0, .*condition estimate inf "
                                 r"exceeds 1e\+12"):
            _certify_m_matrix(systems, np.abs(systems).sum(axis=-1).max(axis=-1), rates, 0,
                              np.ones((1, 2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_singular_member_of_correlation_stack_is_named(self):
        rng = np.random.default_rng(12)
        rates = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=(BATCH_BLOCK, 4)))
        systems = (rates @ _CHAIN.correlation).reshape(BATCH_BLOCK, 21, 21)
        rhs = np.ones((BATCH_BLOCK, 21, 2))
        norm = np.abs(systems).sum(axis=-1).max(axis=-1)
        _, _, condition = _certify_m_matrix(systems, norm, rates, 0, rhs)
        assert np.isfinite(condition).all()
        systems[37, :, 5] = 0.0
        norm = np.abs(systems).sum(axis=-1).max(axis=-1)
        with pytest.raises(IllConditionedSystemError,
                           match=r"point 37 \(rates \[.*\]\): correlation system is "
                                 r"ill-conditioned \(condition estimate inf "):
            _certify_m_matrix(systems, norm, rates, 0, rhs)

    def test_two_sensor_condition_is_exact_one_norm_number(self):
        # the infinity-norm number of the live system, from the certificate
        rng = np.random.default_rng(47)
        rates = np.exp(rng.uniform(np.log(0.02), np.log(50.0), size=(200, 4)))
        _, (_, condition, _) = solve_joined(_CHAIN, rates)
        expected = [np.linalg.cond(live_correlation_system(
                        build_two_sensor_chain(TwoSensorParams(*row))), np.inf)
                    for row in rates]
        assert condition.tolist() == pytest.approx(expected, rel=1e-12)


def guard_quantities(chain, row) -> dict:
    """What each solver guard reads at one rate point, solved alone under the
    default tolerances; a point's values do not depend on its batch. The
    balance residual's ceiling scales with the balance system's 1-norm."""
    (probs, balance_cond, balance_res), (vectors, corr_cond, corr_res) = solve_joined(
        chain, np.array([row], dtype=float))
    system = (np.array(row) @ chain.balance).reshape(chain.num_states, chain.num_states)
    system[-1] = 1.0
    return {
        "balance condition": float(balance_cond[0]),
        "balance residual": float(balance_res[0]),
        "balance norm": float(np.abs(system).sum(axis=0).max()),
        "lowest probability": float(probs.min()),
        "total": float(probs.sum(axis=1)[0]),
        "correlation condition": float(corr_cond[0]),
        "correlation residual": float(corr_res[0]),
        "lowest expectation": float(vectors.reshape(-1)[chain.live].min()),
    }


# The seven guards in the order the solver checks them. Each entry: a rate
# point the guard rejects once its tolerance is patched; the tolerance; the
# patched value, from the quantities of that point and of the all-ones point
# (every other point of the batch); the message, from the point's quantities
# and the patched value. The two negativity guards share a tolerance, so each
# patched value also keeps the other guard quiet: the first stays at or below
# the all-ones point's lowest expectation (its scale is 1), whose block is
# solved first, and the second at the point's own lowest probability. The
# balance residual's point leaves a residual, relative to the 1-norm, about
# 8 times the all-ones point's on the grid chain, and 570 times on the
# nine-state one.
GUARDS = {
    "balance condition": (
        (20.0, 20.0, 0.05, 0.05), "CONDITION_LIMIT",
        lambda q, ones: q["balance condition"] / 2,
        lambda q, tol: "stationary balance system is ill-conditioned (condition "
                       f"estimate {q['balance condition']:.3e} exceeds {tol:.0e})"),
    "balance residual": (
        (40.0, 0.3, 40.0, 0.05), "BALANCE_RESIDUAL_TOL",
        lambda q, ones: q["balance residual"] / q["balance norm"] / 2,
        lambda q, tol: "stationary solve left balance residual "
                       f"{q['balance residual']:.3e} above {tol * q['balance norm']:.3e}, "
                       f"{tol:.0e} times the system's 1-norm"),
    "negative probability": (
        (1.0, 1.0, 50.0, 50.0), "_TINY_NEGATIVE",
        lambda q, ones: min(ones["lowest probability"], ones["lowest expectation"]),
        lambda q, tol: "stationary solve produced negative probability "
                       f"{q['lowest probability']:.3e}"),
    "normalization": (
        (1.0, 1.0, 50.0, 50.0), "NORMALIZATION_TOL",
        lambda q, ones: abs(q["total"] - 1.0) / 2,
        lambda q, tol: f"stationary probabilities sum to {q['total']!r}, not 1"),
    "correlation condition": (
        (0.05, 0.05, 20.0, 20.0), "CONDITION_LIMIT",
        lambda q, ones: q["correlation condition"] / 2,
        lambda q, tol: "correlation system is ill-conditioned (condition "
                       f"estimate {q['correlation condition']:.3e} exceeds {tol:.0e})"),
    "correlation residual": (
        (5.0, 0.2, 3.0, 0.05), "CORRELATION_RESIDUAL_TOL",
        lambda q, ones: q["correlation residual"] / 2,
        lambda q, tol: "correlation solve left residual "
                       f"{q['correlation residual']:.3e} above {tol:.0e}"),
    "negative expectation": (
        (1.0, 1.0, 50.0, 50.0), "_TINY_NEGATIVE",
        lambda q, ones: q["lowest probability"],
        lambda q, tol: "correlation solve produced negative expectation "
                       f"{q['lowest expectation']:.3e}; the chain likely has an age "
                       "component that can drift without reset"),
}


def fire(chain, failing):
    """Solve ``BATCH_BLOCK + 10`` all-ones points with guard ``failing[i]``'s
    point at index ``i`` and its tolerance patched; return the raised
    message and the message each guard expects."""
    ones = guard_quantities(chain, (1.0,) * 4)
    rates = np.ones((BATCH_BLOCK + 10, 4))
    patches, expected = {}, {}
    for index, guard in failing.items():
        row, name, patched, message = GUARDS[guard]
        quantities = guard_quantities(chain, row)
        patches[name] = patched(quantities, ones)
        rates[index] = row
        expected[guard] = f"point {index} (rates {list(row)}): " \
                          f"{message(quantities, patches[name])}"
    with mock.patch.multiple(shs_core, **patches):
        with pytest.raises(IllConditionedSystemError) as caught:
            solve_joined(chain, rates)
    return str(caught.value), expected


@pytest.mark.parametrize("chain", [_CHAIN, _GRID_CHAIN], ids=["nine-state", "grid"])
class TestGuards:
    """Every guard of both stages fires, names its point and keeps its message."""

    @pytest.mark.parametrize("guard", GUARDS)
    def test_guard_names_its_point(self, chain, guard):
        raised, expected = fire(chain, {BATCH_BLOCK + 3: guard})
        assert raised == expected[guard]

    @pytest.mark.parametrize("earlier, later", [
        ("balance condition", "normalization"),
        ("balance residual", "correlation condition"),
    ])
    def test_earlier_guard_wins_over_earlier_point(self, chain, earlier, later):
        # the later guard's point comes first in its block, but each guard
        # scans the whole block before the next guard runs
        raised, expected = fire(chain, {BATCH_BLOCK + 3: later, BATCH_BLOCK + 5: earlier})
        assert raised == expected[earlier]

    def test_earlier_block_wins_over_earlier_guard(self, chain):
        # a failing block raises before any later block is solved
        raised, expected = fire(chain, {3: "normalization", BATCH_BLOCK + 3: "balance condition"})
        assert raised == expected["normalization"]


@pytest.mark.parametrize("chain", [_CHAIN, _GRID_CHAIN], ids=["nine-state", "grid"])
@pytest.mark.parametrize("earlier, later", [
    ("balance condition", "balance residual"),
    ("balance condition", "negative probability"),
    ("correlation condition", "correlation residual"),
    ("correlation residual", "negative expectation"),
])
def test_guard_order_within_a_stage(chain, earlier, later):
    # as in TestGuards, but both guards in one stage; the pairs are those
    # whose patched tolerances leave each other's point quiet
    raised, expected = fire(chain, {BATCH_BLOCK + 3: later, BATCH_BLOCK + 5: earlier})
    assert raised == expected[earlier]


def copy_fed_model(lam=0.7, mu=1.9, loop=0.4):
    """Single blocking channel with a third component: the delivery hands the
    update's age to the monitor and keeps it in component 1, so the idle
    state's component 1 has slope 0 but is live through that copy, while
    component 2 grows only while busy and every transition resets it, so the
    idle state's component 2 is dead."""
    start_service = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    deliver = [[0, 0, 0], [1, 1, 0], [0, 0, 0]]
    transitions = [(0, 1, lam, start_service), (1, 0, mu, deliver),
                   (0, 0, loop, np.eye(3))]
    return build_model(2, 3, transitions, [[1, 0, 0], [1, 1, 1]])


def random_chain(rng):
    """1-5 states, 1-3 components and 1-9 transitions drawn at random, with
    integer rates 1-3 so that every coefficient sum is exact. Each reset-map
    column copies a random component with probability 0.6 and is empty
    otherwise; each slope is 1 with probability 0.5. Most such chains are
    not strongly connected."""
    n, c = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    transitions = []
    for _ in range(int(rng.integers(1, 10))):
        amap = np.zeros((c, c))
        for j in range(c):
            if rng.random() < 0.6:
                amap[rng.integers(0, c), j] = 1.0
        transitions.append((int(rng.integers(0, n)), int(rng.integers(0, n)),
                            float(rng.integers(1, 4)), amap))
    return n, c, transitions, (rng.random((n, c)) < 0.5).astype(float)


#: The rate names of :func:`named_twin`, the name of rate k at index k - 1.
RATE_NAMES = ("one", "two", "three")


def named_twin(n, c, transitions, slopes):
    """The chain of :func:`random_chain`'s draw with each integer rate k
    replaced by the name ``RATE_NAMES[k - 1]``, so that the transitions of
    one rate share a coefficient row; and its rates, one per name."""
    model = build_model(n, c, [(frm, to, RATE_NAMES[int(rate) - 1], amap)
                               for frm, to, rate, amap in transitions], slopes)
    return model, np.array([RATE_NAMES.index(name) + 1.0 for name in model.rate_names])


def assert_exact_norm_rows(model, compiled, column_rates, transition_rates):
    """``compiled``'s norm rows at ``column_rates``, one ``Fraction`` per
    rate column, give exactly the absolute column sums of ``model``'s
    balance system and the absolute row sums of its live correlation
    system, both written out by :func:`stage_systems` at
    ``transition_rates``, one per transition."""
    balance, correlation = stage_systems(model, transition_rates)
    live = live_unknowns(model)
    exact = np.array(column_rates, dtype=object)
    balance_norm, correlation_norm = (np.frompyfunc(Fraction, 1, 1)(rows) for rows
                                      in (compiled.balance_norm, compiled.correlation_norm))
    assert (exact @ balance_norm + 1).tolist() == np.abs(balance).sum(axis=0).tolist()
    assert ((exact @ correlation_norm).tolist()
            == np.abs(correlation[np.ix_(live, live)]).sum(axis=1).tolist())


class TestLiveSet:
    @pytest.mark.parametrize("chain, size", [
        pytest.param(_CHAIN, 21, id="nine-state"),
        pytest.param(_GRID_CHAIN, 11, id="five-state"),
    ])
    def test_two_sensor_live_sets_are_unit_slopes(self, chain, size):
        # one coefficient row per rate name, four for both chains
        assert chain.live.tolist() == live_unknowns(chain)
        assert chain.live.tolist() == np.flatnonzero(chain.slopes).tolist()
        assert len(chain.live) == size
        assert len(chain.rate_names) == 4
        assert chain.balance.shape == (4, chain.num_states ** 2)
        assert chain.correlation.shape == (4, size * size)

    def test_slope_zero_unknown_live_through_copy_matches_dense_solve(self):
        model = copy_fed_model()
        live = live_unknowns(model)
        assert 0 * 3 + 1 in live and model.slopes[0, 1] == 0
        assert 0 * 3 + 2 not in live
        pi = solve_stationary(model)
        v = solve_correlation(model, pi)
        balance, correlation = stage_systems(model)
        unit = np.zeros(model.num_states)
        unit[-1] = 1.0
        dense_pi = np.linalg.solve(balance, unit)
        dense = np.linalg.solve(correlation, (model.slopes * dense_pi[:, None]).ravel())
        assert v.vectors[0, 1] > 0.1
        assert np.abs(v.vectors.ravel() - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("seed", range(8))
    def test_dead_unknowns_are_exactly_zero(self, seed):
        rng = np.random.default_rng(400 + seed)
        models = [
            ring_model(rng.uniform(0.05, 20.0, size=rng.integers(2, 6)),
                       num_components=int(rng.integers(2, 5))),
            ring_model(rng.uniform(0.05, 20.0, size=4), num_components=3,
                       idle_loops=[(int(rng.integers(0, 4)), float(rng.uniform(0.05, 20.0)))]),
            single_queue_model(*rng.uniform(0.05, 20.0, size=2)),
            copy_fed_model(*rng.uniform(0.05, 20.0, size=3)),
        ]
        for model in models:
            v = solve_correlation(model, solve_stationary(model)).vectors.ravel()
            dead = np.setdiff1d(np.arange(v.size), live_unknowns(model))
            assert len(dead) > 0
            assert v[dead].tolist() == [0.0] * len(dead)

    def test_no_growing_component_solves_to_zero(self):
        # with every slope 0 each age is reset before it could grow
        model = build_model(2, 2, single_queue_model(1.3, 0.4).transitions, np.zeros((2, 2)))
        assert live_unknowns(model) == []
        v = solve_correlation(model, solve_stationary(model))
        assert v.vectors.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert v.residual == 0.0 and np.isfinite(v.condition)

    @pytest.mark.parametrize("reset_map", [
        pytest.param([[0, 0], [0, 1]], id="kept"),
        pytest.param([[0, 0], [1, 1]], id="kept-and-read-by-monitor"),
    ])
    def test_frozen_component_never_reset_is_singular(self, reset_map):
        # component 1 never grows but carries its initial value forever, so
        # no stationary expectation exists and the chain is still rejected
        model = build_model(1, 2, [(0, 0, 2.0, reset_map)], [[1, 0]])
        assert live_unknowns(model) == [0, 1]
        pi = solve_stationary(model)
        with pytest.raises(IllConditionedSystemError,
                           match=r"correlation system is ill-conditioned "
                                 r"\(condition estimate inf "):
            solve_correlation(model, pi)

    def test_never_zeroed_unknowns_are_solved_for(self):
        model = build_model(1, 2, [(0, 0, 2.0, [[0, 0], [1, 1]])], [[1, 0]])
        assert model.live.tolist() == live_unknowns(model) == [0, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_chains_match_oracles(self, seed):
        # a rejected chain raises the oracle's message; a built one has the
        # oracle's live set and, at its rates, the oracle's stage systems.
        # Solved exactly at those rates, every unknown off the live set is 0
        # and the float solve reads exactly 0.0 there; a chain singular
        # exactly is refused. At Fraction rates of their own draw, its norm
        # rows give the column sums of |balance system| and the row sums of
        # |correlation system| exactly, self-copies (mixed signs on one
        # diagonal entry) included. Its named twin is refused alike, or
        # assembles exactly the same systems and norms at the same rates,
        # solves bit for bit alike, and its norm rows, folded by name, give
        # the exact sums at Fraction rates of one draw per name
        rng = np.random.default_rng(600 + seed)
        fractions = np.random.default_rng(700 + seed)
        built = dead_seen = folded = 0
        for _ in range(500):
            n, c, transitions, slopes = random_chain(rng)
            message = unreachable_state(n, transitions)
            if message is not None:
                for build in (build_model, named_twin):
                    with pytest.raises(ValueError) as exc:
                        build(n, c, transitions, slopes)
                    assert str(exc.value) == message
                continue
            built += 1
            model = build_model(n, c, transitions, slopes)
            live = live_unknowns(model)
            assert model.live.tolist() == live
            rates = np.array([t.rate for t in model.transitions])
            balance, correlation = stage_systems(model)
            compiled = (rates @ model.balance).reshape(n, n)
            compiled[-1] = 1.0
            assert compiled.tolist() == balance.tolist()
            assert ((rates @ model.correlation).reshape(len(live), len(live)).tolist()
                    == correlation[np.ix_(live, live)].tolist())
            named, named_rates = named_twin(n, c, transitions, slopes)
            assert len(named.rate_names) == len(set(rates.tolist()))
            folded += len(named.rate_names) < len(rates)
            assert named.live.tolist() == live
            for rows in ("balance", "correlation", "balance_norm", "correlation_norm"):
                assert ((named_rates @ getattr(named, rows)).tolist()
                        == (rates @ getattr(model, rows)).tolist())
            try:
                _, vectors = exact_solve(model, rates)
            except ValueError:
                with pytest.raises(IllConditionedSystemError):
                    solve_correlation(model, solve_stationary(model))
                with pytest.raises(IllConditionedSystemError):
                    solve_joined(named, named_rates[None])
            else:
                dead = np.setdiff1d(np.arange(n * c), live)
                assert [vectors[i // c][i % c] for i in dead] == [Fraction(0)] * len(dead)
                pi = solve_stationary(model)
                v = solve_correlation(model, pi)
                assert v.vectors.ravel()[dead].tolist() == [0.0] * len(dead)
                dead_seen += len(dead)
                (probs, _, residual), (twin, _, _) = solve_joined(named, named_rates[None])
                assert (probs[0].tolist(), twin[0].tolist(), residual[0]) == (
                    pi.probs.tolist(), v.vectors.tolist(), pi.residual)
                exact = np.array(vectors, dtype=float)
                assert np.abs(twin[0] - exact).max() <= 1e-13 * max(1.0, np.abs(exact).max())
            drawn = [Fraction(int(a), int(b)) for a, b
                     in fractions.integers(1, 50, size=(len(rates), 2))]
            assert_exact_norm_rows(model, model, drawn, drawn)
            per_name = dict(zip(named.rate_names, (Fraction(int(a), int(b)) for a, b
                                                   in fractions.integers(1, 50, size=(3, 2)))))
            assert_exact_norm_rows(model, named, list(per_name.values()),
                                   [per_name[t.rate] for t in named.transitions])
        assert 100 < built < 400
        assert dead_seen > 0 and folded > built // 2


class TestCorrelation:
    def test_single_queue_closed_form(self):
        for lam, mu in [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (50.0, 1.0), (0.07, 13.0)]:
            model = single_queue_model(lam, mu)
            v = solve_correlation(model, solve_stationary(model))
            assert average_age(v, 0) == pytest.approx(
                single_queue_average_age(lam, mu), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(lam=rates, mu=rates)
    def test_single_queue_closed_form_property(self, lam, mu):
        model = single_queue_model(lam, mu)
        v = solve_correlation(model, solve_stationary(model))
        assert average_age(v, 0) == pytest.approx(
            single_queue_average_age(lam, mu), rel=1e-10)

    def test_equation_residuals_small(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            model = ring_model(rng.uniform(0.05, 20.0, size=4), num_components=3)
            pi = solve_stationary(model)
            v = solve_correlation(model, pi).vectors
            out = np.zeros(model.num_states)
            for t in model.transitions:
                out[t.from_state] += t.rate
            residual = out[:, None] * v - model.slopes * pi.probs[:, None]
            for t in model.transitions:
                residual[t.to_state] -= t.rate * (v[t.from_state] @ t.reset_map)
            assert np.abs(residual).max() < 1e-10
            assert (v >= 0).all()

    def test_identity_resets_are_singular(self):
        # a component that is never reset has no stationary expectation
        transitions = [(0, 1, 1.0, np.eye(2)), (1, 0, 1.0, np.eye(2))]
        model = build_model(2, 2, transitions, [[1, 0], [1, 1]])
        pi = solve_stationary(model)
        with pytest.raises(IllConditionedSystemError, match="condition"):
            solve_correlation(model, pi)

    def test_component_out_of_range(self):
        model = single_queue_model(1.0, 1.0)
        v = solve_correlation(model, solve_stationary(model))
        with pytest.raises(IndexError, match="component 2 out of range"):
            average_age(v, 2)
        with pytest.raises(IndexError):
            average_age(v, -1)
        for bad in (True, False, 1.0):
            with pytest.raises(IndexError, match=f"component {bad} out of range"):
                average_age(v, bad)
        assert average_age(v, np.int64(1)) == average_age(v, 1)


class TestInvariances:
    def permuted(self, model, perm):
        inverse = np.argsort(perm)
        transitions = [
            (int(perm[t.from_state]), int(perm[t.to_state]), t.rate, t.reset_map)
            for t in model.transitions
        ]
        slopes = model.slopes[inverse]
        return build_model(model.num_states, model.num_components, transitions, slopes)

    def test_relabeling_leaves_average_age_unchanged(self):
        rng = np.random.default_rng(5)
        model = ring_model([0.6, 3.0, 1.1, 0.09], num_components=3)
        base = average_age(solve_correlation(model, solve_stationary(model)))
        for _ in range(10):
            perm = rng.permutation(model.num_states)
            shuffled = self.permuted(model, perm)
            value = average_age(solve_correlation(shuffled, solve_stationary(shuffled)))
            assert value == pytest.approx(base, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_rate_scaling_inverts_average_age(self, factor):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            ring = rng.uniform(0.05, 20.0, size=3)
            base_model = ring_model(ring)
            scaled_model = ring_model(ring * factor)
            base = average_age(solve_correlation(base_model, solve_stationary(base_model)))
            scaled = average_age(solve_correlation(scaled_model, solve_stationary(scaled_model)))
            assert scaled == pytest.approx(base / factor, rel=1e-10)


class TestSerialization:
    def test_round_trip_preserves_model_and_solution(self):
        model = ring_model([0.8, 2.5, 1.7], num_components=3)
        clone = model_from_json(model_to_json(model))
        assert clone.num_states == model.num_states
        assert clone.num_components == model.num_components
        assert clone.slopes.tolist() == model.slopes.tolist()
        for a, b in zip(clone.transitions, model.transitions):
            assert (a.from_state, a.to_state, a.rate) == (b.from_state, b.to_state, b.rate)
            assert np.array_equal(a.reset_map, b.reset_map)
        original = average_age(solve_correlation(model, solve_stationary(model)))
        recovered = average_age(solve_correlation(clone, solve_stationary(clone)))
        assert recovered == pytest.approx(original, rel=1e-15)

    def test_named_chain_round_trip_keeps_compiled_rows(self):
        text = model_to_json(_CHAIN)
        assert '"rate": "lambda1"' in text
        clone = model_from_json(text)
        assert clone.rate_names == _CHAIN.rate_names
        assert [t.rate for t in clone.transitions] == [t.rate for t in _CHAIN.transitions]
        for rows in ("live", "balance", "correlation", "balance_norm", "correlation_norm"):
            assert np.array_equal(getattr(clone, rows), getattr(_CHAIN, rows))
        assert model_to_json(clone) == text

    def test_invalid_document_is_revalidated(self):
        model = ring_model([1.0, 1.0])
        text = model_to_json(model).replace('"rate": 1.0', '"rate": -1.0')
        with pytest.raises(ValueError, match=r"rate must be strictly positive and finite, "
                                             r"got -1\.0"):
            model_from_json(text)

    def test_string_rate_rejected(self):
        text = model_to_json(ring_model([2.5, 1.0]))
        assert '"rate": 2.5' in text
        with pytest.raises(ValueError, match=r"rate must be strictly positive and finite, "
                                             r"got '2\.5'"):
            model_from_json(text.replace('"rate": 2.5', '"rate": "2.5"'))

    @pytest.mark.parametrize("text, message", [
        pytest.param('{"num_states": 2}', "model document lacks field 'num_components'",
                     id="missing-field"),
        pytest.param(json.dumps({"num_states": 1, "num_components": 1, "slopes": [[1]],
                                 "transitions": [{"from_state": 0, "rate": 1.0,
                                                  "reset_map": [[1]]}]}),
                     "transition 0 lacks field 'to_state'", id="missing-to-state"),
        pytest.param("[1, 2]", "model document is not a JSON object", id="array"),
        pytest.param('"model"', "model document is not a JSON object", id="string"),
        pytest.param(json.dumps({"num_states": 1, "num_components": 1, "slopes": [[1]],
                                 "transitions": {}}),
                     "model document: transitions is not a JSON array",
                     id="transitions-object"),
    ])
    def test_malformed_document_is_named(self, text, message):
        with pytest.raises(ValueError, match=message):
            model_from_json(text)
