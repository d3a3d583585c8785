"""Two sensors sampling one process through parallel single-buffer channels.

Each sensor generates timestamped updates as a Poisson process and pushes
them over its own exponential-service channel with a one-update buffer and
blocking (an arrival finding the channel busy is dropped). The shared monitor
keeps whichever delivered update was generated most recently, so a delivery
that is staler than what the monitor already holds changes nothing.

The chain below tracks which channels are busy together with the order and
"already superseded" status of the in-flight updates; nine states suffice.
The age vector has three components: monitor age, then the age of the update
sitting in each sensor's channel. Everything reduces to the generic solver in
:mod:`aoi_shs.shs_core`; closed forms for the equal-rate special cases are
provided alongside and cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# solve_stationary, solve_correlation and average_age are not called here but
# stay importable from this module, next to build_model, for callers that
# reach the solver through it
from .shs_core import (  # noqa: F401
    CorrelationVectors,
    ShsModel,
    StationaryDistribution,
    _compile_chain,
    _solve,
    average_age,
    build_model,
    solve_correlation,
    solve_stationary,
)

#: Index of the monitor age within the chain's 3-component age vector.
MONITOR_COMPONENT = 0

NUM_STATES = 9
NUM_COMPONENTS = 3

#: Order of the rates in a rate vector, and in each row of a rate grid.
_RATE_NAMES = ("lambda1", "lambda2", "mu1", "mu2")


@dataclass(frozen=True)
class TwoSensorParams:
    """Arrival and service rates of the two sensor channels (all 1/time)."""

    lambda1: float
    lambda2: float
    mu1: float
    mu2: float

    def __post_init__(self):
        for name in _RATE_NAMES:
            value = float(getattr(self, name))
            _require_positive(**{name: value})
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class AoiBreakdown:
    """Average monitor age plus the per-state solver output it came from.

    The diagnostics are the 2-norm condition estimates and the largest
    absolute residuals of the stationary and correlation solves; the solver
    rejects condition estimates above ``shs_core.CONDITION_LIMIT`` and
    residuals above ``shs_core.BALANCE_RESIDUAL_TOL`` and
    ``shs_core.CORRELATION_RESIDUAL_TOL``.
    """

    average_aoi: float
    stationary: StationaryDistribution
    correlations: CorrelationVectors
    stationary_condition: float
    stationary_residual: float
    correlation_condition: float
    correlation_residual: float


# Transition table of the nine-state chain. Each row is
# (source, destination, rate name, kept components), where the k-th entry of
# "kept components" names the pre-transition component copied into
# post-transition component k (None resets that component to zero).
_TRANSITIONS = (
    (0, 1, "lambda1", (0, None, None)),
    (1, 0, "mu1", (1, None, None)),
    (1, 3, "lambda2", (0, 1, None)),
    (3, 2, "mu2", (2, 1, None)),
    (2, 0, "mu1", (0, None, None)),
    (2, 7, "lambda2", (0, 1, None)),
    (7, 2, "mu2", (2, 1, None)),
    (3, 4, "mu1", (1, None, 2)),
    (7, 4, "mu1", (0, None, 2)),
    (0, 4, "lambda2", (0, None, None)),
    (4, 0, "mu2", (2, None, None)),
    (4, 6, "lambda1", (0, None, 2)),
    (6, 5, "mu1", (1, None, 2)),
    (5, 0, "mu2", (0, None, None)),
    (5, 8, "lambda1", (0, None, 2)),
    (8, 5, "mu1", (1, None, 2)),
    (6, 1, "mu2", (2, 1, None)),
    (8, 1, "mu2", (0, 1, None)),
)

# Monitor age always grows; a sensor's component grows only while an update
# of that sensor is in flight.
_SLOPES = (
    (1, 0, 0),
    (1, 1, 0),
    (1, 1, 0),
    (1, 1, 1),
    (1, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (1, 1, 1),
    (1, 1, 1),
)


def _reset_map(kept) -> np.ndarray:
    amap = np.zeros((NUM_COMPONENTS, NUM_COMPONENTS))
    for col, src in enumerate(kept):
        if src is not None:
            amap[src, col] = 1.0
    return amap


_CHAIN = _compile_chain(
    NUM_STATES,
    NUM_COMPONENTS,
    [(frm, to, _RATE_NAMES.index(name), _reset_map(kept))
     for (frm, to, name, kept) in _TRANSITIONS],
    _SLOPES,
    len(_RATE_NAMES),
)


def build_two_sensor_chain(params: TwoSensorParams) -> ShsModel:
    """Instantiate the nine-state, eighteen-transition chain for ``params``."""
    rates = [getattr(params, name) for name in _RATE_NAMES]
    transitions = [
        (frm, to, rates[symbol], amap) for (frm, to, symbol, amap) in _CHAIN.transitions
    ]
    return build_model(NUM_STATES, NUM_COMPONENTS, transitions, _SLOPES)


def stationary_closed_form(params: TwoSensorParams) -> StationaryDistribution:
    """Closed-form stationary probabilities of the nine-state chain.

    Agrees with the generic linear solve to machine precision; the common
    denominator is (l1+m1)(l2+m2)(m1+m2)^2 with per-state polynomial
    numerators.
    """
    l1, l2, m1, m2 = params.lambda1, params.lambda2, params.mu1, params.mu2
    g = (l1 + m1) * (l2 + m2) * (m1 + m2) ** 2
    d1 = (l2 + m1) * g
    d2 = (l1 + m2) * g
    probs = np.array(
        [
            m1 * m2 * (m1 + m2) ** 2 / g,
            l1 * m1 * m2 * (m1 + m2) * (l2 + m1 + m2) / d1,
            l1 * l2 * m2**2 * (m1 + m2) / d1,
            l1 * l2 * m1 * m2 * (l2 + m1 + m2) / d1,
            l2 * m1 * m2 * (m1 + m2) * (l1 + m1 + m2) / d2,
            l1 * l2 * m1**2 * (m1 + m2) / d2,
            l1 * l2 * m1 * m2 * (l1 + m1 + m2) / d2,
            l1 * l2**2 * m2**2 / d1,
            l1**2 * l2 * m1**2 / d2,
        ]
    )
    probs.setflags(write=False)
    return StationaryDistribution(probs=probs)


def average_aoi_general(params: TwoSensorParams) -> AoiBreakdown:
    """Average monitor age for arbitrary positive rates, via the generic solver.

    Solved as a grid of one point; the breakdown adds the per-state solver
    output and its diagnostics to the value :func:`average_aoi_grid` returns.
    """
    solution = _solve(_CHAIN, np.array([[getattr(params, name) for name in _RATE_NAMES]]))
    return AoiBreakdown(
        average_aoi=float(_monitor_ages(solution)[0]),
        stationary=StationaryDistribution(probs=solution.probs[0]),
        correlations=CorrelationVectors(vectors=solution.vectors[0]),
        stationary_condition=float(solution.stationary_condition[0]),
        stationary_residual=float(solution.stationary_residual[0]),
        correlation_condition=float(solution.correlation_condition[0]),
        correlation_residual=float(solution.correlation_residual[0]),
    )


def average_aoi_grid(rates) -> np.ndarray:
    """Average monitor ages of many rate points, via the generic solver.

    ``rates`` has shape (N, 4), one row ``(lambda1, lambda2, mu1, mu2)`` per
    point, N >= 1. Returns the N average ages, each bit-identical to
    :func:`average_aoi_general` at that point. A point that fails a solver
    guard raises ``IllConditionedSystemError`` naming its index and rates.
    """
    rates = np.array(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] < 1 or rates.shape[1] != len(_RATE_NAMES):
        raise ValueError(
            f"rates must have shape (N, {len(_RATE_NAMES)}) with N >= 1, "
            f"got {rates.shape}"
        )
    bad = ~(np.isfinite(rates) & (rates > 0.0))
    if bad.any():
        point, column = np.argwhere(bad)[0]
        raise ValueError(
            f"point {point}: {_RATE_NAMES[column]} must be strictly positive "
            f"and finite, got {float(rates[point, column])!r}"
        )
    return _monitor_ages(_solve(_CHAIN, rates))


def _monitor_ages(solution) -> np.ndarray:
    return solution.vectors[:, :, MONITOR_COMPONENT].sum(axis=1)


def average_aoi_equal_service(lambda1: float, lambda2: float, mu: float) -> float:
    """Closed-form average age when both channels share one service rate.

    Rates are normalized by their maximum before evaluating the degree-7
    rational expression and the result is rescaled, which keeps intermediate
    powers near unity for extreme rate ratios.
    """
    _require_positive(lambda1=lambda1, lambda2=lambda2, mu=mu)
    scale = max(lambda1, lambda2, mu)
    l1, l2, m = lambda1 / scale, lambda2 / scale, mu / scale
    first = (
        l1**4 * (17 * l2 * m**2 + 15 * l2**2 * m + 5 * l2**3 + 8 * m**3)
        + 4 * m**3 * (l2 + m) ** 2 * (2 * l2 * m + 2 * l2**2 + m**2)
        + l1**3 * (59 * l2 * m**3 + 62 * l2**2 * m**2 + 30 * l2**3 * m + 5 * l2**4)
    )
    second = (
        24 * l1**3 * m**4
        + l1**2 * m * (82 * l2 * m**3 + 102 * l2**2 * m**2 + 62 * l2**3 * m
                       + 15 * l2**4 + 28 * m**4)
        + l1 * m**2 * (56 * l2 * m**3 + 82 * l2**2 * m**2 + 59 * l2**3 * m
                       + 17 * l2**4 + 16 * m**4)
    )
    denom = 4 * (l1 + l2) * m * (l1 + m) ** 3 * (l2 + m) ** 3
    return (first + second) / denom / scale


def average_aoi_symmetric(lam: float, mu: float) -> float:
    """Closed-form average age when both sensors share one arrival rate and
    one service rate:

        (5 a^5 + 20 a^4 s + 34 a^3 s^2 + 30 a^2 s^3 + 12 a s^4 + 2 s^5)
            / (4 a s (a + s)^4)

    with a the per-sensor arrival rate and s the service rate.
    """
    _require_positive(lam=lam, mu=mu)
    scale = max(lam, mu)
    a, s = lam / scale, mu / scale
    num = (
        5 * a**5 + 20 * a**4 * s + 34 * a**3 * s**2
        + 30 * a**2 * s**3 + 12 * a * s**4 + 2 * s**5
    )
    return num / (4 * a * s * (a + s) ** 4) / scale


def zero_wait_limit(mu: float) -> float:
    """Saturation limit of the symmetric system: each sensor regenerates the
    instant it goes idle, leaving an average age of 5 / (4 mu)."""
    _require_positive(mu=mu)
    return 5.0 / (4.0 * mu)


def _require_positive(**rates: float) -> None:
    for name, value in rates.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"{name} must be strictly positive and finite, got {value!r}"
            )
