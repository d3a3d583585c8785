"""Two sensors sampling one process through parallel single-buffer channels.

Each sensor generates timestamped updates as a Poisson process and pushes
them over its own exponential-service channel with a one-update buffer and
blocking (an arrival finding the channel busy is dropped). The shared monitor
keeps whichever delivered update was generated most recently, so a delivery
that is staler than what the monitor already holds changes nothing.

The paper's chain tracks which channels are busy together with the order
and "already superseded" status of the in-flight updates; nine states
suffice. The age vector has three components: monitor age, then the age of
the update sitting in each sensor's channel. Rate grids are solved on a
smaller chain with the same components: a delivery hands its age to the
other channel if that one holds an older update, which then serves a "fake"
update, so five states (the busy set and, with both busy, which is fresher)
give the same monitor age. Everything reduces to the generic solver in
:mod:`aoi_shs.shs_core`, with its solve diagnostics and its one rule for
every rate; closed forms for the equal-rate special cases are provided
alongside and cross-checked in the test suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# solve_stationary, solve_correlation and average_age are not called here but
# stay names of this module: perfbench/tracer.py patches them on two_sensor as
# well as on shs_core, and tests/test_perfbench_tracer.py requires them
from .shs_core import (  # noqa: F401
    CorrelationVectors,
    ShsModel,
    StationaryDistribution,
    _first_point,
    _require_positive,
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
        _require_positive(**{name: getattr(self, name) for name in _RATE_NAMES})
        for name in _RATE_NAMES:
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class AoiBreakdown:
    """Average monitor age plus the per-state solver output it came from;
    ``stationary`` and ``correlations`` carry the condition number and the
    largest residual of their solves, which the solver's guards bound."""

    average_aoi: float
    stationary: StationaryDistribution
    correlations: CorrelationVectors


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


# The fake-update chain that solves rate grids (R. D. Yates, "Status Updates
# through Networks of Parallel Servers", ISIT 2018); rows as in _TRANSITIONS.
# States: 0 both idle, 1 only channel 1 busy, 2 only channel 2 busy, 3 both
# busy with channel 1 fresher, 4 both busy with channel 2 fresher. A delivery
# from the fresher channel also sets the other channel's component, which
# stays busy serving that fake update.
_GRID_TRANSITIONS = (
    (0, 1, "lambda1", (0, None, None)),
    (0, 2, "lambda2", (0, None, None)),
    (1, 0, "mu1", (1, None, None)),
    (1, 4, "lambda2", (0, 1, None)),
    (2, 0, "mu2", (2, None, None)),
    (2, 3, "lambda1", (0, None, 2)),
    (3, 2, "mu1", (1, None, 1)),
    (3, 1, "mu2", (2, 1, None)),
    (4, 1, "mu2", (2, 2, None)),
    (4, 2, "mu1", (1, None, 2)),
)

_GRID_SLOPES = (
    (1, 0, 0),
    (1, 1, 0),
    (1, 0, 1),
    (1, 1, 1),
    (1, 1, 1),
)


def _reset_map(kept) -> np.ndarray:
    amap = np.zeros((NUM_COMPONENTS, NUM_COMPONENTS))
    for col, src in enumerate(kept):
        if src is not None:
            amap[src, col] = 1.0
    return amap


# Both chains, with the rate names as rates: their rate columns are _RATE_NAMES.
_CHAIN, _GRID_CHAIN = (
    build_model(len(slopes), NUM_COMPONENTS,
                [(frm, to, name, _reset_map(kept)) for frm, to, name, kept in table], slopes)
    for table, slopes in ((_TRANSITIONS, _SLOPES), (_GRID_TRANSITIONS, _GRID_SLOPES)))


def build_two_sensor_chain(params: TwoSensorParams) -> ShsModel:
    """Instantiate the nine-state, eighteen-transition chain for ``params``."""
    transitions = [t._replace(rate=getattr(params, t.rate)) for t in _CHAIN.transitions]
    return build_model(NUM_STATES, NUM_COMPONENTS, transitions, _SLOPES)


def stationary_closed_form(params: TwoSensorParams) -> StationaryDistribution:
    """Closed-form stationary probabilities of the nine-state chain.

    Agrees with the generic linear solve to machine precision; the common
    denominator is (l1+m1)(l2+m2)(m1+m2)^2 with per-state polynomial
    numerators. No solve produced them, so their diagnostics are NaN.
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
    return StationaryDistribution(probs=probs, condition=math.nan, residual=math.nan)


def average_aoi_general(params: TwoSensorParams) -> AoiBreakdown:
    """Average monitor age for arbitrary positive rates, via the generic solver.

    Solved as a batch of one on the paper's nine-state chain; the breakdown
    adds its per-state solver output and diagnostics to the age, which
    :func:`average_aoi_grid` matches to about 1e-15 relative.
    """
    rates = np.array([[getattr(params, name) for name in _CHAIN.rate_names]])
    [(stationary, correlation)] = _solve(_CHAIN, rates)
    return AoiBreakdown(
        average_aoi=float(_monitor_ages(correlation)[0]),
        stationary=_first_point(StationaryDistribution, stationary),
        correlations=_first_point(CorrelationVectors, correlation),
    )


def average_aoi_grid(rates) -> np.ndarray:
    """Average monitor ages of many rate points, via the generic solver on
    the five-state fake-update chain.

    ``rates`` has shape (N, 4), one row ``(lambda1, lambda2, mu1, mu2)`` per
    point, N >= 1. Returns the N average ages, each bit-identical to a
    one-row grid at that point and within about 1e-15 relative of
    :func:`average_aoi_general`. A point that fails a solver guard raises
    ``IllConditionedSystemError`` naming its index and rates.
    Entries must be real numbers, as for :class:`TwoSensorParams`: a bool,
    string or other object raises ``ValueError`` naming its point, and so
    does an entry past the float range or one whose float is 0; the message
    shows the entry as given.
    """
    # a list goes through object dtype, which keeps the bools that a float
    # conversion would silently turn into 1.0 and 0.0
    rates = rates if isinstance(rates, np.ndarray) else np.array(rates, dtype=object)
    if rates.ndim != 2 or rates.shape[0] < 1 or rates.shape[1] != len(_RATE_NAMES):
        raise ValueError(
            f"rates must have shape (N, {len(_RATE_NAMES)}) with N >= 1, "
            f"got {rates.shape}"
        )
    if rates.dtype.kind not in "iuf":
        # checked once per distinct entry type, as _is_a checks one value
        flat = rates.ravel()
        bad = {kind for kind in set(map(type, flat))
               if not issubclass(kind, numbers.Real) or issubclass(kind, bool)}
        if bad:
            index = next(i for i, value in enumerate(flat) if type(value) in bad)
            point, column = divmod(index, len(_RATE_NAMES))
            _require_positive(**{f"point {point}: {_RATE_NAMES[column]}": flat[index]})
    given = rates
    try:
        with np.errstate(over="ignore"):  # a long double past the float range reads inf
            rates = rates.astype(float)
    except OverflowError:  # a Python number past the float range: check every entry
        rates = np.full(rates.shape, math.nan)
    bad = ~(np.isfinite(rates) & (rates > 0.0))
    if bad.any():
        # the entries as given, as TwoSensorParams shows them
        for point, column in np.argwhere(bad):
            _require_positive(**{f"point {point}: {_RATE_NAMES[column]}": given[point, column]})
    return np.concatenate([_monitor_ages(correlation)
                           for _, correlation in _solve(_GRID_CHAIN, rates)])


def _monitor_ages(correlation) -> np.ndarray:
    return correlation[0][:, :, MONITOR_COMPONENT].sum(axis=1)


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
    return _closed_form(first + second, denom, scale,
                        lambda1=lambda1, lambda2=lambda2, mu=mu)


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
    return _closed_form(num, 4 * a * s * (a + s) ** 4, scale, lam=lam, mu=mu)


def zero_wait_limit(mu: float) -> float:
    """Saturation limit of the symmetric system: each sensor regenerates the
    instant it goes idle, leaving an average age of 5 / (4 mu)."""
    _require_positive(mu=mu)
    return _closed_form(5.0, 4.0 * mu, 1.0, mu=mu)


def _closed_form(num, denom, scale, **rates) -> float:
    """``num / denom / scale``, the last step of a closed form, or
    ``ValueError`` naming ``rates`` if the denominator underflows to zero or
    the age overflows: the rates lie outside the closed form's float range.
    Numpy scalar rates divide as numpy scalars, whose overflow warning the
    refusal makes redundant."""
    if denom:
        with np.errstate(over="ignore"):
            age = num / denom / scale
        if age < math.inf:
            return age
    shown = ", ".join(f"{name}={float(value)!r}" for name, value in rates.items())
    raise ValueError(f"rates {shown} lie outside the float range of the closed form")
