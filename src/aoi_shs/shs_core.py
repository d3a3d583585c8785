"""Generic solver for finite Markov chains carrying linearly-reset age vectors.

A model couples a finite continuous-time Markov chain with a vector of age
components. Inside a state, each component either grows at unit rate or stays
frozen (binary slope). Every transition applies a linear reset map, read in
row-vector convention ``x_new = x_old @ A``: column ``j`` of ``A`` selects the
single pre-transition component copied into post-transition component ``j``,
or is all zero if that component restarts from 0.

Two dense linear solves extract the long-run behaviour:

* the stationary distribution of the discrete chain, from the global balance
  equations plus normalization, and
* the stationary state-conditioned age expectations ("correlation vectors"),
  from the coupled linear system those reset maps induce.

Summing a correlation component over all states gives the long-run time
average of that age process; component 0 is conventionally the monitor age.

:func:`build_model` validates a chain once and stores one coefficient row per
transition, so both systems are linear in the transition rates: a stack of
rate rows times the coefficients assembles a stack of systems, which are
solved and guarded together. A single model is a batch of one, and each
solve's result carries its exact 1-norm condition number and largest
residual. The correlation system has rates on its diagonal and none but
nonpositive entries off it (a Z-matrix), and a stationary age exists exactly
when it is a nonsingular M-matrix; one solve of its transpose certifies that
and gives the condition number, ``inf`` when the certificate fails. The
balance system, whose normalization row breaks that sign pattern, takes its
condition number from the inverse.

All functions are pure and the returned arrays are read-only, so values can
be shared freely across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Solves whose exact 1-norm condition number exceeds this are rejected (the
#: balance stage's comes from the inverse, the correlation stage's from the
#: M-matrix certificate, ``inf`` when it fails); a huge condition number
#: almost always means a structurally broken chain (for example an age
#: component that is never reset) rather than a hard instance. The 1-norm
#: number is within a factor n of the 2-norm one (kappa_2 / n <= kappa_1 <=
#: n kappa_2). On the nine-state two-sensor chain, over 3000 log-uniform
#: points in [0.02, 50]^4, it lies between 0.42 and 3.5 times the 2-norm one,
#: every correlation system is certified, and the certificate's number
#: matches the inverse's to 1.5e-13 relative. Over six such samples (numpy
#: seeds 0 to 5) it peaks at 1.2e4 (balance) and 1.0e4 (correlation), and
#: at 6.0e3 and 9.1e3 on the five-state fake-update chain that solves rate
#: grids, whose correlation systems are all certified too. Along rates
#: (s, s, 1/s, 1/s) every stage of both chains passes 1e12 at the same
#: decade, s = 1e6.
CONDITION_LIMIT = 1e12

#: Residual ceilings, roughly 100x double round-off for systems of this size.
BALANCE_RESIDUAL_TOL = 1e-10
CORRELATION_RESIDUAL_TOL = 1e-10
NORMALIZATION_TOL = 1e-12

_TINY_NEGATIVE = -1e-12

#: Points solved together; bounds the memory of the stacked systems and of
#: the balance inverses, from which that stage's condition numbers come.
#: Only the five-state grid chain (15 x 15 correlation systems) is solved in
#: batches larger than one, so the size is chosen for it: ``_solve`` on 500
#: such points, one BLAS thread on a shared 2-CPU host, medians of 15
#: interleaved runs, took 9.0, 8.1, 7.8 and 8.4 ms at blocks of 64, 128, 256
#: and 512. At 512 each 15 x 15 stack is 0.9 MB, and the few that a block
#: holds at once outgrow the host's 2 MB per-core L2 cache.
BATCH_BLOCK = 256


class IllConditionedSystemError(RuntimeError):
    """A balance or correlation system is numerically singular."""


def _read_only(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _is_a(kind, value) -> bool:
    """``value`` is a ``numbers`` ``kind`` (numpy scalars included), not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _require_positive(**rates) -> None:
    """The package's one rate rule: each named rate must be a real number
    (numpy scalars included; bools and strings raise ``ValueError`` too),
    strictly positive and finite, or ``ValueError`` reads ``<name> must be
    strictly positive and finite, got <value!r>``, a numpy scalar shown as
    the plain number it holds. A name need not be an identifier:
    ``**{"point 3: mu1": value}`` names a grid entry."""
    for name, value in rates.items():
        if not (_is_a(numbers.Real, value) and 0.0 < value < math.inf):
            shown = value.item() if isinstance(value, np.generic) else value
            raise ValueError(f"{name} must be strictly positive and finite, got {shown!r}")


class TransitionSpec(NamedTuple):
    """One chain transition: source, destination, rate, and age reset map."""

    from_state: int
    to_state: int
    rate: float
    reset_map: np.ndarray


@dataclass(frozen=True)
class ShsModel:
    """Validated, compiled chain; construct through :func:`build_model`.

    ``balance[t]`` and ``correlation[t]`` hold, flattened, what one unit of
    the rate of transition ``t`` contributes to the balance system (n, n)
    and to the correlation system (n * c, n * c).
    """

    num_states: int
    num_components: int
    transitions: tuple[TransitionSpec, ...]
    slopes: np.ndarray
    balance: np.ndarray = field(repr=False, compare=False)
    correlation: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class StationaryDistribution:
    """Per-state long-run probabilities of the discrete chain, with the
    condition number (1-norm, exact, from the inverse of the balance system)
    and the largest absolute residual of the balance solve (NaN if no solve
    produced them)."""

    probs: np.ndarray
    condition: float
    residual: float


@dataclass(frozen=True)
class CorrelationVectors:
    """Per-state stationary age expectations, shape (num_states, num_components).

    Row ``q`` is the expectation of the age vector restricted to state ``q``;
    summing a column over all states yields that component's time average.
    ``condition`` (1-norm, exact, from the M-matrix certificate, ``inf``
    when it fails) and ``residual`` diagnose the solve as in
    :class:`StationaryDistribution`.
    """

    vectors: np.ndarray
    condition: float
    residual: float


def build_model(num_states, num_components, transitions, slopes) -> ShsModel:
    """Assemble, validate and compile a model.

    ``transitions`` holds ``(from_state, to_state, rate, reset_map)``
    tuples, :class:`TransitionSpec` or plain. Counts and state indices must
    be integers and rates real numbers (numpy scalars included, bools not).
    Raises ``ValueError`` naming the offending field, transition or state on
    any violation: a count below 1, a state index that is not an integer or
    out of range, a rate that breaks :func:`_require_positive`'s rule
    (named ``transition <idx> (<from>-><to>): rate``), reset-map columns
    that are not "zero or copy exactly one component", non-binary slopes,
    or a chain that is not strongly connected.
    """
    for label, count in (("num_states", num_states), ("num_components", num_components)):
        if not (_is_a(numbers.Integral, count) and count >= 1):
            raise ValueError(f"{label} must be an integer >= 1, got {count!r}")
    n, c = int(num_states), int(num_components)

    specs = []
    for idx, spec in enumerate(transitions):
        try:
            frm, to, rate, amap = spec
        except (TypeError, ValueError):
            raise ValueError(
                f"transition {idx} is not a {TransitionSpec._fields} tuple") from None
        for label, state in (("from_state", frm), ("to_state", to)):
            if not (_is_a(numbers.Integral, state) and 0 <= state < n):
                raise ValueError(
                    f"transition {idx}: {label} {state!r} is not an integer in [0, {n})"
                )
        _require_positive(**{f"transition {idx} ({frm}->{to}): rate": rate})
        amap = np.array(amap, dtype=float)
        if amap.shape != (c, c):
            raise ValueError(
                f"transition {idx}: reset_map shape {amap.shape} != ({c}, {c})"
            )
        if not np.isin(amap, (0.0, 1.0)).all():
            raise ValueError(f"transition {idx}: reset_map entries must be 0 or 1")
        col_counts = amap.sum(axis=0)
        if (col_counts > 1).any():
            bad = int(np.argmax(col_counts > 1))
            raise ValueError(
                f"transition {idx}: reset_map column {bad} has "
                f"{int(col_counts[bad])} nonzero entries; at most one allowed"
            )
        amap.setflags(write=False)
        specs.append(TransitionSpec(int(frm), int(to), float(rate), amap))

    slopes = np.array(slopes, dtype=float)
    if slopes.shape != (n, c):
        raise ValueError(f"slopes shape {slopes.shape} != ({n}, {c})")
    if not np.isin(slopes, (0.0, 1.0)).all():
        bad = int(np.argwhere(~np.isin(slopes, (0.0, 1.0)))[0][0])
        raise ValueError(f"slope entries must be 0 or 1 (state {bad})")
    slopes.setflags(write=False)

    _check_irreducible(n, specs)

    balance = np.zeros((len(specs), n, n))
    correlation = np.zeros((len(specs), n * c, n * c))
    own = np.arange(c)
    for t, (frm, to, _, amap) in enumerate(specs):
        balance[t, frm, frm] += 1.0
        balance[t, to, frm] -= 1.0
        # leaving ``frm`` at this rate: v_frm * rate on the diagonal; entering
        # ``to``: (v_frm @ A)[j] = sum_i v_frm[i] A[i, j], hence the transpose
        correlation[t, frm * c + own, frm * c + own] += 1.0
        correlation[t, to * c:(to + 1) * c, frm * c:(frm + 1) * c] -= amap.T
    balance = balance.reshape(len(specs), n * n)
    correlation = correlation.reshape(len(specs), (n * c) ** 2)
    balance.setflags(write=False)
    correlation.setflags(write=False)
    return ShsModel(n, c, tuple(specs), slopes, balance, correlation)


def _check_irreducible(num_states: int, specs) -> None:
    forward: list[list[int]] = [[] for _ in range(num_states)]
    backward: list[list[int]] = [[] for _ in range(num_states)]
    for frm, to, _, _ in specs:
        forward[frm].append(to)
        backward[to].append(frm)
    for graph, direction in ((forward, "from"), (backward, "to")):
        seen = {0}
        stack = [0]
        while stack:
            for nxt in graph[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != num_states:
            missing = min(set(range(num_states)) - seen)
            if direction == "from":
                raise ValueError(
                    f"chain is not irreducible: state {missing} unreachable from state 0"
                )
            raise ValueError(
                f"chain is not irreducible: state 0 unreachable from state {missing}"
            )


def _model_rates(model: ShsModel) -> np.ndarray:
    return np.array([[t.rate for t in model.transitions]])


def _reject(bad: np.ndarray, rates: np.ndarray, offset: int, describe) -> None:
    """Raise for the first point flagged in ``bad``; ``describe(i)`` says why."""
    if bad.any():
        i = int(np.argmax(bad))
        raise IllConditionedSystemError(
            f"point {offset + i} (rates {rates[i].tolist()}): {describe(i)}"
        )


def _guard_condition(systems: np.ndarray, label: str, rates, offset) -> np.ndarray:
    """Each system's 1-norm condition number ``|A|_1 |A^-1|_1``, the number
    LAPACK's ``gecon`` estimates, here exact from one batched inverse (a
    third of the cost of the singular values a 2-norm number needs, for the
    27 x 27 systems of the two-sensor chain). An exactly
    singular member reads ``inf`` and is rejected by index, like any other
    point above :data:`CONDITION_LIMIT`."""
    cond = np.linalg.cond(systems, 1)
    _reject(
        ~np.isfinite(cond) | (cond > CONDITION_LIMIT), rates, offset,
        lambda i: f"{label} system is ill-conditioned "
                  f"(condition estimate {cond[i]:.3e} exceeds {CONDITION_LIMIT:.0e})",
    )
    return cond


def _certify_m_matrix(systems: np.ndarray, label: str, rates, offset) -> np.ndarray:
    """Guard a stack of Z-matrices (no positive entry off the diagonal), the
    form of every correlation system, by certifying each a nonsingular
    M-matrix: one batched solve ``y = A^-T 1``, with ``y > 0`` and the
    certificate's own residual ``|A^T y - 1|`` below 1/2, shows ``A^T y > 0``
    for a positive ``y``. Then ``A^-1 >= 0``, so ``|A^-1|_1 = max(y)`` and
    the 1-norm condition number is ``|A|_1 max(y)``, the number
    :func:`_guard_condition` takes from the inverse, at the cost of one
    solve (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6). An uncertified member reads ``inf`` and is rejected;
    a stationary age vector exists exactly when the certificate holds. An
    exactly singular member fails the whole batched solve, and only then is
    the stack handed to :func:`_guard_condition`, which names it."""
    transposed = np.swapaxes(systems, -1, -2)
    ones = np.ones((systems.shape[-1], 1))
    try:
        y = np.linalg.solve(transposed, ones)
    except np.linalg.LinAlgError:
        return _guard_condition(systems, label, rates, offset)
    miss = np.abs(transposed @ y - ones).max(axis=(1, 2))
    certified = (y.min(axis=(1, 2)) > 0.0) & (miss < 0.5)
    norm = np.abs(systems).sum(axis=-2).max(axis=-1)
    cond = np.where(certified, norm * y.max(axis=(1, 2)), np.inf)
    _reject(
        ~(cond <= CONDITION_LIMIT), rates, offset,
        lambda i: f"{label} system is ill-conditioned "
                  f"(condition estimate {cond[i]:.3e} exceeds {CONDITION_LIMIT:.0e})",
    )
    return cond


def _stationary(model: ShsModel, rates: np.ndarray, weights: np.ndarray, offset: int):
    """Stationary stage of :func:`solve_stationary` for a block of points:
    ``weights`` (B, T) holds each point's transition rates and ``rates`` the
    rows that guard messages name; ``offset`` is the index of the block's
    first point. Returns the probabilities (B, n), condition numbers and
    max balance residuals (B,).
    """
    n = model.num_states
    balance = (weights @ model.balance).reshape(-1, n, n)
    system = balance.copy()
    system[:, -1, :] = 1.0
    rhs = np.zeros((n, 1))
    rhs[-1] = 1.0
    cond = _guard_condition(system, "stationary balance", rates, offset)
    probs = np.linalg.solve(system, rhs)

    residual = np.abs(balance @ probs).max(axis=(1, 2))
    probs = probs[..., 0]
    _reject(
        residual > BALANCE_RESIDUAL_TOL, rates, offset,
        lambda i: f"stationary solve left balance residual {residual[i]:.3e} "
                  f"above {BALANCE_RESIDUAL_TOL:.0e}",
    )
    lowest = probs.min(axis=1)
    _reject(
        lowest < _TINY_NEGATIVE, rates, offset,
        lambda i: f"stationary solve produced negative probability {lowest[i]:.3e}",
    )
    probs[probs < 0.0] = 0.0
    total = probs.sum(axis=1)
    _reject(
        np.abs(total - 1.0) > NORMALIZATION_TOL, rates, offset,
        lambda i: f"stationary probabilities sum to {float(total[i])!r}, not 1",
    )
    return probs, cond, residual


def _correlation(model: ShsModel, rates: np.ndarray, weights: np.ndarray,
                 probs: np.ndarray, offset: int):
    """Correlation stage of :func:`solve_correlation` for a block of points,
    given as for :func:`_stationary`, and their stationary probabilities
    (B, n). Returns the vectors (B, n, c), condition numbers and max
    residuals (B,).
    """
    n, c = model.num_states, model.num_components
    system = (weights @ model.correlation).reshape(-1, n * c, n * c)
    rhs = (model.slopes * probs[:, :, None]).reshape(len(rates), n * c, 1)

    cond = _certify_m_matrix(system, "correlation", rates, offset)
    stacked = np.linalg.solve(system, rhs)

    residual = np.abs(system @ stacked - rhs).max(axis=(1, 2))
    stacked = stacked[..., 0]
    _reject(
        residual > CORRELATION_RESIDUAL_TOL, rates, offset,
        lambda i: f"correlation solve left residual {residual[i]:.3e} "
                  f"above {CORRELATION_RESIDUAL_TOL:.0e}",
    )
    scale = np.maximum(1.0, np.abs(stacked).max(axis=1))
    lowest = stacked.min(axis=1)
    _reject(
        lowest < _TINY_NEGATIVE * scale, rates, offset,
        lambda i: f"correlation solve produced negative expectation {lowest[i]:.3e}; "
                  "the chain likely has an age component that can drift without reset",
    )
    stacked[stacked < 0.0] = 0.0
    return stacked.reshape(len(rates), n, c), cond, residual


def _solve(model: ShsModel, rates: np.ndarray, columns):
    """Both solves for every row of an (N, k) rate array, N >= 1.

    ``columns`` maps each of the model's T transitions onto a column of
    ``rates``: point i's transition rates are ``rates[i, columns]``, so a
    chain whose transitions share a few named rates is solved, and its guard
    messages are written, in those rates. Points are solved in blocks of
    :data:`BATCH_BLOCK`: a single block's arrays are returned as they are,
    and more blocks are copied into arrays of N rows as they are solved, so
    no block outlives its solve. Rates must already be positive and finite.
    A point that fails a guard raises :class:`IllConditionedSystemError`
    naming its index and rates. Returns each stage's read-only ``(values,
    condition, residual)``, every array with leading dimension N.
    """
    stages = None
    for start in range(0, len(rates), BATCH_BLOCK):
        rows = rates[start:start + BATCH_BLOCK]
        weights = rows[:, columns]
        stationary = _stationary(model, rows, weights, start)
        block = (*stationary, *_correlation(model, rows, weights, stationary[0], start))
        if len(rows) == len(rates):
            stages = block
        else:
            if stages is None:
                stages = [np.empty((len(rates), *values.shape[1:])) for values in block]
            for out, values in zip(stages, block):
                out[start:start + len(rows)] = values
    for values in stages:
        values.setflags(write=False)
    return stages[:3], stages[3:]


def _first_point(result, stage):
    """Point 0 of a stage's ``(values, condition, residual)`` as ``result``."""
    values, condition, residual = stage
    return result(_read_only(values[0]), float(condition[0]), float(residual[0]))


def solve_stationary(model: ShsModel) -> StationaryDistribution:
    """Solve global balance plus normalization for the stationary distribution.

    The balance equations are rank-deficient by one for an irreducible chain,
    so the last balance row is replaced by the normalization constraint and
    the system is solved by dense LU with partial pivoting. The full set of
    balance residuals is re-checked afterwards.
    """
    rates = _model_rates(model)
    return _first_point(StationaryDistribution, _stationary(model, rates, rates, 0))


def solve_correlation(model: ShsModel, pi: StationaryDistribution) -> CorrelationVectors:
    """Solve for the stationary state-conditioned age expectations.

    All per-state vectors are stacked into one unknown of length
    ``num_states * num_components`` and the coupled equations

        v_q * (total outgoing rate of q)
            = slope_q * pi_q + sum over incoming transitions of rate * (v_src @ A)

    are solved as a single dense system. Nonnegativity of the solution is
    verified a posteriori rather than assumed.
    """
    rates = _model_rates(model)
    probs = np.asarray(pi.probs, dtype=float)[None, :]
    return _first_point(CorrelationVectors, _correlation(model, rates, rates, probs, 0))


def average_age(v: CorrelationVectors, component: int = 0) -> float:
    """Long-run time average of one age component: the column sum over states.

    ``component`` must be an integer in range (numpy integers included; a
    bool or float raises ``IndexError`` too)."""
    num_components = v.vectors.shape[1]
    if not (_is_a(numbers.Integral, component) and 0 <= component < num_components):
        raise IndexError(
            f"component {component} out of range [0, {num_components})"
        )
    return float(v.vectors[:, component].sum())


def model_to_json(model: ShsModel) -> str:
    """Serialize a model to the documented JSON schema (see README)."""
    doc = {
        "num_states": model.num_states,
        "num_components": model.num_components,
        "transitions": [
            {
                "from_state": t.from_state,
                "to_state": t.to_state,
                "rate": t.rate,
                "reset_map": t.reset_map.astype(int).tolist(),
            }
            for t in model.transitions
        ],
        "slopes": model.slopes.astype(int).tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def _fields(doc, what: str, names) -> list:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [name for name in names if name not in doc]
    if missing:
        raise ValueError(f"{what} lacks field {missing[0]!r}")
    return [doc[name] for name in names]


def model_from_json(text: str) -> ShsModel:
    """Parse and fully re-validate a model from its JSON document; a document
    or transition that is not an object or lacks a field raises ``ValueError``."""
    num_states, num_components, transitions, slopes = _fields(
        json.loads(text), "model document",
        ("num_states", "num_components", "transitions", "slopes"))
    if not isinstance(transitions, list):
        raise ValueError("model document: transitions is not a JSON array")
    transitions = [_fields(t, f"transition {idx}", TransitionSpec._fields)
                   for idx, t in enumerate(transitions)]
    return build_model(num_states, num_components, transitions, slopes)
