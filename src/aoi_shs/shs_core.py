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
rate name (per transition if the rates are numbers) for each system: a stack of
rate rows times the coefficients assembles a stack of systems, which are
solved and guarded together, one LAPACK call per stage. A single model is a
batch of one, and each solve's result carries its condition number and
largest residual. The balance stage inverts its systems: the normalization
right-hand side is the last unit vector, so the stationary distribution is
the inverse's last column, and the exact 1-norm condition number takes the
inverse's norm from the same inverse. Only the live correlation unknowns
are solved for, found by reachability in :func:`build_model`: those that
reset-map copies reach from a growing age or from one that is never
zeroed. The others are exactly 0; a never-zeroed age stays in the system,
which is singular on it, so that the certificate below rejects the chain.
The correlation system has rates on its diagonal and none but nonpositive
entries off it (a Z-matrix), and a stationary age exists exactly when it
is a nonsingular M-matrix; a second right-hand side of ones in the same
solve certifies that and gives the exact infinity-norm condition number,
``inf`` when the certificate fails. Every entry of either system collects
rates of one sign, so each system's own norm (the balance system's 1-norm,
the correlation system's infinity-norm) is linear in the rates too: the
model stores one norm row per coefficient row for each stage, and a block's
norms are one matrix product of the rate rows with them. Summed in that
order, a condition number may differ from ``np.linalg.cond`` by a few ulps.

Each stage first computes everything its guards read, for every point of
a block: the condition number (in the correlation stage, with the
certificate's own bounds), the largest residual, the lowest entry of the
solution, and in the balance stage the sum of the probabilities. One check
then passes the whole block when every point is within every bound and has
no negative entry. Only when that check fails does one scan run the
stage's guards in a fixed order: in the balance stage the condition
number, the balance residual relative to the system's 1-norm, a negative
probability and then, with negative entries clipped to 0, the
normalization; in the correlation stage the condition number, the residual
and a negative expectation, after which negative entries are clipped to 0.
The first guard that flags a point raises :class:`IllConditionedSystemError`
naming the first point it flags. Floating-point warnings are silenced
once per solve block, one ``np.errstate`` around both of its stages (and
around the one stage that :func:`solve_stationary` or
:func:`solve_correlation` runs): at rates near the float limit the
assembly and the guard quantities overflow, and the guard that refuses
the point is the only report.

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

#: Solves whose exact condition number exceeds this are rejected: the 1-norm
#: number of the balance system, from its inverse, and the infinity-norm
#: number of the correlation system on the live unknowns, from the M-matrix
#: certificate (``inf`` when it fails). A huge condition number almost always
#: means a structurally broken chain (for example an age component that is
#: never reset) rather than a hard instance. Either number is within a
#: factor n of the 2-norm one (kappa_2 / n <= kappa_1, kappa_inf <= n
#: kappa_2). On the nine-state two-sensor chain, over 3000 log-uniform
#: points in [0.02, 50]^4 (numpy seed 0), the balance number lies between
#: 0.42 and 3.8 times the 2-norm one and the correlation number between 1.2
#: and 4.1 times, every correlation system is certified, and the
#: certificate's number matches the inverse's to 7.0e-16 relative. Over six
#: such samples (seeds 0 to 5) they peak at 1.2e4 (balance) and 3.8e4
#: (correlation), and at 6.0e3 and 1.4e4 on the five-state fake-update chain
#: that solves rate grids, whose correlation systems are all certified too.
#: Along rates (s, s, 1/s, 1/s) every stage of both chains passes 1e12 at
#: the same decade, s = 1e6.
CONDITION_LIMIT = 1e12

#: Residual ceilings, roughly 100x double round-off for systems of this size;
#: the balance residual's is relative to the balance system's 1-norm, so it
#: scales with the rates as the rounding in ``B pi`` does.
BALANCE_RESIDUAL_TOL = 1e-10
CORRELATION_RESIDUAL_TOL = 1e-10
NORMALIZATION_TOL = 1e-12

_TINY_NEGATIVE = -1e-12

#: Points solved together; bounds the memory of the stacked systems and of
#: the balance inverses. Only the five-state grid chain (11 x 11 live
#: correlation systems) is solved in batches larger than one, so the size is
#: chosen for it: ``_solve`` on 500 such points (best of 5 calls, medians of
#: 15 interleaved rounds, one BLAS thread on a shared 2-CPU host) took
#: 4.43-4.61, 4.11-4.15, 3.74-3.83 and 3.58-3.62 ms at blocks of 64, 128,
#: 256 and 512 (two runs, with the norms from the model's norm rows). In 10
#: paired rounds of a 500-point ``sweep-fig3`` command, 512 was faster than
#: 256 in 9 and in 8 (two runs, medians 4.97 against 5.23 ms and 5.01
#: against 5.11 ms), not clearly enough to change the size; 64 and 128 were
#: slower in at least 8 of 10.
BATCH_BLOCK = 256


class IllConditionedSystemError(RuntimeError):
    """A balance or correlation system is numerically singular."""


def _is_a(kind, value) -> bool:
    """``value`` is a ``numbers`` ``kind`` (numpy scalars included), not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(value) -> float | None:
    """``float(value)`` for a real number (not a bool) whose float is
    finite, else None: a real past the float range has none, whether its
    float raises (``10**400``) or reads inf (a numpy long double)."""
    if not _is_a(numbers.Real, value):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if -math.inf < number < math.inf else None


def _require_positive(**rates) -> None:
    """The package's one rate rule: each named rate must be a real number
    (numpy scalars included; bools and strings raise ``ValueError`` too),
    strictly positive and finite, or ``ValueError`` reads ``<name> must be
    strictly positive and finite, got <value!r>``, a numpy scalar shown as
    the plain number it holds. The rule reads the rate's float, which
    rounds with the sign kept, so a value past the float range, or one whose
    float is 0, has no float to compute with and is refused too. A name need
    not be an identifier: ``**{"point 3: mu1": value}`` names a grid entry."""
    for name, value in rates.items():
        number = _finite(value)
        if number is not None and number > 0.0:
            continue
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{name} must be strictly positive and finite, got {shown!r}")


class TransitionSpec(NamedTuple):
    """One chain transition: source, destination, rate or rate name, reset map."""

    from_state: int
    to_state: int
    rate: float | str
    reset_map: np.ndarray


@dataclass(frozen=True)
class ShsModel:
    """Validated, compiled chain; construct through :func:`build_model`.

    ``live`` holds the flat indices ``q * c + j`` of the L correlation
    unknowns that are solved for. A transition into q copies (src, i) into
    (q, j) where its reset map has a 1 at (i, j), and zeroes (q, j) where
    column j is empty. An unknown that copies cannot reach from any zeroing
    is never zeroed: it carries its initial value forever, so the
    correlation system is singular on it. The live set is everything copies
    reach from a slope-1 unknown or a never-zeroed one. Every other
    unknown's equation holds only copies of other such unknowns and no
    source term, and on them the system is nonsingular, so each is exactly
    0; a never-zeroed unknown stays in the solved system, whose M-matrix
    certificate then rejects the chain. ``live_states`` and ``live_slopes``
    hold each live unknown's state q and slope, the right-hand side
    ``slope * pi_q`` of its equation. Rate column ``k`` is the rate named
    ``rate_names[k]`` (sorted), or transition ``k``'s when rates are numbers
    and ``rate_names`` is empty. ``balance[k]`` and ``correlation[k]`` hold,
    flattened, what one unit of it contributes over every transition at that
    rate to the balance system (n, n) and to the correlation system on the
    live unknowns (L, L). No entry of either system collects rates of both
    signs (a self-loop nets 0), so the systems' norms are linear too:
    ``balance_norm[k]`` (n,) holds the absolute column sums of
    ``balance[k]`` without its last row, which the normalization row of
    ones replaces, and ``correlation_norm[k]`` (L,) the absolute row sums
    of ``correlation[k]``; every entry is a nonnegative integer.
    """

    num_states: int
    num_components: int
    transitions: tuple[TransitionSpec, ...]
    slopes: np.ndarray
    rate_names: tuple[str, ...] = field(repr=False, compare=False)
    live: np.ndarray = field(repr=False, compare=False)
    live_states: np.ndarray = field(repr=False, compare=False)
    live_slopes: np.ndarray = field(repr=False, compare=False)
    balance: np.ndarray = field(repr=False, compare=False)
    correlation: np.ndarray = field(repr=False, compare=False)
    balance_norm: np.ndarray = field(repr=False, compare=False)
    correlation_norm: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class StationaryDistribution:
    """Per-state long-run probabilities of the discrete chain, with the
    condition number (1-norm, exact, from the inverse of the balance system
    that also gives the probabilities) and the largest absolute residual of
    the balance solve (NaN if no solve produced them)."""

    probs: np.ndarray
    condition: float
    residual: float


@dataclass(frozen=True)
class CorrelationVectors:
    """Per-state stationary age expectations, shape (num_states, num_components).

    Row ``q`` is the expectation of the age vector restricted to state ``q``;
    summing a column over all states yields that component's time average.
    Entries off the model's live set are exactly 0. ``condition``
    (infinity-norm, exact, of the system on the live unknowns, from the
    M-matrix certificate, ``inf`` when it fails) and ``residual`` diagnose
    the solve as in :class:`StationaryDistribution`.
    """

    vectors: np.ndarray
    condition: float
    residual: float


def build_model(num_states, num_components, transitions, slopes) -> ShsModel:
    """Assemble, validate and compile a model.

    ``transitions`` holds ``(from_state, to_state, rate, reset_map)``
    tuples, :class:`TransitionSpec` or plain. Counts and state indices must
    be integers, and rates all real numbers (numpy scalars included, bools
    not) or all rate names, Python identifiers (see :class:`ShsModel`).
    Raises ``ValueError`` naming the offending field, transition or state on
    any violation: a count below 1, a state index that is not an integer or
    out of range, a rate that is no name and breaks the rule of
    :func:`_require_positive` (named ``transition <idx> (<from>-><to>):
    rate``), names mixed with numbers, reset-map columns that are not "zero
    or copy exactly one component", non-binary slopes, or a chain that is
    not strongly connected.
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
        named = isinstance(rate, str) and rate.isidentifier()
        if not named:
            _require_positive(**{f"transition {idx} ({frm}->{to}): rate": rate})
        if specs and named != isinstance(specs[0].rate, str):
            raise ValueError(f"transition {idx}: rate {rate!r} mixes names and numbers")
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
        specs.append(TransitionSpec(int(frm), int(to), str(rate) if named else float(rate), amap))

    slopes = np.array(slopes, dtype=float)
    if slopes.shape != (n, c):
        raise ValueError(f"slopes shape {slopes.shape} != ({n}, {c})")
    if not np.isin(slopes, (0.0, 1.0)).all():
        bad = int(np.argwhere(~np.isin(slopes, (0.0, 1.0)))[0][0])
        raise ValueError(f"slope entries must be 0 or 1 (state {bad})")
    slopes.setflags(write=False)

    # one pass compiles both systems, into each transition's rate column, and
    # records the state steps, the copies (frm, i) -> (to, j) wherever
    # A[i, j] = 1, and the unknowns (to, j) that an empty column j zeroes
    rate_names = tuple(sorted({t.rate for t in specs if isinstance(t.rate, str)}))
    row_of = [rate_names.index(t.rate) for t in specs] if rate_names else range(len(specs))
    balance = np.zeros((len(rate_names) or len(specs), n, n))
    correlation = np.zeros((len(balance), n * c, n * c))
    steps, copies, zeroed = [], [], []
    own = np.arange(c)
    for t, (frm, to, _, amap) in zip(row_of, specs):
        balance[t, frm, frm] += 1.0
        balance[t, to, frm] -= 1.0
        # leaving ``frm`` at this rate: v_frm * rate on the diagonal; entering
        # ``to``: v_to[j] gains v_frm[i] where A[i, j] = 1
        src, dst = np.nonzero(amap)
        src, dst = frm * c + src, to * c + dst
        correlation[t, frm * c + own, frm * c + own] += 1.0
        correlation[t, dst, src] -= 1.0
        steps.append((frm, to))
        copies += zip(src.tolist(), dst.tolist())
        zeroed += (to * c + np.flatnonzero(~amap.any(axis=0))).tolist()

    backward = [(to, frm) for frm, to in steps]
    for edges, unreachable in ((steps, "state {} unreachable from state 0"),
                               (backward, "state 0 unreachable from state {}")):
        missing = set(range(n)) - _reachable(edges, [0])
        if missing:
            raise ValueError("chain is not irreducible: " + unreachable.format(min(missing)))

    never_zeroed = set(range(n * c)) - _reachable(copies, zeroed)
    seeds = never_zeroed.union(np.flatnonzero(slopes).tolist())
    live = np.array(sorted(_reachable(copies, seeds)), dtype=np.intp)
    live_states, live_slopes = live // c, slopes.ravel()[live]
    correlation = correlation[:, live][:, :, live]
    # the norm rows (see ShsModel): the balance rows that the normalization
    # row keeps by columns, the correlation system by rows
    balance_norm = np.abs(balance[:, :-1]).sum(axis=1)
    correlation_norm = np.abs(correlation).sum(axis=2)
    balance = balance.reshape(len(balance), n * n)
    correlation = correlation.reshape(len(correlation), len(live) ** 2)
    for array in (live, live_states, live_slopes, balance, correlation, balance_norm,
                  correlation_norm):
        array.setflags(write=False)
    return ShsModel(n, c, tuple(specs), slopes, rate_names, live, live_states, live_slopes,
                    balance, correlation, balance_norm, correlation_norm)


def _reachable(edges, seeds) -> set:
    """The nodes reached from ``seeds`` along ``edges``, pairs ``(a, b)``
    walked from ``a`` to ``b``, seeds included."""
    ahead = {}
    for a, b in edges:
        ahead.setdefault(a, []).append(b)
    reached, frontier = set(), set(seeds)
    while frontier:
        reached |= frontier
        frontier = {b for a in frontier for b in ahead.get(a, ())} - reached
    return reached


def _model_rates(model: ShsModel) -> np.ndarray:
    if model.rate_names:
        frm, to, name, _ = model.transitions[0]
        raise ValueError(f"transition 0 ({frm}->{to}): rate {name!r} is a name, not a number")
    return np.array([[t.rate for t in model.transitions]])


def _passes(quantities, ceilings) -> bool:
    """A stage's one check over a block: each guard quantity (B,) at or below
    its ceiling at every point; NaN fails. Callers pass the tolerances as
    they read them at the call, as the guards do."""
    within = np.array(quantities) <= np.array(ceilings)[:, None]
    # counting costs one call where .all() is a reduction through a wrapper
    return np.count_nonzero(within) == within.size


def _no_negative_ceiling() -> float:
    """Ceiling of ``-lowest`` in a stage's one check: with no negative entry
    a point needs no clip, and it passes a negativity guard whatever its
    scale while :data:`_TINY_NEGATIVE` is not positive."""
    return 0.0 if _TINY_NEGATIVE <= 0.0 else -math.inf


def _guard(rates: np.ndarray, offset: int, checks) -> None:
    """Scan a stage's guards, ``(bad, describe)`` pairs in guard order: the
    first check whose ``bad`` (B,) flags any point raises for its first
    flagged point ``i``, and ``describe(i)`` says why."""
    for bad, describe in checks:
        if bad.any():
            i = int(np.argmax(bad))
            raise IllConditionedSystemError(
                f"point {offset + i} (rates {rates[i].tolist()}): {describe(i)}")


def _condition_check(cond: np.ndarray, label: str):
    """The :func:`_guard` check that flags a condition number (B,) not at
    most :data:`CONDITION_LIMIT` (``inf`` and NaN included). When a stage's
    LAPACK call fails, ``cond`` is ``np.linalg.cond(systems, 1)``, from one
    batched inverse that does not stop at a singular member but reads ``inf``."""
    return (~(cond <= CONDITION_LIMIT),
            lambda i: f"{label} system is ill-conditioned "
                      f"(condition estimate {cond[i]:.3e} exceeds {CONDITION_LIMIT:.0e})")


def _certify_m_matrix(systems: np.ndarray, norm: np.ndarray, rates, offset, both: np.ndarray):
    """Solve a stack of Z-matrices (no positive entry off the diagonal), the
    form of every correlation system, certify each a nonsingular M-matrix
    and guard the solutions, in one batched call ``A [x, w] = [rhs, 1]``:
    ``both`` (B, L, k + 1) holds the right-hand sides ``rhs`` and, last,
    the certificate's column of ones. With ``w > 0`` and the certificate's
    own residual ``|A w - 1|`` below 1/2, ``A w > 0`` for a positive ``w``.
    Then ``A^-1 >= 0``, so ``|A^-1|_inf = max(w)`` and the infinity-norm
    condition number is ``|A|_inf max(w)``, exact up to round-off, at no
    cost beyond a second right-hand side (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, ch. 6). ``norm`` (B,) holds each
    system's ``|A|_inf``, which :func:`_correlation` reads from the model's
    norm rows. An uncertified member reads ``inf``; a stationary age vector
    exists exactly when the certificate holds. An exactly singular member
    fails the whole batched solve, and only then is the stack's 1-norm
    condition number checked, so that it is named. The guards read, per
    point, the condition number, the largest absolute residual of ``x`` and
    its lowest entry, and one check passes the block; only when it fails
    does one :func:`_guard` scan run them in order (condition, residual,
    negative entry below :data:`_TINY_NEGATIVE` times ``max(1, max |x|)``)
    and raise for the first flagged point, after which entries below 0 are
    clipped to 0. Returns ``x`` (B, L, k), its largest residuals and the
    condition numbers, both (B,)."""
    try:
        solution = np.linalg.solve(systems, both)
    except np.linalg.LinAlgError:
        _guard(rates, offset, [_condition_check(np.linalg.cond(systems, 1), "correlation")])
        raise
    residual = np.abs(systems @ solution - both)
    w = solution[..., -1]
    w_lowest, w_residual = w.min(axis=1), residual[..., -1].max(axis=1)
    cond = norm * w.max(axis=1)
    x, residual = solution[..., :-1], residual[..., :-1].max(axis=(1, 2))
    lowest = x.min(axis=(1, 2))
    # the certificate's strict bounds as ceilings: -min(w) at most minus the
    # least positive float is min(w) > 0, and |A w - 1| below 1/2 is at most
    # the float just below it
    if not _passes((-w_lowest, w_residual, cond, residual, -lowest),
                   (-math.ulp(0.0), math.nextafter(0.5, 0.0), CONDITION_LIMIT,
                    CORRELATION_RESIDUAL_TOL, _no_negative_ceiling())):
        cond = np.where((w_lowest > 0.0) & (w_residual < 0.5), cond, np.inf)
        scale = np.maximum(1.0, np.abs(x).max(axis=(1, 2)))
        _guard(rates, offset, (
            _condition_check(cond, "correlation"),
            (residual > CORRELATION_RESIDUAL_TOL,
             lambda i: f"correlation solve left residual {residual[i]:.3e} "
                       f"above {CORRELATION_RESIDUAL_TOL:.0e}"),
            (lowest < _TINY_NEGATIVE * scale,
             lambda i: f"correlation solve produced negative expectation {lowest[i]:.3e}; "
                       "the chain likely has an age component that can drift without reset"),
        ))
        x[x < 0.0] = 0.0
    return x, residual, cond


def _stationary(model: ShsModel, rates: np.ndarray, offset: int):
    """Stationary stage of :func:`solve_stationary` for a block of points:
    ``rates`` (B, k) holds each point's rates, one per rate column of the
    model, and guard messages name its rows; ``offset`` is the index of the
    block's first point. The guards read, per point, the condition number,
    the largest balance residual, the lowest probability and the sum of the
    probabilities, and one check passes the block; only when it fails are
    entries below 0 clipped to 0, the sum taken again, and one
    :func:`_guard` scan run in order (condition, residual above
    :data:`BALANCE_RESIDUAL_TOL` times the system's 1-norm, probability
    below :data:`_TINY_NEGATIVE` before the clip, then a sum off 1 by more
    than :data:`NORMALIZATION_TOL`) to raise for the first flagged point.
    Returns the probabilities (B, n), condition numbers and max absolute
    balance residuals (B,). The caller silences floating-point warnings.
    """
    n = model.num_states
    balance = (rates @ model.balance).reshape(-1, n, n)
    system = balance.copy()
    system[:, -1, :] = 1.0
    try:
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError:
        _guard(rates, offset, [_condition_check(np.linalg.cond(system, 1), "stationary balance")])
        raise
    # |A|_1 |A^-1|_1 as np.linalg.cond(system, 1) reads it, up to a few ulps:
    # |A|_1 from the model's norm rows plus the row of ones, |A^-1|_1 from
    # this inverse
    norm = (rates @ model.balance_norm + 1.0).max(axis=1)
    cond = norm * np.abs(inverse).sum(axis=-2).max(axis=-1)
    # the right-hand side is the last unit vector, so pi is the last column
    probs = inverse[:, :, -1:]
    residual = np.abs(balance @ probs).max(axis=(1, 2))
    probs = probs[..., 0]
    lowest = probs.min(axis=1)
    total = probs.sum(axis=1)
    relative = residual / norm
    if not _passes((cond, relative, -lowest, np.abs(total - 1.0)),
                   (CONDITION_LIMIT, BALANCE_RESIDUAL_TOL, _no_negative_ceiling(),
                    NORMALIZATION_TOL)):
        probs[probs < 0.0] = 0.0
        total = probs.sum(axis=1)
        _guard(rates, offset, (
            _condition_check(cond, "stationary balance"),
            (relative > BALANCE_RESIDUAL_TOL,
             lambda i: f"stationary solve left balance residual {residual[i]:.3e} above "
                       f"{BALANCE_RESIDUAL_TOL * norm[i]:.3e}, {BALANCE_RESIDUAL_TOL:.0e} "
                       "times the system's 1-norm"),
            (lowest < _TINY_NEGATIVE,
             lambda i: f"stationary solve produced negative probability {lowest[i]:.3e}"),
            (np.abs(total - 1.0) > NORMALIZATION_TOL,
             lambda i: f"stationary probabilities sum to {float(total[i])!r}, not 1"),
        ))
    return probs, cond, residual


def _correlation(model: ShsModel, rates: np.ndarray, probs: np.ndarray, offset: int):
    """Correlation stage of :func:`solve_correlation` for a block of points,
    given as for :func:`_stationary`, and their stationary probabilities
    (B, n). Solves and guards on the live unknowns through
    :func:`_certify_m_matrix` and returns the vectors (B, n, c), zero off
    the live set, condition numbers and max residuals (B,). With no live
    unknown there is no system: every vector is 0, each condition number 1
    (that of the empty system, as of an identity) and residual 0. The caller
    silences floating-point warnings.
    """
    n, c = model.num_states, model.num_components
    live = model.live
    if not len(live):
        return np.zeros((len(rates), n, c)), np.ones(len(rates)), np.zeros(len(rates))
    system = (rates @ model.correlation).reshape(-1, len(live), len(live))
    both = np.ones((len(rates), len(live), 2))
    both[..., 0] = probs[:, model.live_states] * model.live_slopes
    norm = (rates @ model.correlation_norm).max(axis=1)
    x, residual, cond = _certify_m_matrix(system, norm, rates, offset, both)
    vectors = np.zeros((len(rates), n * c))
    vectors[:, live] = x[..., 0]
    return vectors.reshape(len(rates), n, c), cond, residual


def _solve(model: ShsModel, rates: np.ndarray):
    """Both solves for every row of an (N, k) rate array, N >= 1, in blocks.

    Column k of ``rates`` is the model's rate column k, ``rate_names[k]``
    in a named chain or transition k's rate in a numeric one, so a chain
    whose transitions share a few named rates is solved, and its guard
    messages are written, in those rates. Rates must already be positive and
    finite. Yields, for each block of at most :data:`BATCH_BLOCK` rows in
    order, the block's two stages, each ``(values, condition, residual)``
    with one entry per row; callers keep what they need of a block before
    asking for the next. Each stage guards a block with one check and, only
    when it fails, runs its guards in order: a point that fails one raises
    :class:`IllConditionedSystemError` naming its index and rates, the
    first flagged point of the first failing guard of the first failing
    stage, before any later block is solved.
    """
    for start in range(0, len(rates), BATCH_BLOCK):
        rows = rates[start:start + BATCH_BLOCK]
        with np.errstate(all="ignore"):
            stationary = _stationary(model, rows, start)
            correlation = _correlation(model, rows, stationary[0], start)
        yield stationary, correlation


def _first_point(result, stage):
    """Point 0 of a stage's ``(values, condition, residual)`` as ``result``,
    its values a read-only view."""
    values, condition, residual = stage
    values.setflags(write=False)
    return result(values[0], float(condition[0]), float(residual[0]))


def solve_stationary(model: ShsModel) -> StationaryDistribution:
    """Solve global balance plus normalization for the stationary distribution.

    The balance equations are rank-deficient by one for an irreducible chain,
    so the last balance row is replaced by the normalization constraint. Its
    right-hand side is then the last unit vector, so the distribution is the
    last column of the system's inverse (dense LU with partial pivoting),
    which also gives the condition number. The full set of balance residuals
    is re-checked afterwards. A named chain has no rates to solve at, and
    ``ValueError`` names its first transition and rate name.
    """
    rates = _model_rates(model)
    with np.errstate(all="ignore"):
        return _first_point(StationaryDistribution, _stationary(model, rates, 0))


def solve_correlation(model: ShsModel, pi: StationaryDistribution) -> CorrelationVectors:
    """Solve for the stationary state-conditioned age expectations.

    All per-state vectors are stacked into one unknown of length
    ``num_states * num_components`` and the coupled equations

        v_q * (total outgoing rate of q)
            = slope_q * pi_q + sum over incoming transitions of rate * (v_src @ A)

    are solved as a single dense system on the model's live unknowns, with
    the M-matrix certificate as a second right-hand side; every other
    unknown is exactly 0. Nonnegativity of the solution is verified a
    posteriori rather than assumed. A named chain raises as in
    :func:`solve_stationary`.
    """
    probs = np.asarray(pi.probs, dtype=float)[None, :]
    rates = _model_rates(model)
    with np.errstate(all="ignore"):
        return _first_point(CorrelationVectors, _correlation(model, rates, probs, 0))


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
