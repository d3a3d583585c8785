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

The chain's structure is validated once and compiled into one coefficient
tensor per rate symbol, so a stack of rate vectors yields a stack of systems
that are solved and guarded together. A single model is a batch of one.

All functions are pure and the returned arrays are read-only, so values can
be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: Solves whose 2-norm condition estimate exceeds this are rejected; a huge
#: condition number almost always means a structurally broken chain (for
#: example an age component that is never reset) rather than a hard instance.
CONDITION_LIMIT = 1e12

#: Residual ceilings, roughly 100x double round-off for systems of this size.
BALANCE_RESIDUAL_TOL = 1e-10
CORRELATION_RESIDUAL_TOL = 1e-10
NORMALIZATION_TOL = 1e-12

_TINY_NEGATIVE = -1e-12

#: Points solved together; bounds the memory of the stacked systems and of
#: the condition estimates' workspace.
BATCH_BLOCK = 64


class IllConditionedSystemError(RuntimeError):
    """A balance or correlation system is numerically singular."""


def _read_only(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TransitionSpec:
    """One chain transition: source, destination, rate, and age reset map."""

    from_state: int
    to_state: int
    rate: float
    reset_map: np.ndarray


@dataclass(frozen=True)
class _Chain:
    """Rate-independent structure of a validated chain.

    Transitions carry a rate symbol, an index into the rate vector, instead
    of a rate. ``balance[k]`` and ``correlation[k]`` hold what one unit of
    rate ``k`` contributes to the balance system (n, n) and to the
    correlation system (n * c, n * c), so both systems are linear in the rates.
    """

    num_states: int
    num_components: int
    transitions: tuple[tuple[int, int, int, np.ndarray], ...]
    slopes: np.ndarray
    balance: np.ndarray
    correlation: np.ndarray


@dataclass(frozen=True)
class ShsModel:
    """Validated chain description; construct through :func:`build_model`."""

    num_states: int
    num_components: int
    transitions: tuple[TransitionSpec, ...]
    slopes: np.ndarray
    _chain: _Chain = field(repr=False, compare=False)


@dataclass(frozen=True)
class StationaryDistribution:
    """Per-state long-run probabilities of the discrete chain."""

    probs: np.ndarray


@dataclass(frozen=True)
class CorrelationVectors:
    """Per-state stationary age expectations, shape (num_states, num_components).

    Row ``q`` is the expectation of the age vector restricted to state ``q``;
    summing a column over all states yields that component's time average.
    """

    vectors: np.ndarray


@dataclass(frozen=True)
class _Solution:
    """Both solves for N rate vectors; every field has leading dimension N."""

    probs: np.ndarray
    vectors: np.ndarray
    stationary_condition: np.ndarray
    stationary_residual: np.ndarray
    correlation_condition: np.ndarray
    correlation_residual: np.ndarray


def build_model(num_states, num_components, transitions, slopes) -> ShsModel:
    """Assemble and validate a model.

    ``transitions`` may hold :class:`TransitionSpec` instances or plain
    ``(from_state, to_state, rate, reset_map)`` tuples. Raises ``ValueError``
    naming the offending transition or state on any violation: nonpositive or
    non-finite rates, out-of-range state indices, reset-map columns that are
    not "zero or copy exactly one component", non-binary slopes, or a chain
    that is not strongly connected.
    """
    items = [
        (t.from_state, t.to_state, t.rate, t.reset_map)
        if isinstance(t, TransitionSpec) else tuple(t)
        for t in transitions
    ]
    rates = []
    for idx, (frm, to, rate, _) in enumerate(items):
        rate = float(rate)
        if not np.isfinite(rate) or rate <= 0.0:
            raise ValueError(
                f"transition {idx} ({int(frm)}->{int(to)}): nonpositive rate {rate}"
            )
        rates.append(rate)
    # one rate symbol per transition
    chain = _compile_chain(
        num_states, num_components,
        [(frm, to, idx, amap) for idx, (frm, to, _, amap) in enumerate(items)],
        slopes, len(items),
    )
    specs = tuple(
        TransitionSpec(frm, to, rate, amap)
        for (frm, to, _, amap), rate in zip(chain.transitions, rates)
    )
    return ShsModel(chain.num_states, chain.num_components, specs, chain.slopes, chain)


def _compile_chain(num_states, num_components, transitions, slopes, num_rates) -> _Chain:
    """Validate a chain's structure and build its per-symbol coefficients.

    ``transitions`` holds ``(from_state, to_state, symbol, reset_map)``
    tuples with ``0 <= symbol < num_rates``. Raises ``ValueError`` as
    :func:`build_model` documents for everything but the rates.
    """
    num_states = int(num_states)
    num_components = int(num_components)
    if num_states < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    if num_components < 1:
        raise ValueError(f"num_components must be >= 1, got {num_components}")

    specs = []
    for idx, (frm, to, symbol, amap) in enumerate(transitions):
        frm = int(frm)
        to = int(to)
        for label, state in (("from_state", frm), ("to_state", to)):
            if not 0 <= state < num_states:
                raise ValueError(
                    f"transition {idx}: {label} {state} out of range [0, {num_states})"
                )
        amap = np.array(amap, dtype=float)
        if amap.shape != (num_components, num_components):
            raise ValueError(
                f"transition {idx}: reset_map shape {amap.shape} != "
                f"({num_components}, {num_components})"
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
        specs.append((frm, to, int(symbol), amap))

    slopes = np.array(slopes, dtype=float)
    if slopes.shape != (num_states, num_components):
        raise ValueError(
            f"slopes shape {slopes.shape} != ({num_states}, {num_components})"
        )
    if not np.isin(slopes, (0.0, 1.0)).all():
        bad = int(np.argwhere(~np.isin(slopes, (0.0, 1.0)))[0][0])
        raise ValueError(f"slope entries must be 0 or 1 (state {bad})")
    slopes.setflags(write=False)

    _check_irreducible(num_states, specs)

    n, c = num_states, num_components
    balance = np.zeros((num_rates, n, n))
    correlation = np.zeros((num_rates, n * c, n * c))
    own = np.arange(c)
    for frm, to, symbol, amap in specs:
        balance[symbol, frm, frm] += 1.0
        balance[symbol, to, frm] -= 1.0
        # leaving ``frm`` at this rate: v_frm * rate on the diagonal; entering
        # ``to``: (v_frm @ A)[j] = sum_i v_frm[i] A[i, j], hence the transpose
        correlation[symbol, frm * c + own, frm * c + own] += 1.0
        correlation[symbol, to * c:(to + 1) * c, frm * c:(frm + 1) * c] -= amap.T
    balance.setflags(write=False)
    correlation.setflags(write=False)
    return _Chain(n, c, tuple(specs), slopes, balance, correlation)


def _check_irreducible(num_states: int, specs) -> None:
    if num_states == 1:
        return
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
    cond = np.linalg.cond(systems)
    _reject(
        ~np.isfinite(cond) | (cond > CONDITION_LIMIT), rates, offset,
        lambda i: f"{label} system is ill-conditioned "
                  f"(condition estimate {cond[i]:.3e} exceeds {CONDITION_LIMIT:.0e})",
    )
    return cond


def _stationary(chain: _Chain, rates: np.ndarray, offset: int):
    """Stationary stage of :func:`solve_stationary` for a block of rate
    vectors, shape (B, k); ``offset`` is the index of the block's first point.
    Returns the probabilities (B, n), condition estimates and max balance
    residuals (B,).
    """
    n = chain.num_states
    balance = np.einsum("bk,kij->bij", rates, chain.balance)
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


def _correlation(chain: _Chain, rates: np.ndarray, probs: np.ndarray, offset: int):
    """Correlation stage of :func:`solve_correlation` for a block of rate
    vectors and their stationary probabilities (B, n). Returns the vectors
    (B, n, c), condition estimates and max residuals (B,).
    """
    n, c = chain.num_states, chain.num_components
    system = np.einsum("bk,kij->bij", rates, chain.correlation)
    rhs = (chain.slopes * probs[:, :, None]).reshape(len(rates), n * c, 1)

    cond = _guard_condition(system, "correlation", rates, offset)
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


def _solve(chain: _Chain, rates: np.ndarray) -> _Solution:
    """Both solves for every row of an (N, k) rate array, N >= 1.

    Points are solved in blocks of :data:`BATCH_BLOCK`. Rates must already
    be positive and finite. A point that fails a guard raises
    :class:`IllConditionedSystemError` naming its index and rates.
    """
    num, n, c = len(rates), chain.num_states, chain.num_components
    out = _Solution(np.empty((num, n)), np.empty((num, n, c)), np.empty(num),
                    np.empty(num), np.empty(num), np.empty(num))
    for start in range(0, num, BATCH_BLOCK):
        block = slice(start, start + BATCH_BLOCK)
        (out.probs[block], out.stationary_condition[block],
         out.stationary_residual[block]) = _stationary(chain, rates[block], start)
        (out.vectors[block], out.correlation_condition[block],
         out.correlation_residual[block]) = _correlation(
            chain, rates[block], out.probs[block], start)
    for values in vars(out).values():
        values.setflags(write=False)
    return out


def solve_stationary(model: ShsModel) -> StationaryDistribution:
    """Solve global balance plus normalization for the stationary distribution.

    The balance equations are rank-deficient by one for an irreducible chain,
    so the last balance row is replaced by the normalization constraint and
    the system is solved by dense LU with partial pivoting. The full set of
    balance residuals is re-checked afterwards.
    """
    probs, _, _ = _stationary(model._chain, _model_rates(model), 0)
    return StationaryDistribution(probs=_read_only(probs[0]))


def solve_correlation(model: ShsModel, pi: StationaryDistribution) -> CorrelationVectors:
    """Solve for the stationary state-conditioned age expectations.

    All per-state vectors are stacked into one unknown of length
    ``num_states * num_components`` and the coupled equations

        v_q * (total outgoing rate of q)
            = slope_q * pi_q + sum over incoming transitions of rate * (v_src @ A)

    are solved as a single dense system. Nonnegativity of the solution is
    verified a posteriori rather than assumed.
    """
    probs = np.asarray(pi.probs, dtype=float)[None, :]
    vectors, _, _ = _correlation(model._chain, _model_rates(model), probs, 0)
    return CorrelationVectors(vectors=_read_only(vectors[0]))


def average_age(v: CorrelationVectors, component: int = 0) -> float:
    """Long-run time average of one age component: the column sum over states."""
    num_components = v.vectors.shape[1]
    if not 0 <= component < num_components:
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


def model_from_json(text: str) -> ShsModel:
    """Parse and fully re-validate a model from its JSON document."""
    doc = json.loads(text)
    transitions = [
        (t["from_state"], t["to_state"], t["rate"], t["reset_map"])
        for t in doc["transitions"]
    ]
    return build_model(
        doc["num_states"], doc["num_components"], transitions, doc["slopes"]
    )
