"""Independent reference implementations used to check the package.

Everything here is deliberately written as plain scalar loops or explicit
formulas, separate from the vectorized/solver code paths under test.
"""

from __future__ import annotations

import numpy as np

from aoi_shs.shs_core import ShsModel, build_model


def nine_state_residual(l1, l2, m1, m2, pi, v) -> float:
    """Max residual of the hand-written correlation equations of the
    two-sensor chain (nine vector equations, 27 scalars)."""
    V = np.asarray(v, dtype=float)
    p = np.asarray(pi, dtype=float)
    res = []

    def eq(out_rate, q, slope, *incoming):
        rhs = np.array(slope, dtype=float) * p[q]
        for rate, vec in incoming:
            rhs = rhs + rate * np.array(vec, dtype=float)
        res.append(out_rate * V[q] - rhs)

    eq(l1 + l2, 0, (1, 0, 0),
       (m1, (V[1][1], 0, 0)), (m1, (V[2][0], 0, 0)),
       (m2, (V[4][2], 0, 0)), (m2, (V[5][0], 0, 0)))
    eq(l2 + m1, 1, (1, 1, 0),
       (l1, (V[0][0], 0, 0)),
       (m2, (V[6][2], V[6][1], 0)), (m2, (V[8][0], V[8][1], 0)))
    eq(l2 + m1, 2, (1, 1, 0),
       (m2, (V[3][2], V[3][1], 0)), (m2, (V[7][2], V[7][1], 0)))
    eq(m1 + m2, 3, (1, 1, 1), (l2, (V[1][0], V[1][1], 0)))
    eq(l1 + m2, 4, (1, 0, 1),
       (l2, (V[0][0], 0, 0)),
       (m1, (V[3][1], 0, V[3][2])), (m1, (V[7][0], 0, V[7][2])))
    eq(l1 + m2, 5, (1, 0, 1),
       (m1, (V[6][1], 0, V[6][2])), (m1, (V[8][1], 0, V[8][2])))
    eq(m1 + m2, 6, (1, 1, 1), (l1, (V[4][0], 0, V[4][2])))
    eq(m1 + m2, 7, (1, 1, 1), (l2, (V[2][0], V[2][1], 0)))
    eq(m1 + m2, 8, (1, 1, 1), (l1, (V[5][0], 0, V[5][2])))
    return float(np.abs(np.array(res)).max())


def sawtooth_average_walk(times, gens, t0, t1, initial_age=0.0) -> float:
    """Scalar walk over delivery breakpoints; integrates each linear piece."""
    held = t0 - initial_age
    for t, g in zip(times, gens):
        if t <= t0 and g > held:
            held = g
    total = 0.0
    prev = t0
    for t, g in zip(times, gens):
        if t <= t0 or t >= t1:
            continue
        total += (t - prev) * (0.5 * (t + prev) - held)
        prev = t
        if g > held:
            held = g
    total += (t1 - prev) * (0.5 * (t1 + prev) - held)
    return total / (t1 - t0)


def sawtooth_average_grid(times, gens, t0, t1, initial_age=0.0, points=40001) -> float:
    """Brute-force pointwise evaluation plus trapezoid rule (coarse)."""
    ts = np.linspace(t0, t1, points)
    ages = np.empty_like(ts)
    for i, t in enumerate(ts):
        held = t0 - initial_age
        for tt, g in zip(times, gens):
            if tt <= t and g > held:
                held = g
        ages[i] = t - held
    integral = float(np.sum((ages[1:] + ages[:-1]) * np.diff(ts)) / 2.0)
    return integral / (t1 - t0)


def single_queue_model(lam: float, mu: float) -> ShsModel:
    """Two-state chain of one blocking channel: idle/busy, components
    (monitor age, in-service update age)."""
    start_service = [[1, 0], [0, 0]]   # monitor kept, fresh update
    deliver = [[0, 0], [1, 0]]         # monitor takes the update's age
    transitions = [
        (0, 1, lam, start_service),
        (1, 0, mu, deliver),
    ]
    slopes = [[1, 0], [1, 1]]
    return build_model(2, 2, transitions, slopes)


def stage_systems(model: ShsModel):
    """The stationary and correlation stages' matrices, written out entry by
    entry from the transitions: the balance rows ``sum over transitions
    leaving q of rate * pi_q - sum over transitions entering q of rate *
    pi_src`` with the last row replaced by normalization, and the equations
    ``v_q * (total outgoing rate of q) - sum over incoming transitions of
    rate * (v_src @ A) = slope_q * pi_q`` over the stacked unknown
    ``v[q * c + j]``."""
    n, c = model.num_states, model.num_components
    balance = np.zeros((n, n))
    correlation = np.zeros((n * c, n * c))
    for t in model.transitions:
        balance[t.from_state, t.from_state] += t.rate
        balance[t.to_state, t.from_state] -= t.rate
        for j in range(c):
            correlation[t.from_state * c + j, t.from_state * c + j] += t.rate
            for i in range(c):
                if t.reset_map[i, j]:
                    correlation[t.to_state * c + j, t.from_state * c + i] -= t.rate
    balance[n - 1, :] = 1.0
    return balance, correlation


def single_queue_average_age(lam: float, mu: float) -> float:
    """Known closed form for the single blocking channel."""
    return 1.0 / lam + 2.0 / mu - 1.0 / (lam + mu)


def blocking_queue_scan(lam: float, mu: float, horizon: float, rng):
    """Reference blocking channel that walks every Poisson arrival.

    An arrival finding the channel busy is blocked; an accepted one holds
    the channel for an Exp(mu) service. Returns the delivery instants that
    complete by ``horizon``, their generation times, and the number of
    arrivals by ``horizon`` (accepted plus blocked).
    """
    deps, gens = [], []
    n_arrivals = 0
    free_at = 0.0
    a = 0.0
    while True:
        a += rng.exponential(1.0 / lam)
        if a > horizon:
            return deps, gens, n_arrivals
        n_arrivals += 1
        if a < free_at:
            continue
        free_at = a + rng.exponential(1.0 / mu)
        if free_at <= horizon:
            deps.append(free_at)
            gens.append(a)


def blocking_system_trial(channels, horizon: float, warmup: float, rng):
    """One trial of blocking channels ``[(lam, mu), ...]`` feeding one
    filtering monitor, scanned arrival by arrival. Returns the time-averaged
    age over ``(warmup * horizon, horizon)`` and the events processed
    (arrivals plus deliveries)."""
    deliveries = []
    events = 0
    for lam, mu in channels:
        deps, gens, n_arrivals = blocking_queue_scan(lam, mu, horizon, rng)
        deliveries += zip(deps, gens)
        events += n_arrivals + len(deps)
    deliveries.sort()
    t0 = warmup * horizon
    value = sawtooth_average_walk(
        [d for d, _ in deliveries], [g for _, g in deliveries], t0, horizon, initial_age=t0)
    return value, events


def preemptive_pair_scan(lam: float, mu: float, horizon: float, arrival_rng, service_rng,
                         block: int):
    """Reference preemptive pair that walks every Poisson arrival.

    Arrival instants come from ``arrival_rng`` in blocks of ``block``
    Exp(lam) gaps, each block cumsummed and carried on from the last instant
    of the one before; the i-th arrival takes the i-th Exp(mu) draw of
    ``service_rng`` as its service. An arrival takes an idle server, server
    1 first, or else replaces the in-service update generated earlier. Due
    departures go before an arrival at the same instant, server 1 first.

    Returns the delivery instants by ``horizon`` in the order they happen,
    their generation times, the number of arrivals by ``horizon``, and the
    trace rows in the order they happen as columns ``(times, kinds, servers,
    generation times)``, kinds being ``"arrival"``, ``"preempt"`` or
    ``"delivery"``.
    """

    def arrivals():
        base = 0.0
        while True:
            instants = np.cumsum(arrival_rng.exponential(1.0 / lam, block)) + base
            base = float(instants[-1])
            yield from instants.tolist()

    rows = ([], [], [], [])

    def record(*row):
        for column, value in zip(rows, row):
            column.append(value)

    deps, gens = [], []
    n_arrivals = 0
    dep = [np.inf, np.inf]
    gen = [0.0, 0.0]
    for a in arrivals():
        until = min(a, horizon)
        while min(dep) <= until:
            server = 0 if dep[0] <= dep[1] else 1
            deps.append(dep[server])
            gens.append(gen[server])
            record(dep[server], "delivery", server + 1, gen[server])
            dep[server] = np.inf
        if a > horizon:
            return deps, gens, n_arrivals, rows
        service = float(service_rng.exponential(1.0 / mu))
        n_arrivals += 1
        if np.inf in dep:
            kind, server = "arrival", dep.index(np.inf)
        else:
            kind, server = "preempt", 0 if gen[0] <= gen[1] else 1
        gen[server], dep[server] = a, a + service
        record(a, kind, server + 1, a)
