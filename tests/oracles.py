"""Independent reference implementations used to check the package, and
:func:`solve_joined`, which joins the solver's blocks for tests that read
whole-grid arrays.

Everything else here is deliberately written as plain scalar loops or
explicit formulas, separate from the vectorized/solver code paths under test.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from aoi_shs import des_sim
from aoi_shs.shs_core import ShsModel, _solve, build_model


def solve_joined(model: ShsModel, rates):
    """Both stages of ``shs_core._solve`` over every row of ``rates``, each
    ``(values, condition, residual)`` joined across the blocks it yields."""
    blocks = list(_solve(model, rates))
    return tuple(tuple(map(np.concatenate, zip(*stage))) for stage in zip(*blocks))


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


def five_state_residual(l1, l2, m1, m2, pi, v) -> float:
    """Max residual of the hand-written correlation equations of the
    two-sensor fake-update chain (five vector equations, 15 scalars). States:
    0 both idle, 1 only channel 1 busy, 2 only channel 2 busy, 3 both busy
    with channel 1 fresher, 4 both busy with channel 2 fresher; a delivery
    from the fresher channel hands its age to the other one."""
    V = np.asarray(v, dtype=float)
    p = np.asarray(pi, dtype=float)
    res = []

    def eq(out_rate, q, slope, *incoming):
        rhs = np.array(slope, dtype=float) * p[q]
        for rate, vec in incoming:
            rhs = rhs + rate * np.array(vec, dtype=float)
        res.append(out_rate * V[q] - rhs)

    eq(l1 + l2, 0, (1, 0, 0),
       (m1, (V[1][1], 0, 0)), (m2, (V[2][2], 0, 0)))
    eq(l2 + m1, 1, (1, 1, 0),
       (l1, (V[0][0], 0, 0)),
       (m2, (V[3][2], V[3][1], 0)), (m2, (V[4][2], V[4][2], 0)))
    eq(l1 + m2, 2, (1, 0, 1),
       (l2, (V[0][0], 0, 0)),
       (m1, (V[3][1], 0, V[3][1])), (m1, (V[4][1], 0, V[4][2])))
    eq(m1 + m2, 3, (1, 1, 1), (l1, (V[2][0], 0, V[2][2])))
    eq(m1 + m2, 4, (1, 1, 1), (l2, (V[1][0], V[1][1], 0)))
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


def integrate_whole(times, gens, window, initial_age=0.0, chunk=None) -> float:
    """``des_sim.time_average_age`` as it was before it ran in chunks: every
    temporary as long as the window's deliveries and the same ufuncs in the
    same order. Inputs are assumed valid (the package checks them); the
    arithmetic is copied verbatim, so the two agree bit for bit.

    The areas are summed as the package sums them: ``np.sum`` over each run
    of ``chunk`` areas from the first, added in turn to a total that starts
    at 0.0. ``chunk`` None is ``des_sim._DRAW_BLOCK`` as it is at the call,
    so a patched block size holds; ``chunk=math.inf`` gives one sum over the
    whole array.
    """
    t0, t1 = float(window[0]), float(window[1])
    times = np.asarray(times, dtype=float)
    gens = np.asarray(gens, dtype=float)
    start = int(np.searchsorted(times, t0, side="right"))
    stop = int(np.searchsorted(times, t1, side="left"))
    floor = t0 - initial_age
    if start:
        floor = max(floor, float(gens[:start].max()))
    held = np.empty(stop - start + 1)
    held[0] = floor
    held[1:] = gens[start:stop]
    np.fmax.accumulate(held, out=held)
    bounds = np.empty(stop - start + 2)
    bounds[0], bounds[-1] = t0, t1
    bounds[1:-1] = times[start:stop]
    left, right = bounds[:-1], bounds[1:]
    area = np.add(left, right)
    area *= 0.5
    np.subtract(area, held, out=held)
    np.subtract(right, left, out=area)
    area *= held
    step = int(min(des_sim._DRAW_BLOCK if chunk is None else chunk, area.size))
    total = 0.0
    for lo in range(0, area.size, step):
        total += float(np.sum(area[lo:lo + step]))
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


def preemptive_pair_model(lam: float, mu: float) -> ShsModel:
    """Two-state fake-update chain of the preemptive pair (R. D. Yates,
    "Status Updates through Networks of Parallel Servers", ISIT 2018),
    components (monitor age, server 1 update age, server 2 update age). An
    idle server holds a fake update as old as the monitor; state 0 has the
    fresher update at server 1, state 1 at server 2. An arrival replaces the
    older update; a delivery of the fresher one leaves the monitor and both
    servers at its age, a delivery of the older one leaves its server idle."""

    def keep(*sources):  # component j after the reset copies sources[j], None zeroes it
        reset = [[0] * 3 for _ in range(3)]
        for j, i in enumerate(sources):
            if i is not None:
                reset[i][j] = 1
        return reset

    transitions = [
        (0, 1, lam, keep(0, 1, None)),
        (0, 0, mu, keep(1, 1, 1)),
        (0, 0, mu, keep(2, 1, 2)),
        (1, 0, lam, keep(0, None, 2)),
        (1, 1, mu, keep(2, 2, 2)),
        (1, 1, mu, keep(1, 1, 2)),
    ]
    return build_model(2, 3, transitions, [[1, 1, 1], [1, 1, 1]])


def stage_systems(model: ShsModel, rates=None):
    """The stationary and correlation stages' matrices, written out entry by
    entry from the transitions: the balance rows ``sum over transitions
    leaving q of rate * pi_q - sum over transitions entering q of rate *
    pi_src`` with the last row replaced by normalization, and the equations
    ``v_q * (total outgoing rate of q) - sum over incoming transitions of
    rate * (v_src @ A) = slope_q * pi_q`` over the stacked unknown
    ``v[q * c + j]``. ``rates`` holds one rate per transition in place of the
    model's own floats; then the matrices are object arrays whose entries
    are sums of those rates and integers, exact for ``Fraction`` rates."""
    n, c = model.num_states, model.num_components
    dtype = float if rates is None else object
    rates = [t.rate for t in model.transitions] if rates is None else rates
    balance = np.zeros((n, n), dtype=dtype)
    correlation = np.zeros((n * c, n * c), dtype=dtype)
    for t, rate in zip(model.transitions, rates):
        balance[t.from_state, t.from_state] += rate
        balance[t.to_state, t.from_state] -= rate
        for j in range(c):
            correlation[t.from_state * c + j, t.from_state * c + j] += rate
            for i in range(c):
                if t.reset_map[i, j]:
                    correlation[t.to_state * c + j, t.from_state * c + i] -= rate
    balance[n - 1, :] = 1
    return balance, correlation


def gauss_jordan(matrix, rhs) -> list:
    """The exact solution of ``matrix x = rhs`` over ``Fraction``: each
    column's first nonzero entry at or below the diagonal is the pivot, and
    every other row is cleared in that column. Raises ``ValueError`` for a
    singular matrix."""
    rows = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            raise ValueError(f"singular matrix: no pivot in column {k}")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = [a / rows[k][k] for a in rows[k]]
        rows[k] = top
        for i, row in enumerate(rows):
            if i != k and row[k]:
                factor = row[k]
                rows[i] = [a - factor * b for a, b in zip(row, top)]
    return [row[-1] for row in rows]


def exact_solve(model: ShsModel, transition_rates):
    """The exact stationary distribution and correlation vectors of
    ``model`` with ``transition_rates`` (one per transition), by
    :func:`gauss_jordan` on :func:`stage_systems`' entries over the whole
    stacked unknown, live or not. Each rate is converted to ``Fraction``,
    exactly for a binary float, so any float rate point has an exact
    reference. Returns pi (n Fractions) and the vectors (n rows of c)."""
    n, c = model.num_states, model.num_components
    balance, correlation = stage_systems(model, [Fraction(r) for r in transition_rates])
    pi = gauss_jordan(balance, [0] * (n - 1) + [1])
    slopes = model.slopes.astype(int).tolist()
    flat = gauss_jordan(correlation, [slopes[q][j] * pi[q] for q in range(n) for j in range(c)])
    return pi, [flat[q * c:(q + 1) * c] for q in range(n)]


def unreachable_state(num_states: int, transitions) -> str | None:
    """The message ``build_model`` must raise for a chain of valid
    ``(from_state, to_state, rate, reset_map)`` transitions that is not
    strongly connected, or None. A breadth-first search from state 0 along
    the transitions, then one against them, each naming the smallest state
    it misses."""
    for forward, message in ((True, "state {} unreachable from state 0"),
                             (False, "state 0 unreachable from state {}")):
        seen = [False] * num_states
        seen[0] = True
        queue = [0]
        while queue:
            state = queue.pop(0)
            for frm, to, _, _ in transitions:
                src, dst = (frm, to) if forward else (to, frm)
                if src == state and not seen[dst]:
                    seen[dst] = True
                    queue.append(dst)
        if not all(seen):
            return "chain is not irreducible: " + message.format(seen.index(False))
    return None


def live_unknowns(model: ShsModel) -> list[int]:
    """Flat indices ``q * c + j`` of the correlation unknowns to solve for,
    one unknown at a time. First every unknown is taken as never zeroed, and
    (q, j) is struck when some transition into q does not copy into j a
    never-zeroed unknown (src, i) of its source (its reset map has a 1 at
    (i, j)). The live set starts from the unknowns with slope 1 and those
    never zeroed, and (q, j) joins it when a transition into q copies a live
    unknown (src, i) of its source into j."""
    n, c = model.num_states, model.num_components

    def copied(t, j, marked):
        return any(t.reset_map[i, j] and t.from_state * c + i in marked for i in range(c))

    never_zeroed = set(range(n * c))
    shrunk = True
    while shrunk:
        shrunk = False
        for t in model.transitions:
            for j in range(c):
                target = t.to_state * c + j
                if target in never_zeroed and not copied(t, j, never_zeroed):
                    never_zeroed.discard(target)
                    shrunk = True
    live = never_zeroed | {q * c + j for q in range(n) for j in range(c)
                           if model.slopes[q, j] == 1}
    grown = True
    while grown:
        grown = False
        for t in model.transitions:
            for j in range(c):
                target = t.to_state * c + j
                if target not in live and copied(t, j, live):
                    live.add(target)
                    grown = True
    return sorted(live)


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


def blocking_channel_loop(lam: float, mu: float, horizon: float, arrival_rng, service_rng,
                          block: int):
    """Reference renewal-form blocking channel, one step at a time.

    Blocks of ``block`` Exp(lam) waits from ``arrival_rng`` and ``block``
    Exp(mu) services from ``service_rng`` alternate wait, service, wait, ...
    Each block's steps are summed one by one from zero and carried on from
    the last instant of the block before, until a block ends past
    ``horizon``; a wait ends at a generation, the service after it at that
    update's delivery. The blocked arrivals are one Poisson(lam * busy time)
    count per block, over that block's busy times by ``horizon`` summed with
    ``np.sum`` as in the package, so that each Poisson mean has the same bits,
    drawn in turn from ``arrival_rng`` jumped, taken before the first wait. A
    block with no busy time draws nothing. Whole blocks are drawn, so the
    values do not depend on where the package splits a block into pieces.

    Returns the delivery instants by ``horizon``, their generation times,
    and the number of arrivals by ``horizon`` (accepted plus blocked).
    """
    counts = np.random.Generator(arrival_rng.bit_generator.jumped())
    gens, deps = [], []
    base = 0.0
    while base <= horizon:
        waits = arrival_rng.exponential(1.0 / lam, block).tolist()
        services = service_rng.exponential(1.0 / mu, block).tolist()
        total = 0.0
        for wait, service in zip(waits, services):
            total += wait
            gens.append(total + base)
            total += service
            deps.append(total + base)
        base = deps[-1]
    busy = np.array([min(d, horizon) - g for g, d in zip(gens, deps) if g <= horizon])
    n_blocked = 0
    for lo in range(0, busy.size, block):
        n_blocked += int(counts.poisson(lam * float(np.sum(busy[lo:lo + block]))))
    kept = [(d, g) for g, d in zip(gens, deps) if d <= horizon]
    return [d for d, _ in kept], [g for _, g in kept], len(busy) + n_blocked


def running_sum_blocks(draw, horizon: float):
    """Running sum as a list of blocks joined at the end: each block
    ``draw()`` returns is cumsummed and carried on from the last sum of the
    block before, up to the first block whose last sum passes ``horizon``."""
    blocks = []
    base = 0.0
    while base <= horizon:
        block = np.cumsum(draw()) + base
        base = float(block[-1])
        blocks.append(block)
    return np.concatenate(blocks)


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


def csv_by_cells(header: str, rows) -> str:
    """CSV text under ``header`` rendered one cell at a time: a float by its
    ``repr``, None as an empty cell, anything else by ``str``."""
    lines = [header]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(repr(float(value)))
            elif value is None:
                cells.append("")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
