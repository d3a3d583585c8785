"""Event-driven simulators for status-update queues with a filtering monitor.

Three systems share one monitor discipline (keep the most recently generated
update that has ever been delivered):

* the two-sensor system: two independent Poisson sources, each feeding its
  own exponential single-buffer blocking channel;
* a single-sensor blocking channel, the one-queue special case;
* a two-server preemptive system: one Poisson source, two exponential
  servers, and an arrival that finds both busy replaces whichever in-service
  update was generated earlier.

Each system is a list of channels run by one trial runner: the two-sensor
system and the single queue are the two- and one-channel runs of one
blocking simulator, and the preemptive pair is one channel holding both
servers. Horizon times the total rate (lambda1+lambda2+mu1+mu2, lambda+mu
and lambda+2mu respectively) may not exceed ``MAX_EXPECTED_EVENTS``.

A trial runs as a stream of blocks. Each channel yields its deliveries in
time order, one block of at most ``_DRAW_BLOCK`` draws per stream at a
time; the runner merges the channels' blocks and integrates the age as the
deliveries come, through buffers allocated once per run and reused across
blocks and trials. Every sum over a trial is a running sum over chunks of
``_DRAW_BLOCK`` terms: the age integral's areas, counted from the window's
first segment, and a blocking channel's busy times, one draw block at a
time. So an untraced trial runs in memory that does not grow with the
horizon, and the block size fixes the bits of each value (summed whole, a
trial of more than one chunk would differ in its last bits).

A blocking channel runs in renewal form. Arrivals are memoryless, so after
each departure the wait for the next *accepted* arrival is Exp(lambda), and
the accepted updates' generation and delivery instants are the running sum
of alternating waits and services. The arrivals blocked while the channel is
busy form a Poisson process on the busy time; they change nothing at the
monitor and are only counted (and, in a trace, placed). This is exact in
distribution and walks no blocked arrival.

The preemptive pair runs on blocks as well. Every arrival enters service,
and update m-1 is still in service at arrival m iff its delivery instant
``a[m-1] + s[m-1]`` lies past ``a[m]``; such a busy arrival replaces the
older update in service, if any. So update k is delivered iff its delivery
instant falls by the horizon and by the first busy arrival from k+2 on. An
update whose first such arrival is not yet drawn waits for the next block. A
block's kept deliveries all fall by its last busy arrival, which every later
update's delivery follows, so they are final once sorted. This makes the
draws of a per-arrival walk and gives its results bit for bit.

Reproducibility contract: every random quantity comes from a PCG64 generator
seeded with ``SeedSequence(seed, spawn_key=(trial, stream))``. Channel k
draws from streams 2k and 2k+1. A blocking channel's stream 2k holds the
accepted-arrival waits, then its blocked count, then the draws only a trace
uses; stream 2k+1 holds its service times. The preemptive pair draws its
arrival instants from stream 0 and its service times from stream 1. Results
are therefore bit-identical across runs on one platform, a traced run gives
the values of an untraced one, and each trial's value is independent of how
many trials run alongside it. Simultaneous events have probability zero; for
determinism, due departures are processed before an arrival carrying the
same timestamp, and equal delivery instants keep the channel order and,
within the pair, the arrival order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .shs_core import _is_a, _require_positive
from .two_sensor import TwoSensorParams

DEFAULT_SEED = 12345

#: Draws per stream in one block: the pair's arrival gaps, or a blocking
#: channel's wait and service pairs. Each block is cumsummed and carried on
#: from the last sum of the block before, so this size fixes the rounding,
#: and so the bits, of every instant. It also fixes the summation order, and
#: so the bits, of every trial value: the age integral sums its areas, and a
#: blocking channel its busy times, in chunks this long. The trace writer's
#: row batches are as long too; their length changes no byte.
_DRAW_BLOCK = 1 << 14

#: A run is rejected when horizon times the model's total rate, the expected
#: events of one trial, exceeds this cap. An untraced trial streams through
#: buffers reused from one to the next and sums per block, so nothing in it
#: grows with the horizon; a traced one keeps its trace columns. Measured
#: peak RSS growth per expected event over lambda/mu from 0.25 to 50 (mu =
#: 1, one trial, against a trial of a few events): untraced, at 1e7 expected
#: events, at most 0.26 B for the two-sensor system (lambda/mu = 0.25),
#: 0.04 B for the single queue and 0.20 B for the preemptive pair
#: (lambda/mu = 0.5), the block buffers alone; with a trace directory, at
#: 2e6 expected events, at most 43 B (the preemptive pair at lambda/mu =
#: 50). The traced growth binds: 2e7 * 43 B = 0.86 GB, so every model stays
#: under 2 GB at the cap with room for the interpreter.
MAX_EXPECTED_EVENTS = 2e7

_INF = math.inf

_TRACE_HEADER = "time,kind,sensor,generation_time,post_event_age"

#: Trace row kinds; a trace holds each row's kind as its index here.
_KINDS = ("arrival", "blocked", "delivery", "preempt")
_ARRIVAL, _BLOCKED, _DELIVERY, _PREEMPT = range(4)


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: horizon, replications, seed, warmup fraction."""

    horizon: float = 2e5
    num_trials: int = 10
    seed: int = DEFAULT_SEED
    warmup: float = 0.01

    def __post_init__(self):
        _require_positive(horizon=self.horizon)
        if not (_is_a(numbers.Integral, self.num_trials) and self.num_trials >= 1):
            raise ValueError(f"num_trials must be an integer >= 1, got {self.num_trials!r}")
        if not (_is_a(numbers.Real, self.warmup) and 0 <= self.warmup < 1):
            raise ValueError(f"warmup must lie in [0, 1), got {self.warmup!r}")
        if not (_is_a(numbers.Integral, self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    """Across-trial summary of the time-averaged monitor age."""

    mean_aoi: float
    trial_values: tuple[float, ...]
    stderr: float
    ci95_halfwidth: float
    events_processed: int


def time_average_age(times, gens, window, initial_age: float = 0.0) -> float:
    """Exact time average of the sawtooth age over ``window = (t0, t1)``.

    ``times`` are finite delivery instants sorted ascending, ``gens`` the
    matching finite generation timestamps. Deliveries at or before ``t0``
    only precondition the filter state; deliveries past ``t1`` are ignored.
    ``initial_age`` is the finite monitor age that would hold at ``t0`` had
    no listed delivery occurred. Stale deliveries contribute nothing,
    matching the monitor discipline. ``t0``, ``t1`` and ``initial_age`` must
    be real numbers (numpy scalars included; bools and strings raise
    ``ValueError``). The segment areas are summed as in the simulators, in
    chunks of ``_DRAW_BLOCK`` from the window's first segment, so a window
    of more segments than that differs from one whole-array sum in its last
    bits.
    """
    t0, t1 = window[0], window[1]
    if not (_is_a(numbers.Real, t0) and _is_a(numbers.Real, t1) and -_INF < t0 < t1 < _INF):
        raise ValueError(f"window must be finite with t1 > t0, got ({t0}, {t1})")
    t0, t1 = float(t0), float(t1)
    if not (_is_a(numbers.Real, initial_age) and 0 <= initial_age < _INF):
        raise ValueError(f"initial_age must be nonnegative and finite, got {initial_age!r}")
    times = np.asarray(times, dtype=float)
    gens = np.asarray(gens, dtype=float)
    if times.shape != gens.shape or times.ndim != 1:
        raise ValueError("times and gens must be 1-d arrays of equal length")
    if times.size:
        if not (np.isfinite(times).all() and np.isfinite(gens).all()):
            raise ValueError("delivery and generation times must be finite")
        if (times[1:] < times[:-1]).any():
            raise ValueError("delivery times must be sorted ascending")
        if (gens > times).any():
            raise ValueError("an update cannot be delivered before it is generated")
    integral = _AgeIntegral(t0, t1)
    integral.start(t0 - initial_age)
    integral.add(times, gens)
    return integral.value()


def simulate_two_sensor(
    params: TwoSensorParams, config: SimConfig, trace_dir=None
) -> SimResult:
    """Simulate the two-sensor blocking system and average the monitor age.

    Each sensor feeds its own blocking channel: arrivals finding the channel
    busy are discarded, accepted ones hold the channel for an exponential
    service time and are delivered to the monitor at completion.
    """
    if not isinstance(params, TwoSensorParams):
        params = TwoSensorParams(*params)
    rates = ((params.lambda1, params.mu1), (params.lambda2, params.mu2))
    return _simulate_blocking(rates, config, trace_dir)


def simulate_mm11(lam: float, mu: float, config: SimConfig, trace_dir=None) -> SimResult:
    """Single blocking channel; deliveries arrive in generation order, so the
    staleness filter never rejects anything."""
    _require_positive(lam=lam, mu=mu)
    return _simulate_blocking(((lam, mu),), config, trace_dir)


def simulate_mm2_preemptive(
    lam: float, mu: float, config: SimConfig, trace_dir=None
) -> SimResult:
    """One source, two servers, preempt-the-stalest discipline.

    An arrival takes an idle server if any; otherwise it replaces the
    in-service update with the older generation time (the replaced update is
    lost). Arrival i is served for the i-th service draw. No arrival is
    walked: update k is delivered iff it completes by the horizon and by the
    first arrival from k+2 on that finds the update before it in service;
    draws and results are those of a per-arrival walk, bit for bit.
    """
    _require_positive(lam=lam, mu=mu)
    channel = _PreemptivePair(lam, mu, config.horizon)
    return _run_trials(config, trace_dir, lam + 2 * mu, [channel])


# -- internals ---------------------------------------------------------------


def _simulate_blocking(rates, config: SimConfig, trace_dir) -> SimResult:
    """Blocking channels at ``rates``, ``(lam, mu)`` pairs; channel k is sensor
    k+1. The total rate sums the lams, then the mus, in channel order."""
    lams, mus = zip(*rates)
    channels = [_BlockingChannel(lam, mu, config.horizon, k + 1)
                for k, (lam, mu) in enumerate(rates)]
    return _run_trials(config, trace_dir, sum(lams + mus), channels)


def _rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial, stream)))
    )


def _room(buf, used: int, size: int):
    """``buf`` if it holds ``size`` entries, else a buffer of at least that
    many (twice ``buf`` or more) holding the first ``used`` of it."""
    if size <= buf.size:
        return buf
    grown = np.empty(max(size, 2 * buf.size), dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


class _Column:
    """A trace column: a trial-length array written block by block into one
    buffer, grown by :func:`_room` as the blocks come."""

    def __init__(self, dtype=float):
        self.data, self.size = np.empty(0, dtype), 0

    def extend(self, count: int):
        """A view of ``count`` new entries at the end."""
        self.data = _room(self.data, self.size, self.size + count)
        self.size += count
        return self.data[self.size - count:self.size]

    def values(self):
        return self.data[:self.size]


def _run_trials(config: SimConfig, trace_dir, total_rate, channels) -> SimResult:
    """Run every channel of every trial and average the merged deliveries.

    A channel is called as ``channel(arrival_rng, service_rng, trace)`` and
    returns a generator: it yields ``(deliveries, generations)`` blocks in
    time order, each no earlier than the last delivery yielded before, and
    returns its arrival count. Channel k gets streams 2k and 2k+1. ``trace``
    is None, or a list to which the channel appends its rows, after its last
    block, as one column chunk ``(times, kind codes, sensors, generation
    times)``. Events processed are arrivals plus deliveries; a run is
    refused when it expects more than ``MAX_EXPECTED_EVENTS``, ``horizon *
    total_rate``.
    """
    expected = config.horizon * total_rate
    if expected > MAX_EXPECTED_EVENTS:
        raise ValueError(
            f"event budget exceeded: horizon * total rate = {expected:.3e} "
            f"is above the cap {MAX_EXPECTED_EVENTS:.0e}"
        )
    integral = _AgeIntegral(config.warmup * config.horizon, config.horizon)
    merge = _Merge()
    values = []
    events = 0
    for trial in range(config.num_trials):
        traces = [[] if trace_dir is not None else None for _ in channels]
        streams = [
            channel(_rng(config.seed, trial, 2 * k), _rng(config.seed, trial, 2 * k + 1), trace)
            for k, (channel, trace) in enumerate(zip(channels, traces))
        ]
        # the monitor age is zero at time zero, hence equals t0 at the window
        # start: the held generation time is 0
        integral.start(0.0)
        events += merge(streams, integral.add)
        if trace_dir is not None:
            _write_trace(trace_dir, trial, [trace.pop() for trace in traces])
        values.append(integral.value())
    return _summarize(values, events)


class _AgeIntegral:
    """The exact integral of the sawtooth age over ``(t0, t1)``, fed sorted
    deliveries in batches (see :func:`time_average_age`).

    The window's segments run between t0, the delivery instants inside the
    window and t1; segment i lies at ``held``, the running maximum of the
    generation times delivered before it, which is the staleness filter.
    The areas go into one ``_DRAW_BLOCK``-long scratch, whose sum is added
    to a running total each time it fills; the value adds the last, partial
    chunk, which holds the final segment. Chunks start every
    ``_DRAW_BLOCK`` segments from the first, and the running maximum and
    the last instant carry from batch to batch, so where the batches split
    changes no bit."""

    def __init__(self, t0: float, t1: float):
        self.t0, self.t1 = t0, t1
        self.area, self.left, self.held = (np.empty(_DRAW_BLOCK) for _ in range(3))

    def start(self, floor) -> None:
        """A new integral whose monitor holds generation time ``floor`` at t0."""
        self.floor, self.last, self.closed = float(floor), self.t0, False
        self.total, self.filled = 0.0, 0

    def add(self, times, gens) -> None:
        if self.closed:
            return
        start = int(np.searchsorted(times, self.t0, side="right"))
        if start:
            self.floor = max(self.floor, float(gens[:start].max()))
        stop = int(np.searchsorted(times, self.t1, side="left"))
        self.closed = stop < times.size
        lo = start
        while lo < stop:
            hi = min(lo + self.area.size - self.filled, stop)
            chunk = self.area[self.filled:self.filled + hi - lo]
            right = times[lo:hi]
            left, held = self.left[:hi - lo], self.held[:hi - lo]
            left[0], left[1:] = self.last, times[lo:hi - 1]
            held[0], held[1:] = self.floor, gens[lo:hi - 1]
            # fmax is maximum on finite input, without NaN tests
            np.fmax.accumulate(held, out=held)
            self.floor = max(float(held[-1]), float(gens[hi - 1]))
            self.last = float(times[hi - 1])
            # (right - left) * (0.5 * (left + right) - held), in two buffers
            np.add(left, right, out=chunk)
            chunk *= 0.5
            np.subtract(chunk, held, out=held)
            np.subtract(right, left, out=chunk)
            chunk *= held
            self.filled += hi - lo
            if self.filled == self.area.size:
                self.total += float(np.sum(self.area))
                self.filled = 0
            lo = hi

    def value(self) -> float:
        t0, t1, last, filled = self.t0, self.t1, self.last, self.filled
        self.area[filled] = (t1 - last) * ((last + t1) * 0.5 - self.floor)
        return (self.total + float(np.sum(self.area[:filled + 1]))) / (t1 - t0)


class _Merge:
    """Feeds ``sink`` the deliveries of all channel streams in time order and
    returns the events processed, arrivals plus deliveries.

    Each channel holds one block of deliveries at a time. Let F be the
    earliest of the blocks' last deliveries and c the first channel whose
    block ends at F. A channel's later deliveries come no earlier than its
    block's last, so none comes before F, and at F only from channel c,
    after its held ones, or from a later channel. So every held delivery
    before F is final, and so is every one at F from channel c or an
    earlier one. That takes all of channel c's block, and c draws its next.
    The final deliveries of several channels are concatenated in channel
    order and stably sorted, so equal instants keep the channel order; one
    channel's pass straight through. A channel's block holds at most
    ``_DRAW_BLOCK`` deliveries, so the sort's buffers are sized for one
    block per channel at their first use and kept from trial to trial."""

    def __init__(self):
        self.out = []

    def __call__(self, streams, sink) -> int:
        events = 0
        held = {}  # channel: its block's deliveries not yet released, never empty
        live = set(range(len(streams)))

        def draw(k):
            nonlocal events
            while True:
                try:
                    deps, gens = next(streams[k])
                except StopIteration as stop:
                    events += stop.value
                    live.remove(k)
                    return
                events += deps.size
                if deps.size:
                    held[k] = deps, gens
                    return

        for k in range(len(streams)):
            draw(k)
        while held:
            bound = min(deps[-1] for deps, _ in held.values())
            first = min(k for k, (deps, _) in held.items() if deps[-1] == bound)
            parts = []
            for k in sorted(held):
                deps, gens = held.pop(k)
                cut = int(np.searchsorted(deps, bound, side="right" if k <= first else "left"))
                if cut:
                    parts.append((deps[:cut], gens[:cut]))
                if cut < deps.size:
                    held[k] = deps[cut:], gens[cut:]
            if len(parts) == 1:
                sink(*parts[0])
            else:
                total = sum(deps.size for deps, _ in parts)
                if not self.out:
                    self.out = [np.empty(len(streams) * _DRAW_BLOCK) for _ in range(4)]
                merged_d, merged_g, deps, gens = (buf[:total] for buf in self.out)
                np.concatenate([deps for deps, _ in parts], out=merged_d)
                np.concatenate([gens for _, gens in parts], out=merged_g)
                order = np.argsort(merged_d, kind="stable")
                np.take(merged_d, order, out=deps, mode="clip")
                np.take(merged_g, order, out=gens, mode="clip")
                sink(deps, gens)
            for k in sorted(live - held.keys()):
                draw(k)
        return events


class _BlockingChannel:
    """One blocking channel in renewal form, sensor ``sensor``: accepted
    updates are the running sum of alternating Exp(lam) waits and Exp(mu)
    services, a block of each at a time; deliveries completing past the
    horizon are dropped, and the blocked arrivals are one Poisson count over
    the busy time, summed per block and drawn after the last block."""

    def __init__(self, lam, mu, horizon, sensor):
        self.lam, self.mu, self.horizon, self.sensor = lam, mu, horizon, sensor
        self.block, self.draws = np.empty(2 * _DRAW_BLOCK), np.empty(_DRAW_BLOCK)

    def __call__(self, arrival_rng, service_rng, trace):
        lam, mu, horizon, block, draws = self.lam, self.mu, self.horizon, self.block, self.draws
        gens, deps = block[0::2], block[1::2]
        if trace is not None:  # accepted updates' generation, kept ones' delivery
            starts, ends = _Column(), _Column()
        base = busy = 0.0
        accepted = 0
        while base <= horizon:
            np.multiply(arrival_rng.standard_exponential(out=draws), 1.0 / lam, out=gens)
            np.multiply(service_rng.standard_exponential(out=draws), 1.0 / mu, out=deps)
            np.cumsum(block, out=block)
            block += base
            base = float(block[-1])
            now = kept = gens.size
            if base > horizon:
                now = int(np.searchsorted(gens, horizon, side="right"))
                kept = int(np.searchsorted(deps, horizon, side="right"))
            # the block's busy times, in the draws it no longer needs
            part = np.subtract(deps[:now], gens[:now], out=draws[:now])
            # gens[i + 1] >= deps[i], so only the last accepted update can end
            # past the horizon, where its busy time is cut
            if now > kept:
                part[-1] = horizon - gens[now - 1]
            busy += float(part.sum())
            accepted += now
            if trace is not None:
                starts.extend(now)[:] = gens[:now]
                ends.extend(kept)[:] = deps[:kept]
            yield deps[:kept], gens[:kept]
        n_blocked = int(arrival_rng.poisson(lam * busy))
        if trace is not None:
            starts, ends = starts.values(), ends.values()
            # the busy times as in the blocks, the last one cut at the horizon
            durations = np.concatenate((ends - starts[:ends.size], horizon - starts[ends.size:]))
            blocked = _busy_uniform(arrival_rng, starts, durations, n_blocked)
            trace.append((
                np.concatenate((starts, blocked, ends)),
                np.repeat(np.int8([_ARRIVAL, _BLOCKED, _DELIVERY]),
                          (accepted, n_blocked, ends.size)),
                np.full(accepted + n_blocked + ends.size, self.sensor, dtype=np.int8),
                np.concatenate((starts, blocked, starts[:ends.size])),
            ))
        return accepted + n_blocked


def _busy_uniform(rng, starts, busy, count):
    """``count`` sorted instants uniform over the busy intervals
    ``[starts[i], starts[i] + busy[i])``."""
    ends = np.cumsum(busy)
    offsets = np.sort(rng.random(count)) * ends[-1] if count else np.empty(0)
    index = np.searchsorted(ends, offsets, side="right")
    begins = np.concatenate(((0.0,), ends[:-1]))
    return starts[index] + (offsets - begins[index])


class _PreemptivePair:
    """One source feeding two preemptive servers, a block of arrivals at a
    time (see the module docstring). Update k is kept iff ``d[k] <=
    limit[k + 2]``, where ``limit[j]`` is the instant of the first busy
    arrival at or after j, or the horizon if there is none."""

    def __init__(self, lam, mu, horizon):
        self.lam, self.mu, self.horizon = lam, mu, horizon
        # the undecided updates, then the block: arrival and delivery instants
        self.a, self.d = np.empty(2 * _DRAW_BLOCK), np.empty(2 * _DRAW_BLOCK)

    def __call__(self, arrival_rng, service_rng, trace):
        lam, mu, horizon, a, d = self.lam, self.mu, self.horizon, self.a, self.d
        base, prev = 0.0, -_INF  # prev: the delivery instant of the update before the block
        first = pending = n = 0  # the index of update a[0], and how many are undecided
        if trace is not None:  # every arrival and delivery instant, and the kept updates
            columns = (_Column(), _Column(), _Column(np.intp))
        while base <= horizon:
            if pending + _DRAW_BLOCK > a.size:
                a = self.a = _room(a, pending, pending + _DRAW_BLOCK)
                d = self.d = _room(d, pending, pending + _DRAW_BLOCK)
            block = a[pending:pending + _DRAW_BLOCK]
            arrival_rng.standard_exponential(out=block)
            block *= 1.0 / lam
            np.cumsum(block, out=block)
            block += base
            base = float(block[-1])
            last = base > horizon
            end = pending + (int(np.searchsorted(block, horizon, side="right")) if last
                             else block.size)
            new = d[pending:end]
            service_rng.standard_exponential(out=new)
            new *= 1.0 / mu
            new += a[pending:end]
            # busy[j - pending] iff update j-1 is in service at arrival j
            busy = np.empty(end - pending, dtype=bool)
            if busy.size:
                busy[0] = prev > a[pending]
                np.greater(d[pending:end - 1], a[pending + 1:end], out=busy[1:])
                prev = float(d[end - 1])
            # updates up to L - 2 are decided, L being the last busy arrival:
            # a kept one delivers by a[L], and every later update delivers
            # after a[L] (update L - 1 is in service then), so the block's
            # kept deliveries precede all later ones. The last block decides
            # the rest.
            decided = end
            if not last:
                decided = max(end - 2 - int(busy[::-1].argmax()), 0) if busy.any() else 0
            # limit[k] for update k; no arrival before the block is busy from
            # k + 2 on, or update k would have been decided. From 0 at a busy
            # arrival and the horizon elsewhere, the max with a gives a and
            # the horizon, as a <= horizon, without a branch on random data.
            limit = np.full(decided, horizon)
            lo, hi = max(pending, 2), min(end, decided + 2)
            if hi > lo:
                part = limit[lo - 2:hi - 2]
                np.logical_not(busy[lo - pending:hi - pending], out=part)
                part *= horizon
                np.maximum(part, a[lo:hi], out=part)
            # fmin is minimum on this NaN-free input, without NaN tests
            np.fmin.accumulate(limit[::-1], out=limit[::-1])
            kept = np.flatnonzero(d[:decided] <= limit)
            if trace is not None:
                for column, values in zip(columns, (a[pending:end], d[pending:end], kept + first)):
                    column.extend(values.size)[:] = values
            # in time order, equal instants in arrival order
            deps = d.take(kept)
            order = np.argsort(deps, kind="stable")
            yield deps[order], a.take(kept[order])
            a[:end - decided] = a[decided:end]
            d[:end - decided] = d[decided:end]
            first, pending, n = first + decided, end - decided, n + end - pending
        if trace is not None:
            trace.append(_pair_rows(*(column.values() for column in columns)))
        return n


def _pair_rows(a, d, kept):
    """Trace columns of the preemptive pair: kept deliveries, then arrivals.

    Arrival m is busy iff update m-1 is in service then, ``d[m-1] > a[m]``.
    Only a busy arrival J preempts, and it keeps update J-1 in service; an
    update before a non-busy arrival has left by then. So the one update
    older than m-1 that can be in service at arrival m is J-1, for the last
    busy arrival J before m, and it is iff ``d[J-1] > a[m]``. An arrival
    takes the other server than update m-1 if that one is busy, the same
    server if only an older update is in service, and server 1 if both are
    idle."""
    n = a.size
    busy = np.zeros(n, dtype=bool)
    np.greater(d[:-1], a[1:], out=busy[1:])
    index = np.arange(n, dtype=np.int32)
    # last[m]: J-1 for the last busy arrival J <= m, or 0 (long gone) if none
    last = np.where(busy, index - 1, 0)
    np.maximum.accumulate(last, out=last)
    older = np.zeros(n, dtype=bool)
    np.greater(d[last[1:-1]], a[2:], out=older[2:])
    del last
    preempt = busy & older
    flips = np.cumsum(busy, dtype=np.int32)
    # server 1 again at every arrival that finds both servers idle
    older |= busy
    index[older] = 0
    np.maximum.accumulate(index, out=index)
    server = flips - flips[index]
    del flips, index
    server &= 1
    server = server.astype(np.int8) + 1
    kinds = np.where(preempt, np.int8(_PREEMPT), np.int8(_ARRIVAL))
    return (
        np.concatenate((d[kept], a)),
        np.concatenate((np.full(kept.size, _DELIVERY, dtype=np.int8), kinds)),
        np.concatenate((server[kept], server)),
        np.concatenate((a[kept], a)),
    )


def _summarize(values, events: int) -> SimResult:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return SimResult(
        mean_aoi=mean,
        trial_values=tuple(float(x) for x in arr),
        stderr=stderr,
        ci95_halfwidth=1.96 * stderr,
        events_processed=int(events),
    )


def _write_trace(trace_dir, trial: int, chunks) -> None:
    """Dump one trial's event trace as CSV, rows in time order (stable across
    the channels' column chunks). The post-event monitor age is ``t`` minus
    the running maximum of delivered generation times, the filter rule
    :func:`time_average_age` integrates."""
    columns = list(zip(*chunks))
    chunks.clear()  # so each column's chunks are freed once it is merged
    times, kinds, sensors, gens = (np.concatenate(columns.pop(0)) for _ in range(4))
    order = np.argsort(times, kind="stable")
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    held = 0.0
    with open(path / f"trial_{trial:03d}.csv", "w") as out:
        out.write(_TRACE_HEADER + "\n")
        for start in range(0, order.size, _DRAW_BLOCK):
            rows = order[start:start + _DRAW_BLOCK]
            for t, kind, sensor, gen in zip(
                times[rows].tolist(), kinds[rows].tolist(),
                sensors[rows].tolist(), gens[rows].tolist(),
            ):
                if kind == _DELIVERY and gen > held:
                    held = gen
                out.write(f"{t!r},{_KINDS[kind]},{sensor},{gen!r},{t - held!r}\n")
