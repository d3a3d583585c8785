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
system and the single queue are two and one blocking channels, and the
preemptive pair is one channel holding both servers. Blocks go out and
counters stay on the channel: each channel yields its deliveries in time
order, one block of at most ``_DRAW_BLOCK`` draws per stream at a time, and
keeps its ``rate`` (lambda+mu for a blocking channel, lambda+2mu for the
pair), and its ``events`` (arrivals, blocked ones included, plus deliveries
by the horizon) and ``blocked`` arrivals summed over the run's trials.
Horizon times the sum of the rates may not exceed ``MAX_EXPECTED_EVENTS``.
The runner merges the channels' blocks and integrates the age as the
deliveries come, through buffers allocated once per run and reused across
blocks and trials. The age integral's areas are a running sum over chunks
of ``_DRAW_BLOCK`` terms, counted from the window's first segment, and each
segment's level, the running maximum of the delivered generation times, is
the larger of the last two whenever no two stale deliveries are adjacent,
as in every simulated trial; so the integral runs in elementwise passes,
and other input falls back to exact levels. A blocking channel settles
each block's blocked arrivals after that block. The block size fixes the
bits of each value (summed whole, a trial of more than one chunk would
differ in its last bits). A traced trial's channels append their trace
rows block by block, and each release of deliveries writes the rows before
its last delivery, which are final. So no state of a trial grows with the
horizon, traced or not.

A blocking channel runs in renewal form. Arrivals are memoryless, so after
each departure the wait for the next *accepted* arrival is Exp(lambda), and
the accepted updates' generation and delivery instants are the running sum
of alternating waits and services. The arrivals blocked while the channel is
busy form a Poisson process on the busy time; they change nothing at the
monitor and are only counted, one Poisson count per block over that
block's busy time, and have no trace row. Counts of a Poisson process on
disjoint sets are independent Poisson counts, so this is exact in
distribution and walks no blocked arrival.

The preemptive pair runs on blocks as well. Every arrival enters service,
and update m-1 is still in service at arrival m iff its delivery instant
``d[m-1] = a[m-1] + s[m-1]`` lies past ``a[m]``; such a busy arrival
replaces the older update in service, if any. So an update whose next
arrival is not busy is delivered iff it completes by the horizon, and for
consecutive busy arrivals J < m, update J-1 iff ``d[J-1] <= a[m]``. For
the last busy arrival L so far, update L-1 waits for the next block. A
block's kept deliveries all fall by its last busy arrival, which every later
update's delivery follows, so they are final once sorted. This makes the
draws of a per-arrival walk and gives its results bit for bit. In a trace
each block appends its kept deliveries and its new arrivals; the next block
starts from update L-1 and carries its server, all that its arrivals' rows
need of the blocks before.

Reproducibility contract: every random quantity comes from a PCG64 generator
seeded with ``SeedSequence(seed, spawn_key=(trial, stream))``. Channel k
draws from streams 2k and 2k+1. A blocking channel's stream 2k holds only
the accepted-arrival waits its trial reaches, as a block may stop short at
the horizon; each block's blocked count comes from stream 2k jumped once
(``bit_generator.jumped()``, taken before the first wait). Stream 2k+1
holds its service times.
The preemptive pair draws its arrival instants from stream 0 and its
service times from stream 1. Results
are therefore bit-identical across runs on one platform, a traced run gives
the values of an untraced one, and each trial's value is independent of how
many trials run alongside it. Simultaneous events have probability zero; for
determinism, due departures are processed before an arrival carrying the
same timestamp, equal delivery instants keep the channel order and, within
the pair, the arrival order, and equal trace-row times keep chunk order.
"""

from __future__ import annotations

import math
import numbers
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .shs_core import _finite, _is_a, _require_positive
from .two_sensor import TwoSensorParams

DEFAULT_SEED = 12345

#: Draws per stream in one block: the pair's arrival gaps, or a blocking
#: channel's wait and service pairs. Each block is cumsummed and carried on
#: from the last sum of the block before, so this size fixes the rounding,
#: and so the bits, of every instant. It also fixes the summation order, and
#: so the bits, of every trial value: the age integral sums its areas in
#: chunks this long. A blocking channel draws one blocked count per block,
#: so the size also sets which busy time each count covers. Every channel
#: draws a block in pieces, the last one only as far as the horizon needs;
#: each piece carries the block's running sum, so the bits are those of the
#: whole block. The trace writer's row batches are as long too; their length
#: changes no byte.
_DRAW_BLOCK = 1 << 14

#: A run is rejected when horizon times the model's total rate, the expected
#: events of one trial, exceeds this cap. No state of a trial grows with the
#: horizon, traced or not: buffers are reused from block to block, the age
#: integral sums per block and a trace writes its rows once they are final.
#: So the cap bounds a trial's time and its trace file's size. Measured at
#: lambda/mu of 0.5, 4 and 50 (mu = 1, one trial): untraced, 0.35 to 15 ns
#: per processed event at 1e7 expected events, 11.5 to 15 ns at the pair;
#: traced, 1.9 to 2.0 us and 66 B per trace row at 1e6, with at most one
#: row per event (a blocked arrival has none), so at most about a minute
#: and 1.3 GB at the cap.
MAX_EXPECTED_EVENTS = 2e7

#: Longest horizon: a trial's age integral is at most horizon**2, which
#: overflows a float above this.
MAX_HORIZON = math.sqrt(sys.float_info.max)

_INF = math.inf

#: The draws ``PCG64.jumped()`` skips, (phi - 1) * 2**128 as numpy documents
#: it. A blocking channel draws its blocked counts from one kept generator,
#: set in each trial to its wait stream's state advanced by this, in place of
#: seeding a new jumped one in every trial.
_JUMP = 210306068529402873165736369884012333109

_TRACE_HEADER = "time,kind,sensor,generation_time,post_event_age"

#: Trace row kinds by the code a trace holds for each row. A blocked arrival
#: has no row.
_ARRIVAL, _DELIVERY, _PREEMPT = 0, 1, 2
_KINDS = ("arrival", "delivery", "preempt")


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: horizon, replications, seed, warmup fraction.
    The horizon is stored as a float and may not exceed ``MAX_HORIZON``."""

    horizon: float = 2e5
    num_trials: int = 10
    seed: int = DEFAULT_SEED
    warmup: float = 0.01

    def __post_init__(self):
        _require_positive(horizon=self.horizon)
        object.__setattr__(self, "horizon", float(self.horizon))
        if not self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must be at most {MAX_HORIZON:.4e}, so that the age "
                             f"integral stays finite, got {self.horizon!r}")
        if not (_is_a(numbers.Integral, self.num_trials) and self.num_trials >= 1):
            raise ValueError(f"num_trials must be an integer >= 1, got {self.num_trials!r}")
        if not (_is_a(numbers.Real, self.warmup) and 0 <= self.warmup < 1):
            raise ValueError(f"warmup must lie in [0, 1), got {self.warmup!r}")
        if not (_is_a(numbers.Integral, self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    """Across-trial summary of the time-averaged monitor age; one trial has
    no spread to estimate, so its ``stderr`` and ``ci95_halfwidth`` are None.
    ``blocked`` sums, per sensor in channel order, the arrivals dropped by a
    busy channel, which ``events_processed`` counts too (0 for the pair)."""

    mean_aoi: float
    trial_values: tuple[float, ...]
    stderr: float | None
    ci95_halfwidth: float | None
    events_processed: int
    blocked: tuple[int, ...]


def time_average_age(times, gens, window, initial_age: float = 0.0) -> float:
    """Exact time average of the sawtooth age over ``window = (t0, t1)``.

    ``times`` are finite delivery instants sorted ascending, ``gens`` the
    matching finite generation timestamps. Deliveries at or before ``t0``
    only precondition the filter state; deliveries past ``t1`` are ignored.
    ``initial_age`` is the finite monitor age that would hold at ``t0`` had
    no listed delivery occurred. Stale deliveries contribute nothing,
    matching the monitor discipline. ``t0``, ``t1`` and ``initial_age`` must
    be real numbers (numpy scalars included; bools and strings raise
    ``ValueError``) whose floats are finite, with ``t0 < t1`` as floats, and
    the window may not be so wide that its age integral overflows a float.
    The segment areas are summed as in the simulators, in chunks of
    ``_DRAW_BLOCK`` from the window's first segment, so a window of more
    segments than that differs from one whole-array sum in its last bits.
    """
    t0, t1 = _finite(window[0]), _finite(window[1])
    if t0 is None or t1 is None or not t0 < t1:
        raise ValueError(f"window must be finite with t1 > t0, got ({window[0]}, {window[1]})")
    age = _finite(initial_age)
    if age is None or not 0 <= initial_age:
        raise ValueError(f"initial_age must be nonnegative and finite, got {initial_age!r}")
    # the age in the window is at most t1 - t0 + initial_age; a finite bound
    # also keeps t0 + t1 finite, as no span at that magnitude has a finite square
    span, initial_age = t1 - t0, age
    if not span * (span + initial_age) < _INF:
        raise ValueError(f"window ({t0}, {t1}) with initial_age {initial_age!r} is too wide: "
                         "its age integral overflows a float")
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
    channels = [_BlockingChannel(params.lambda1, params.mu1, config.horizon, 1),
                _BlockingChannel(params.lambda2, params.mu2, config.horizon, 2)]
    return _run_trials(config, trace_dir, channels)


def simulate_mm11(lam: float, mu: float, config: SimConfig, trace_dir=None) -> SimResult:
    """Single blocking channel; deliveries arrive in generation order, so the
    staleness filter never rejects anything."""
    _require_positive(lam=lam, mu=mu)
    return _run_trials(config, trace_dir, [_BlockingChannel(lam, mu, config.horizon, 1)])


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
    return _run_trials(config, trace_dir, [_PreemptivePair(lam, mu, config.horizon)])


# -- internals ---------------------------------------------------------------


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


def _run_trials(config: SimConfig, trace_dir, channels) -> SimResult:
    """Run every channel of every trial and average the merged deliveries.

    Blocks go out, counters stay on the channel. A channel is called as
    ``channel(arrival_rng, service_rng, trace)`` and returns an iterator of
    ``(deliveries, generations)`` blocks in time order, each no earlier than
    the last delivery yielded before; it adds its arrivals and deliveries to
    its ``events`` and its blocked arrivals to its ``blocked`` as it goes.
    Channel k gets streams 2k and 2k+1. ``trace`` is None or the trial's
    :class:`_Trace`, to which every channel appends one chunk of row columns
    ``(times, kind codes, sensors, generation times)`` per block before
    yielding it; no later chunk holds a row before that block's last
    delivery. The preemptive pair's chunk starts at update L-1, for the last
    busy arrival L before the block, and carries that update's server. Events
    processed sum the channels' ``events``; a run is refused when it expects
    more than ``MAX_EXPECTED_EVENTS``, horizon times the sum of the channels'
    ``rate``.
    """
    expected = config.horizon * sum(channel.rate for channel in channels)
    if expected > MAX_EXPECTED_EVENTS:
        raise ValueError(
            f"event budget exceeded: horizon * total rate = {expected:.3e} "
            f"is above the cap {MAX_EXPECTED_EVENTS:.0e}"
        )
    integral = _AgeIntegral(config.warmup * config.horizon, config.horizon)
    merge = _Merge()
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    values = []
    for trial in range(config.num_trials):
        name = f"trial_{trial:03d}.csv"
        with nullcontext() if trace_dir is None else open(trace_dir / name, "w") as out:
            trace = None if out is None else _Trace(out, integral.add)
            streams = [channel(_rng(config.seed, trial, 2 * k),
                               _rng(config.seed, trial, 2 * k + 1), trace)
                       for k, channel in enumerate(channels)]
            # the monitor age is zero at time zero, hence equals t0 at the window
            # start: the held generation time is 0
            integral.start(0.0)
            merge(streams, integral.add if trace is None else trace.sink)
            if trace is not None:
                trace.write(_INF)
        values.append(integral.value())
    return _summarize(values, sum(channel.events for channel in channels),
                      tuple(channel.blocked for channel in channels))


class _Trace(list):
    """One trial's trace file, fed through the merge. The channels append
    their row chunks to this list (see :func:`_run_trials`), and
    :meth:`sink` hands each release of deliveries to ``add``, then writes
    the pending rows before its last delivery. They are final: a held block
    ends no earlier, and a channel that draws again had its block end
    there. The rest stay pending as one chunk ahead of later ones, so the
    rows come in the order of one stable sort of all the trial's chunks.
    The post-event age is ``t`` minus the running maximum of delivered
    generation times, the filter rule :func:`time_average_age` integrates."""

    def __init__(self, out, add):
        super().__init__()
        self.out, self.add, self.held = out, add, 0.0
        out.write(_TRACE_HEADER + "\n")

    def sink(self, deps, gens) -> None:
        self.add(deps, gens)
        self.write(deps[-1])

    def write(self, bound) -> None:
        """Writes the pending rows before ``bound``, in batches of ``_DRAW_BLOCK``."""
        columns = _joined(self)
        order = np.argsort(columns[0], kind="stable")
        due, rest = np.split(order, [np.count_nonzero(columns[0] < bound)])
        self.append([column[rest] for column in columns])
        held, out = self.held, self.out
        for start in range(0, due.size, _DRAW_BLOCK):
            rows = due[start:start + _DRAW_BLOCK]
            for t, kind, sensor, gen in zip(*[column[rows].tolist() for column in columns]):
                if kind == _DELIVERY and gen > held:
                    held = gen
                out.write(f"{t!r},{_KINDS[kind]},{sensor},{gen!r},{t - held!r}\n")
        self.held = held


class _AgeIntegral:
    """The exact integral of the sawtooth age over ``(t0, t1)``, fed sorted
    deliveries in batches (see :func:`time_average_age`).

    The window's segments run between t0, the delivery instants inside the
    window and t1; segment i lies at its level, the running maximum of the
    generation times delivered before it, which is the staleness filter.
    The areas go into one ``_DRAW_BLOCK``-long scratch, whose sum is added
    to a running total each time it fills; the value adds the last, partial
    chunk, which holds the final segment. Chunks start every
    ``_DRAW_BLOCK`` segments from the first, and the level and the last
    instant carry from batch to batch, so where the batches split changes
    no bit.

    A chunk's first segment starts at the carried instant and level, and is
    one scalar area. The level of each later one is first taken as the
    larger of the last two generation times, with the carried level folded
    into the first two. Such a sequence lies between the raw generation
    times and their running maximum, and it equals that maximum exactly
    when it is nondecreasing; while it is not, the span of the maximum
    doubles in place, so any input gets the exact levels.

    In the simulators the first check holds, as a stale delivery, one
    generated no later than the level, is always followed by a fresh one
    (R. D. Yates, "Status Updates through Networks of Parallel Servers",
    ISIT 2018, shows how such out-of-order deliveries arise). A blocking
    channel delivers in generation order, so with two of them a stale
    delivery comes from one channel while the monitor holds the other's
    last delivery. The stale channel's next update is generated after that
    delivery, so later than every update delivered so far; the other
    channel's next one is fresher than its last. In the preemptive pair a
    stale update k delivers after a later update j, which took the other
    server while k was in service. That server has since served only
    arrivals after j, in order, and k's server serves only arrivals after
    k's delivery, so the next delivery is of an update later than every
    delivered one."""

    def __init__(self, t0: float, t1: float):
        self.t0, self.t1 = t0, t1
        self.area, self.held = np.empty(_DRAW_BLOCK), np.empty(_DRAW_BLOCK)
        self.rising = np.empty(_DRAW_BLOCK, dtype=bool)

    def start(self, floor) -> None:
        """A new integral whose monitor holds generation time ``floor`` at t0."""
        self.floor, self.last = float(floor), self.t0
        self.total, self.filled = 0.0, 0

    def add(self, times, gens) -> None:
        start = int(np.searchsorted(times, self.t0, side="right"))
        if start:
            self.floor = max(self.floor, float(gens[:start].max()))
        stop = int(np.searchsorted(times, self.t1, side="left"))
        lo = start
        while lo < stop:
            hi = min(lo + self.area.size - self.filled, stop)
            chunk = self.area[self.filled:self.filled + hi - lo]
            last, floor, first = self.last, self.floor, float(times[lo])
            chunk[0] = (first - last) * ((last + first) * 0.5 - floor)
            # segment i >= 1 runs from times[lo + i - 1] to times[lo + i] at
            # held[i - 1], the running maximum of floor and gens[lo:lo + i]
            held = self.held[:hi - lo - 1]
            if held.size:
                np.maximum(gens[lo + 1:hi - 1], gens[lo:hi - 2], out=held[1:])
                held[0] = gens[lo]
                np.maximum(held[:2], floor, out=held[:2])
                rising = self.rising[:held.size - 1]
                np.greater_equal(held[1:], held[:-1], out=rising)
                # each pass makes the levels below 2 * step exact
                step = 2
                while not rising.all():
                    np.maximum(held[step:], held[:-step], out=held[step:])
                    np.greater_equal(held[1:], held[:-1], out=rising)
                    step *= 2
                floor = float(held[-1])
            self.floor = max(floor, float(gens[hi - 1]))
            self.last = float(times[hi - 1])
            # (right - left) * (0.5 * (left + right) - held), in two buffers
            left, right, area = times[lo:hi - 1], times[lo + 1:hi], chunk[1:]
            np.add(left, right, out=area)
            area *= 0.5
            np.subtract(area, held, out=held)
            np.subtract(right, left, out=area)
            area *= held
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
    """Feeds ``sink`` the deliveries of all channel streams in time order.
    Only blocks pass through it; each channel counts its own events.

    Each channel holds one block of deliveries at a time. Let F be the
    earliest of the blocks' last deliveries and c the first channel whose
    block ends at F. A channel's later deliveries come no earlier than its
    block's last, so none comes before F, and at F only from channel c,
    after its held ones, or from a later channel. So every held delivery
    before F is final, and so is every one at F from channel c or an
    earlier one. That takes all of channel c's block, and c draws its next.
    The final deliveries of several channels are concatenated in channel
    order and stably sorted, so equal instants keep the channel order; one
    channel's pass straight through. The sort keys on the instants' bits as
    int64, which order as the values do: the instants are sums of
    nonnegative draws, never -0.0 or NaN. A channel's block holds at most
    ``_DRAW_BLOCK`` deliveries, so the sort's buffers are sized for one
    block per channel at their first use and kept from trial to trial."""

    def __init__(self):
        self.out = []

    def __call__(self, streams, sink) -> None:
        held = {}  # channel: its block's deliveries not yet released, never empty
        live = set(range(len(streams)))

        def draw(k):
            for deps, gens in streams[k]:
                if deps.size:
                    held[k] = deps, gens
                    return
            live.remove(k)

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
                # nonnegative, NaN-free instants: their bits order as their values
                order = np.argsort(merged_d.view(np.int64), kind="stable")
                np.take(merged_d, order, out=deps, mode="clip")
                np.take(merged_g, order, out=gens, mode="clip")
                sink(deps, gens)
            for k in sorted(live - held.keys()):
                draw(k)


class _BlockingChannel:
    """One blocking channel in renewal form, sensor ``sensor``: accepted
    updates are the running sum of alternating Exp(lam) waits and Exp(mu)
    services, a block of each at a time; deliveries completing past the
    horizon are dropped. Right after each block its blocked arrivals are one
    Poisson count over its busy time up to the horizon, from the wait stream
    jumped once, summed in ``blocked``; they have no trace row. ``events``
    sums its arrivals and deliveries.

    A block is drawn in pieces of :func:`_cycles_due` cycles, so the last
    one stops soon after the horizon. Each piece's first wait carries the
    block's running sum so far, and the block's base is added after the
    piece's cumsum, so every instant has the bits of one cumsum over the
    whole block."""

    def __init__(self, lam, mu, horizon, sensor):
        self.lam, self.mu, self.horizon, self.sensor = lam, mu, horizon, sensor
        self.block, self.draws = np.empty(2 * _DRAW_BLOCK), np.empty(_DRAW_BLOCK)
        self.counts = np.random.Generator(np.random.PCG64(0))
        self.rate, self.events, self.blocked = lam + mu, 0, 0

    def __call__(self, arrival_rng, service_rng, trace):
        # the blocked counts from the wait stream jumped once, which the waits
        # never reach
        counts = self.counts
        counts.bit_generator.state = arrival_rng.bit_generator.state
        counts.bit_generator.advance(_JUMP)
        lam, mu, horizon, block, draws = self.lam, self.mu, self.horizon, self.block, self.draws
        wait, service = 1.0 / lam, 1.0 / mu
        gens, deps = block[0::2], block[1::2]
        base = 0.0
        while base <= horizon:
            size, partial = 0, 0.0  # the block's cycles drawn and their sum
            while size < draws.size and base + partial <= horizon:
                count = _cycles_due(horizon - (base + partial), wait + service, draws.size - size)
                piece = block[2 * size:2 * (size + count)]
                np.multiply(arrival_rng.standard_exponential(out=draws[:count]), wait,
                            out=gens[size:size + count])
                np.multiply(service_rng.standard_exponential(out=draws[:count]), service,
                            out=deps[size:size + count])
                piece[0] += partial
                np.cumsum(piece, out=piece)
                partial = float(piece[-1])
                piece += base
                size += count
            base += partial
            now = int(np.searchsorted(gens[:size], horizon, side="right"))
            kept = int(np.searchsorted(deps[:size], horizon, side="right"))
            # the block's busy times, in the draws it no longer needs
            part = np.subtract(deps[:now], gens[:now], out=draws[:now])
            # gens[i + 1] >= deps[i], so only the last accepted update can end
            # past the horizon, where its busy time is cut
            if now > kept:
                part[-1] = horizon - gens[now - 1]
            blocked = int(counts.poisson(lam * float(part.sum())))
            self.events += now + blocked + kept
            self.blocked += blocked
            if trace is not None:
                times = np.concatenate((gens[:now], deps[:kept]))
                kinds = np.repeat(np.int8([_ARRIVAL, _DELIVERY]), (now, kept))
                trace.append((times, kinds, np.full(times.size, self.sensor, np.int8),
                              np.concatenate((gens[:now], gens[:kept]))))
            yield deps[:kept], gens[:kept]


def _cycles_due(span, cycle, room) -> int:
    """How many cycles of mean length ``cycle`` a channel draws next when its
    horizon lies ``span`` past its last instant and its block has ``room``
    cycles left; a cycle is a blocking channel's wait and service, or one
    arrival gap of the preemptive pair. That is the cycles the span needs on
    average plus four standard deviations and eight more, so that one piece
    almost always passes the horizon, or the whole room when that is fewer.
    A cycle's standard deviation is at most its mean (an exponential gap's
    equals it), so the count of cycles in the span has a variance of at
    most its mean."""
    due = span / cycle
    due += 4.0 * math.sqrt(due) + 8.0
    return int(due) if due < room else room


class _PreemptivePair:
    """One source feeding two preemptive servers, a block of arrivals at a
    time (see the module docstring). Update k is kept iff ``d[k] <=
    horizon`` and, if arrival k+1 is busy, ``d[k] <= a[m]`` for the next
    busy arrival m after it, if any. A traced block appends its rows
    through :func:`_pair_rows`, from the window's first update, L-1 for the
    last busy arrival L, whose server it carries. ``events`` sums its
    arrivals and deliveries. A block's arrival gaps are drawn in pieces of
    :func:`_cycles_due` gaps, as a blocking channel draws its cycles."""

    blocked = 0  # an arrival finding both servers busy preempts, never blocked

    def __init__(self, lam, mu, horizon):
        self.lam, self.mu, self.horizon = lam, mu, horizon
        self.rate, self.events = lam + 2 * mu, 0
        # the undecided updates, then the block: arrival and delivery instants,
        # busy arrivals and kept updates
        self.buffers = [np.empty(2 * _DRAW_BLOCK, dtype) for dtype in (float, float, bool, bool)]

    def __call__(self, arrival_rng, service_rng, trace):
        lam, mu, horizon = self.lam, self.mu, self.horizon
        base = 0.0
        pending, server = 0, 1  # the undecided updates, a[0]'s server
        gap = 1.0 / lam
        while base <= horizon:
            self.buffers = [_room(buf, pending, pending + _DRAW_BLOCK) for buf in self.buffers]
            a, d, busy, keep = self.buffers
            size, partial = 0, 0.0  # the block's gaps drawn and their sum
            while size < _DRAW_BLOCK and base + partial <= horizon:
                count = _cycles_due(horizon - (base + partial), gap, _DRAW_BLOCK - size)
                piece = a[pending + size:pending + size + count]
                arrival_rng.standard_exponential(out=piece)
                piece *= gap
                piece[0] += partial
                np.cumsum(piece, out=piece)
                partial = float(piece[-1])
                size += count
            block = a[pending:pending + size]
            block += base
            base += partial
            end = pending + int(np.searchsorted(block, horizon, side="right"))
            new = d[pending:end]
            service_rng.standard_exponential(out=new)
            new *= 1.0 / mu
            new += a[pending:end]
            # busy[j] iff update j-1 is in service at arrival j (busy[0] False)
            busy = busy[:end]
            busy[:1] = False
            np.greater(d[:end][:-1], a[1:end], out=busy[1:])
            prev = np.flatnonzero(busy[1:])  # J-1 for each busy arrival J
            # updates up to L - 2 are decided, L being the last busy arrival:
            # a kept one delivers by a[L], and every later update delivers
            # after a[L] (update L - 1 is in service then), so the block's
            # kept deliveries precede all later ones. After the first decision
            # the window starts at update L - 1 of the block before, so L >= 1.
            # The last block decides the rest.
            decided = end
            if base <= horizon:
                decided = int(prev[-1]) if prev.size else 0
            # an update whose next arrival is not busy has left by then, so
            # the horizon alone decides it; for consecutive busy arrivals
            # J < m, update J-1 is kept iff it delivers by a[m] (a[1:] at m-1)
            keep = keep[:decided]
            np.less_equal(d[:decided], horizon, out=keep)
            keep[prev[:-1]] = d.take(prev[:-1]) <= a[1:].take(prev[1:])
            kept = np.flatnonzero(keep)
            if trace is not None:
                servers = _pair_rows(trace, a[:end], d[:end], busy, kept, pending, server)
                server = servers[decided] if decided < end else None  # the next window's first
            # in time order, equal instants in arrival order; the instants are
            # nonnegative and NaN-free, so their bits order as their values
            order = np.argsort(d.take(kept).view(np.int64), kind="stable")
            kept = kept[order]
            self.events += end - pending + kept.size
            yield d.take(kept), a.take(kept)
            a[:end - decided] = a[decided:end]
            d[:end - decided] = d[decided:end]
            pending = end - decided


def _pair_rows(trace, a, d, busy, kept, new, server):
    """Appends a block's trace columns of the preemptive pair, its kept
    deliveries then its new arrivals ``a[new:]``, and returns the servers of
    ``a``. Update 0 is the trial's first, or L-1 for the last busy arrival L
    before the block, and holds server ``server``.

    Arrival m is busy iff update m-1 is in service then, ``d[m-1] > a[m]``.
    Only a busy arrival J preempts, and it keeps update J-1 in service; an
    update before a non-busy arrival has left by then. So the one update older
    than m-1 that can be in service at arrival m is J-1, for the last busy
    arrival J before m (arrival 1 is busy in each window after the trial's
    first), and it is iff ``d[J-1] > a[m]``. An arrival takes the other server than update m-1
    if that one is busy, the same server if only an older update is in
    service, and server 1 if both are idle."""
    n = a.size
    index = np.arange(n, dtype=np.int32)
    # last[m]: J-1 for the last busy arrival J <= m, or update 0 if none
    last = np.where(busy, index - 1, 0)
    np.maximum.accumulate(last, out=last)
    older = np.zeros(n, dtype=bool)
    np.greater(d[last[1:-1]], a[2:], out=older[2:])
    preempt = busy & older
    flips = np.cumsum(busy, dtype=np.int32)
    # server 1 again at every arrival that finds both servers idle; before
    # the first, counted on from update 0's
    older |= busy
    index[older] = 0
    np.maximum.accumulate(index, out=index)
    servers = flips - flips[index]
    servers[:index.searchsorted(1)] += server - 1
    servers &= 1
    servers = servers.astype(np.int8) + 1
    kinds = np.where(preempt[new:], np.int8(_PREEMPT), np.int8(_ARRIVAL))
    trace.append((
        np.concatenate((d[kept], a[new:])),
        np.concatenate((np.full(kept.size, _DELIVERY, dtype=np.int8), kinds)),
        np.concatenate((servers[kept], servers[new:])),
        np.concatenate((a[kept], a[new:])),
    ))
    return servers


def _summarize(values, events: int, blocked) -> SimResult:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else None
    return SimResult(
        mean_aoi=mean,
        trial_values=tuple(float(x) for x in arr),
        stderr=stderr,
        ci95_halfwidth=None if stderr is None else _t975(arr.size - 1) * stderr,
        events_processed=int(events),
        blocked=blocked,
    )


#: Student's t 0.975 quantiles for 1 to 30 degrees of freedom, to ten digits.
_T975 = (
    12.70620474, 4.30265273, 3.182446305, 2.776445105, 2.570581836, 2.446911851,
    2.364624252, 2.306004135, 2.262157163, 2.228138852, 2.20098516, 2.17881283,
    2.160368656, 2.144786688, 2.131449546, 2.119905299, 2.109815578, 2.10092204,
    2.093024054, 2.085963447, 2.079613845, 2.073873068, 2.06865761, 2.063898562,
    2.059538553, 2.055529439, 2.051830516, 2.048407142, 2.045229642, 2.042272456,
)


def _t975(dof: int) -> float:
    """The 0.975 quantile of Student's t with ``dof`` degrees of freedom, so
    that mean +- t * stderr covers 95 % for normal trial values: the table to
    30, then the four-term Cornish-Fisher expansion about the normal quantile
    z (Abramowitz and Stegun 26.7.5), within 1.3e-8 relative from 31 on."""
    if dof <= len(_T975):
        return _T975[dof - 1]
    z = 1.959963984540054
    z2 = z * z
    g1 = z * (z2 + 1) / 4
    g2 = z * ((5 * z2 + 16) * z2 + 3) / 96
    g3 = z * (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384
    g4 = z * ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160
    return z + (g1 + (g2 + (g3 + g4 / dof) / dof) / dof) / dof


def _joined(chunks):
    """The columns of ``chunks``, a list of column sequences, each joined into
    one array; the list is cleared, so a column's parts are freed once joined."""
    columns = list(zip(*chunks))
    chunks.clear()
    return [np.concatenate(columns.pop(0)) for _ in range(len(columns))]
