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
system has two blocking channels, the single queue one, and the preemptive
pair is a single channel holding both servers.

A blocking channel runs in renewal form. Arrivals are memoryless, so after
each departure the wait for the next *accepted* arrival is Exp(lambda), and
the accepted updates' generation and delivery instants are the running sum
of alternating waits and services. The arrivals blocked while the channel is
busy form a Poisson process on the busy time; they change nothing at the
monitor and are only counted (and, in a trace, placed). This is exact in
distribution and walks no blocked arrival.

The preemptive pair runs on arrays as well. Every arrival enters service,
and update m-1 is still in service at arrival m iff its delivery instant
``a[m-1] + s[m-1]`` lies past ``a[m]``; such a busy arrival replaces the
older update in service, if any. So update k is delivered iff its delivery
instant falls by the horizon and by the first busy arrival from k+2 on. This
makes the draws of a per-arrival walk and gives its results bit for bit.

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
from functools import partial
from pathlib import Path

import numpy as np

from .shs_core import _is_a, _require_positive
from .two_sensor import TwoSensorParams

DEFAULT_SEED = 12345

#: Draws per stream in one cumsummed block of a running sum: the pair's
#: arrival gaps, or a blocking channel's wait and service pairs. Each block
#: is carried on from the last sum of the block before, so this size fixes
#: the rounding, and so the bits, of every instant.
_DRAW_BLOCK = 1 << 14

#: Entries per pass of the chunked loops (the preemption limit and the age
#: integral), which build their temporaries in scratch of this size, never
#: larger than the run. It changes no value: the loops carry a running
#: minimum or maximum, which is exact, and sum once over the whole run.
_CHUNK = 1 << 14

#: A run is rejected when horizon times the summed rates, the expected
#: events of one trial, exceeds this cap. Trials run one after another, so
#: memory follows one trial. Measured peak RSS growth per expected event of
#: one trial, over lambda/mu from 0.25 to 50: at most 10 B for the
#: two-sensor system (lambda/mu = 2), 6 B for the single queue
#: (lambda/mu = 1) and 18 B for the preemptive pair (lambda/mu = 50); with a
#: trace directory, at most 43 B (the preemptive pair at lambda/mu = 10).
#: 2e7 * 43 B = 0.9 GB, so every model stays under 2 GB at the cap with room
#: for the interpreter.
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
    ``ValueError``).
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

    # sorted, so the deliveries up to t0 and those inside the window are slices
    start = int(np.searchsorted(times, t0, side="right"))
    stop = int(np.searchsorted(times, t1, side="left"))
    floor = t0 - initial_age
    if start:
        floor = max(floor, float(gens[:start].max()))
    # Segment i runs from bounds[i] to bounds[i + 1], bounds being [t0,
    # *times[start:stop], t1], at held[i], the running maximum of [floor,
    # *gens[start:stop]] up to i: that reproduces the staleness filter. It is
    # built chunk by chunk in scratch, the maximum carried over as a scalar;
    # fmax is maximum on this input, checked finite above, without NaN tests.
    segments = stop - start + 1
    area = np.empty(segments)
    width = min(_CHUNK, segments)
    held_buf, bounds_buf = np.empty(width), np.empty(width + 1)
    for lo in range(0, segments, width):
        hi = min(lo + width, segments)
        first, last = lo == 0, hi == segments
        bounds = bounds_buf[:hi - lo + 1]
        bounds[first:bounds.size - last] = times[start + lo - 1 + first:start + hi - last]
        held = held_buf[:hi - lo]
        held[first:] = gens[start + lo - 1 + first:start + hi - 1]
        if first:
            bounds[0], held[0] = t0, floor
        else:
            held[0] = max(held[0], floor)
        if last:
            bounds[-1] = t1
        np.fmax.accumulate(held, out=held)
        floor = held[-1]
        left, right = bounds[:-1], bounds[1:]
        # (right - left) * (0.5 * (left + right) - held), in two buffers
        chunk = area[lo:hi]
        np.add(left, right, out=chunk)
        chunk *= 0.5
        np.subtract(chunk, held, out=held)
        np.subtract(right, left, out=chunk)
        chunk *= held
    return float(np.sum(area)) / (t1 - t0)


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
    total_rate = params.lambda1 + params.lambda2 + params.mu1 + params.mu2
    _check_event_budget(config.horizon, total_rate)
    channels = (
        partial(_blocking_channel, params.lambda1, params.mu1, config.horizon, 1),
        partial(_blocking_channel, params.lambda2, params.mu2, config.horizon, 2),
    )
    return _run_trials(config, trace_dir, channels)


def simulate_mm11(lam: float, mu: float, config: SimConfig, trace_dir=None) -> SimResult:
    """Single blocking channel; deliveries arrive in generation order, so the
    staleness filter never rejects anything."""
    _require_positive(lam=lam, mu=mu)
    _check_event_budget(config.horizon, lam + mu)
    channel = partial(_blocking_channel, lam, mu, config.horizon, 1)
    return _run_trials(config, trace_dir, (channel,))


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
    _check_event_budget(config.horizon, lam + 2 * mu)
    channel = partial(_preemptive_pair, lam, mu, config.horizon)
    return _run_trials(config, trace_dir, (channel,))


# -- internals ---------------------------------------------------------------


def _check_event_budget(horizon: float, total_rate: float) -> None:
    expected = horizon * total_rate
    if expected > MAX_EXPECTED_EVENTS:
        raise ValueError(
            f"event budget exceeded: horizon * total rate = {expected:.3e} "
            f"is above the cap {MAX_EXPECTED_EVENTS:.0e}"
        )


def _rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial, stream)))
    )


def _run_trials(config: SimConfig, trace_dir, channels) -> SimResult:
    """Run every channel of every trial and average the merged deliveries.

    A channel is a callable ``(arrival_rng, service_rng, trace) ->
    (deliveries, generations, arrivals)``; channel k gets streams 2k and
    2k+1. ``trace`` is None, or a list to which the channel appends its rows
    as one column chunk ``(times, kind codes, sensors, generation times)``.
    Events processed are arrivals plus deliveries.
    """
    values = []
    events = 0
    for trial in range(config.num_trials):
        trace = [] if trace_dir is not None else None
        dep_lists, gen_lists = [], []
        for k, channel in enumerate(channels):
            deps, gens, n_arrivals = channel(
                _rng(config.seed, trial, 2 * k),
                _rng(config.seed, trial, 2 * k + 1),
                trace,
            )
            dep_lists.append(deps)
            gen_lists.append(gens)
            events += n_arrivals + len(deps)
        if trace is not None:  # first, as it frees the trace's columns
            _write_trace(trace_dir, trial, trace)
        values.append(_windowed_average(dep_lists, gen_lists, config))
    return _summarize(values, events)


def _blocking_channel(lam, mu, horizon, sensor, arrival_rng, service_rng, trace):
    """One blocking channel in renewal form: accepted updates are the running
    sum of alternating Exp(lam) waits and Exp(mu) services; deliveries
    completing past the horizon are dropped, and the blocked arrivals are one
    Poisson count over the busy time."""
    draws = np.empty(_DRAW_BLOCK)

    def fill(out):
        np.multiply(arrival_rng.standard_exponential(out=draws), 1.0 / lam, out=out[0::2])
        np.multiply(service_rng.standard_exponential(out=draws), 1.0 / mu, out=out[1::2])

    # two steps per cycle of mean length 1/lam + 1/mu
    expected = 2 * horizon / (1.0 / lam + 1.0 / mu)
    instants = _running_sum(fill, 2 * _DRAW_BLOCK, horizon, expected)
    gens, deps = instants[0::2], instants[1::2]
    accepted = int(np.searchsorted(gens, horizon, side="right"))
    kept = int(np.searchsorted(deps, horizon, side="right"))
    # gens[i + 1] >= deps[i], so only the last accepted update can end past
    # the horizon, where its busy time is cut
    busy = np.subtract(deps[:accepted], gens[:accepted])
    if accepted > kept:
        busy[-1] = horizon - gens[accepted - 1]
    n_blocked = int(arrival_rng.poisson(lam * float(busy.sum())))
    if trace is not None:
        blocked = _busy_uniform(arrival_rng, gens[:accepted], busy, n_blocked)
        trace.append((
            np.concatenate((gens[:accepted], blocked, deps[:kept])),
            np.repeat(np.int8([_ARRIVAL, _BLOCKED, _DELIVERY]), (accepted, n_blocked, kept)),
            np.full(accepted + n_blocked + kept, sensor, dtype=np.int8),
            np.concatenate((gens[:accepted], blocked, gens[:kept])),
        ))
    return deps[:kept], gens[:kept], accepted + n_blocked


def _busy_uniform(rng, starts, busy, count):
    """``count`` sorted instants uniform over the busy intervals
    ``[starts[i], starts[i] + busy[i])``."""
    ends = np.cumsum(busy)
    offsets = np.sort(rng.random(count)) * ends[-1] if count else np.empty(0)
    index = np.searchsorted(ends, offsets, side="right")
    begins = np.concatenate(((0.0,), ends[:-1]))
    return starts[index] + (offsets - begins[index])


def _preemptive_pair(lam, mu, horizon, arrival_rng, service_rng, trace):
    """One source feeding two preemptive servers, on arrays (see the module
    docstring): ``busy[m]`` iff update m-1 is in service at arrival m."""
    def fill(out):
        arrival_rng.standard_exponential(out=out)
        out *= 1.0 / lam

    arrivals = _running_sum(fill, _DRAW_BLOCK, horizon, lam * horizon)
    n = int(np.searchsorted(arrivals, horizon, side="right"))
    a = arrivals[:n]
    d = service_rng.standard_exponential(n)
    d *= 1.0 / mu
    d += a
    busy = np.zeros(n + 2, dtype=bool)
    np.greater(d[:-1], a[1:], out=busy[1:n])
    kept = np.flatnonzero(_kept_mask(a, d, busy, horizon))
    if trace is not None:
        kept = kept[np.argsort(d[kept], kind="stable")]
        trace.append(_pair_rows(a, d, busy, kept))
        return d[kept], a[kept], n
    # drops busy and d before the sort, and each array it reorders once replaced
    del busy
    deps = d[kept]
    del d
    order = np.argsort(deps, kind="stable")
    deps = deps[order]
    kept = kept[order]
    del order
    return deps, a[kept], n


def _kept_mask(a, d, busy, horizon):
    """Whether each update of the pair is delivered: update k is delivered
    iff ``d[k] <= limit[k + 2]``, where ``limit[j]`` is the instant of the
    first busy arrival at or after j, or the horizon if there is none.

    From 0 at a busy arrival and the horizon elsewhere, the max with a gives
    a and the horizon, as 0 <= a <= horizon, without a branch on random data.
    The limit is built backwards chunk by chunk in scratch, the minimum of
    the later chunks carried over as a scalar; fmin is minimum on this
    NaN-free input, without NaN tests."""
    n = a.size
    mask = np.empty(n, dtype=bool)
    scratch = np.empty(min(_CHUNK, n))
    carry = horizon
    for hi in range(n, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        limit = scratch[:hi - lo]
        np.logical_not(busy[lo + 2:hi + 2], out=limit)
        limit *= horizon
        later = a[lo + 2:hi + 2]
        np.maximum(limit[:later.size], later, out=limit[:later.size])
        np.fmin.accumulate(limit[::-1], out=limit[::-1])
        np.fmin(limit, carry, out=limit)
        carry = limit[0]
        np.less_equal(d[lo:hi], limit, out=mask[lo:hi])
    return mask


def _running_sum(fill, width, horizon, expected):
    """Running sum of blocks of ``width`` steps, each written in place by
    ``fill(block)``, cumsummed and carried on from the last sum of the block
    before, up to the first block whose last sum passes ``horizon``.

    The blocks go into one buffer sized for ``expected`` steps plus two
    blocks, which doubles only if the sum runs past it."""
    out = np.empty(width * (int(expected // width) + 2))
    end = 0
    base = 0.0
    while base <= horizon:
        if end == out.size:
            grown = np.empty(2 * out.size)
            grown[:end] = out
            out = grown
        block = out[end:end + width]
        fill(block)
        np.cumsum(block, out=block)
        block += base
        base = float(block[-1])
        end += width
    return out[:end]


def _pair_rows(a, d, busy, kept):
    """Trace columns of the preemptive pair: kept deliveries, then arrivals.

    Only a busy arrival J preempts, and it keeps update J-1 in service; an
    update before a non-busy arrival has left by then. So the one update
    older than m-1 that can be in service at arrival m is J-1, for the last
    busy arrival J before m, and it is iff ``d[J-1] > a[m]``. An arrival
    takes the other server than update m-1 if that one is busy, the same
    server if only an older update is in service, and server 1 if both are
    idle."""
    n = a.size
    index = np.arange(n, dtype=np.int32)
    busy = busy[:n]
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


def _windowed_average(dep_lists, gen_lists, config: SimConfig) -> float:
    if len(dep_lists) == 1:  # one channel delivers in time order already
        (deps,), (gens,) = dep_lists, gen_lists
    else:
        deps = np.concatenate(dep_lists)
        gens = np.concatenate(gen_lists)
        # drops these references to the channels' arrays (the deliveries are
        # views of them) before the sort and the integration
        dep_lists.clear()
        gen_lists.clear()
        order = np.argsort(deps, kind="stable")
        deps = deps[order]
        gens = gens[order]
        del order
    t0 = config.warmup * config.horizon
    # monitor age is zero at time zero, hence equals t0 at the window start
    return time_average_age(deps, gens, (t0, config.horizon), initial_age=t0)


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
