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

Reproducibility contract: every random quantity comes from a PCG64 generator
seeded with ``SeedSequence(seed, spawn_key=(trial, stream))``. Channel k
draws its arrival process from stream 2k and its service process from stream
2k+1. Results are therefore bit-identical across runs on one platform, and
each trial's value is independent of how many trials run alongside it.
Simultaneous events have probability zero; for determinism, due departures
are processed before an arrival carrying the same timestamp, lower-indexed
server first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .two_sensor import TwoSensorParams, _require_positive

DEFAULT_SEED = 12345

#: Exponential variates drawn per generator refill.
_DRAW_BLOCK = 1 << 14

#: A run is rejected when horizon times the summed rates exceeds this cap.
MAX_EXPECTED_EVENTS = 5e8

_INF = math.inf

_TRACE_HEADER = "time,kind,sensor,generation_time,post_event_age"


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: horizon, replications, seed, warmup fraction."""

    horizon: float = 2e5
    num_trials: int = 10
    seed: int = DEFAULT_SEED
    warmup: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials!r}")
        if not 0 <= self.warmup < 1:
            raise ValueError(f"warmup must lie in [0, 1), got {self.warmup!r}")
        if not 0 <= int(self.seed) < 2**64:
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

    ``times`` are delivery instants sorted ascending, ``gens`` the matching
    generation timestamps. Deliveries at or before ``t0`` only precondition
    the filter state; deliveries past ``t1`` are ignored. ``initial_age`` is
    the monitor age that would hold at ``t0`` had no listed delivery occurred.
    Stale deliveries contribute nothing, matching the monitor discipline.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError(f"window must satisfy t1 > t0, got ({t0}, {t1})")
    if initial_age < 0:
        raise ValueError(f"initial_age must be nonnegative, got {initial_age!r}")
    times = np.asarray(times, dtype=float)
    gens = np.asarray(gens, dtype=float)
    if times.shape != gens.shape or times.ndim != 1:
        raise ValueError("times and gens must be 1-d arrays of equal length")
    if times.size:
        if np.any(np.diff(times) < 0):
            raise ValueError("delivery times must be sorted ascending")
        if np.any(gens > times):
            raise ValueError("an update cannot be delivered before it is generated")

    floor = t0 - initial_age
    pre = times <= t0
    if pre.any():
        floor = max(floor, float(gens[pre].max()))
    inside = (times > t0) & (times < t1)
    # Running maximum of generation times reproduces the staleness filter.
    held = np.maximum.accumulate(np.concatenate(((floor,), gens[inside])))
    bounds = np.concatenate(((t0,), times[inside], (t1,)))
    left, right = bounds[:-1], bounds[1:]
    integral = float(np.sum((right - left) * (0.5 * (left + right) - held)))
    return integral / (t1 - t0)


def simulate_two_sensor(
    params: TwoSensorParams, config: SimConfig, trace_dir=None
) -> SimResult:
    """Simulate the two-sensor blocking system and average the monitor age.

    Each sensor scans its full Poisson arrival stream; arrivals finding the
    channel busy are discarded, accepted ones hold the channel for an
    exponential service time and are delivered to the monitor at completion.
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
    lost). Service times are drawn at service start.
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
    2k+1. Events processed are arrivals plus deliveries.
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
        values.append(_windowed_average(dep_lists, gen_lists, config))
        if trace is not None:
            _write_trace(trace_dir, trial, trace)
    return _summarize(values, events)


def _arrival_times(rng: np.random.Generator, lam: float):
    """Poisson arrival instants, drawn lazily in blocks of ``_DRAW_BLOCK``."""

    def blocks():
        base = 0.0
        while True:
            block = rng.exponential(1.0 / lam, _DRAW_BLOCK)
            np.cumsum(block, out=block)
            block += base
            base = float(block[-1])
            yield block.tolist()

    return chain.from_iterable(blocks())


def _service_times(rng: np.random.Generator, mu: float):
    """Exponential service times, drawn lazily in blocks of ``_DRAW_BLOCK``."""
    scale = 1.0 / mu
    return chain.from_iterable(
        iter(lambda: rng.exponential(scale, _DRAW_BLOCK).tolist(), None)
    )


def _blocking_channel(lam, mu, horizon, sensor, arrival_rng, service_rng, trace):
    """Scan one channel's arrival stream; deliveries completing past the
    horizon are dropped."""
    services = _service_times(service_rng, mu)
    deps: list[float] = []
    gens: list[float] = []
    n_arrivals = 0
    free_at = 0.0
    for a in _arrival_times(arrival_rng, lam):
        if a > horizon:
            break
        n_arrivals += 1
        if a < free_at:
            if trace is not None:
                trace.append((a, "blocked", sensor, a))
            continue
        free_at = dep = a + next(services)
        if trace is not None:
            trace.append((a, "arrival", sensor, a))
        if dep <= horizon:
            deps.append(dep)
            gens.append(a)
    if trace is not None:
        trace.extend((d, "delivery", sensor, g) for d, g in zip(deps, gens))
    return deps, gens, n_arrivals


def _preemptive_pair(lam, mu, horizon, arrival_rng, service_rng, trace):
    """One source feeding two preemptive servers; delivery order is
    nondecreasing."""
    services = _service_times(service_rng, mu)
    deps: list[float] = []
    gens: list[float] = []
    n_arrivals = 0
    dep0 = dep1 = _INF
    gen0 = gen1 = 0.0
    for a in _arrival_times(arrival_rng, lam):
        # departures due up to this arrival, or up to the horizon once the
        # arrivals have passed it, happen first
        until = a if a <= horizon else horizon
        while True:
            if dep0 <= dep1:
                if dep0 > until:
                    break
                deps.append(dep0)
                gens.append(gen0)
                if trace is not None:
                    trace.append((dep0, "delivery", 1, gen0))
                dep0 = _INF
            else:
                if dep1 > until:
                    break
                deps.append(dep1)
                gens.append(gen1)
                if trace is not None:
                    trace.append((dep1, "delivery", 2, gen1))
                dep1 = _INF
        if a > horizon:
            return deps, gens, n_arrivals
        n_arrivals += 1
        service = next(services)
        if dep0 == _INF:
            kind, server = "arrival", 1
            gen0, dep0 = a, a + service
        elif dep1 == _INF:
            kind, server = "arrival", 2
            gen1, dep1 = a, a + service
        elif gen0 <= gen1:
            kind, server = "preempt", 1
            gen0, dep0 = a, a + service
        else:
            kind, server = "preempt", 2
            gen1, dep1 = a, a + service
        if trace is not None:
            trace.append((a, kind, server, a))


def _windowed_average(dep_lists, gen_lists, config: SimConfig) -> float:
    deps = np.concatenate([np.asarray(lst, dtype=float) for lst in dep_lists])
    gens = np.concatenate([np.asarray(lst, dtype=float) for lst in gen_lists])
    order = np.argsort(deps, kind="stable")
    t0 = config.warmup * config.horizon
    # monitor age is zero at time zero, hence equals t0 at the window start
    return time_average_age(
        deps[order], gens[order], (t0, config.horizon), initial_age=t0
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


def _write_trace(trace_dir, trial: int, events) -> None:
    """Dump one trial's event trace as CSV. The post-event monitor age is
    ``t`` minus the running maximum of delivered generation times, the
    filter rule :func:`time_average_age` integrates."""
    events.sort(key=lambda row: row[0])
    held = 0.0
    lines = [_TRACE_HEADER]
    for t, kind, sensor, gen in events:
        if kind == "delivery" and gen > held:
            held = gen
        lines.append(f"{t!r},{kind},{sensor},{gen!r},{t - held!r}")
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"trial_{trial:03d}.csv").write_text("\n".join(lines) + "\n")
