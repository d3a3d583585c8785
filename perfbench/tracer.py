"""Spans recorded from outside the package, around calls into its layers.

A :class:`Tracer` replaces public functions of ``aoi_shs`` with wrappers on
the module where each name is looked up at call time, records one span per
call (name, start, end, parent, and the id shared by every span of one CLI
command or API call), keeps the spans in memory, and restores the original
functions on :meth:`Tracer.uninstall`. Nothing in ``aoi_shs`` is edited.

A wrapper may run an ``after`` hook that counts something from the call's
arguments and result. The hook runs after the span has closed, and its time
is added to the ``excluded`` field of every span still open, so counting
never shows up as time of the layer it sits inside.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

# Span record fields, kept as a flat list for low overhead.
ID, PARENT, TRACE, NAME, START, END, EXCLUDED = range(7)


def _patch_points(cli, two_sensor, shs_core, des_sim):
    """(span name, module to patch, attribute) for every traced function.

    ``two_sensor`` imports the solver functions into its own namespace, so
    they are patched there as well as on ``shs_core``; ``cli`` reaches
    ``two_sensor`` and ``des_sim`` functions by attribute, and
    ``des_sim._windowed_average`` calls the module-global
    ``time_average_age``.
    """
    points = [("cli.main", cli, "main"), ("cli.build_parser", cli, "build_parser")]
    for name in ("average_aoi_general", "build_two_sensor_chain",
                 "stationary_closed_form", "average_aoi_equal_service",
                 "average_aoi_symmetric", "zero_wait_limit"):
        points.append((f"two_sensor.{name}", two_sensor, name))
    for name in ("build_model", "solve_stationary", "solve_correlation", "average_age"):
        points.append((f"shs_core.{name}", shs_core, name))
        points.append((f"shs_core.{name}", two_sensor, name))
    for name in ("simulate_two_sensor", "simulate_mm11", "simulate_mm2_preemptive",
                 "time_average_age"):
        points.append((f"des_sim.{name}", des_sim, name))
    return points


class Tracer:
    """In-memory span recorder; install, run the work, uninstall, analyse."""

    def __init__(self, after_hooks=None):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._after = dict(after_hooks or {})
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def install(self, cli, two_sensor, shs_core, des_sim) -> None:
        wrappers = {}
        for name, module, attr in _patch_points(cli, two_sensor, shs_core, des_sim):
            original = getattr(module, attr)
            # one wrapper per function object, shared by every namespace
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def count(self, trace_id: int, key: str, amount: int) -> None:
        bucket = self.counts.setdefault(trace_id, {})
        bucket[key] = bucket.get(key, 0) + int(amount)

    def _wrap(self, name, fn):
        tracer = self
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            if stack:
                parent, trace = stack[-1][ID], stack[-1][TRACE]
            else:
                parent, trace = None, sid
            span = [sid, parent, trace, name, 0, 0, 0]
            stack.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                c0 = perf_counter_ns()
                after(tracer, trace, args, kwargs, result)
                spent = perf_counter_ns() - c0
                for open_span in stack:
                    open_span[EXCLUDED] += spent
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "trace", "name", "start_ns",
                                 "end_ns", "excluded_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def net_ns(span) -> int:
    """Span duration with counting work excluded."""
    return span[END] - span[START] - span[EXCLUDED]


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its net duration minus its children's."""
    own = {s[ID]: net_ns(s) for s in spans}
    for s in spans:
        if s[PARENT] is not None and s[PARENT] in own:
            own[s[PARENT]] -= net_ns(s)
    return own
