"""A fixed reference kernel that measures the host's current speed.

The benchmark's host shares its cores with other machines, and its speed
moves in phases of a few seconds by as much as 40 %. The benchmark therefore
expresses its gated timings in reference seconds as well: one reference
second is the time :data:`KERNELS_PER_REF_S` runs of the kernel take at that
moment, measured beside or during the timed operation. The kernel uses only
Python and numpy, never ``aoi_shs``, so a change to the package cannot move
it; it mixes the kinds of work the package does: a float loop with branches
and list appends (like the simulators' scan), small numpy arrays built,
checked, conditioned and solved (like the theory solver), and small frozen
dataclasses, dicts and tuples (like the package's records). Each kind slows
down by a different share when the host is busy, so the mix tracks the
package better than any one of them.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np

#: One reference second is the time of this many kernels (about 1 s here).
KERNELS_PER_REF_S = 350
#: Wall seconds between two kernel runs inside a :class:`Timed` block.
SAMPLE_INTERVAL_S = 0.1

_LOOP = 6_000
_ARRAYS = 12
_RECORDS = 600
_A = np.eye(9) * 2.0 + 0.1
_B = np.arange(1.0, 10.0)
_ROWS = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


@dataclass(frozen=True)
class _Record:
    index: int
    value: float
    pair: tuple


def _kernel() -> int:
    t = 0.0
    kept = []
    for i in range(_LOOP):
        t += (i % 7) * 0.5
        if t > 100.0:
            kept.append(t)
            t -= 100.0
    for k in range(_ARRAYS):
        a = np.array(_ROWS, dtype=float)
        valid = np.isin(a, (0.0, 1.0)).all() and not (a.sum(axis=0) > 1).any()
        z = np.zeros((9, 9))
        for j in range(8):
            z[j, j + 1] += 0.5 + k
            z[j, j] -= 0.5
        z[-1, :] = 1.0
        np.linalg.cond(z + _A)
        x = np.linalg.solve(z + _A, _B)
        kept.append(float(np.abs(_A @ x).max()) * valid)
    records = []
    for i in range(_RECORDS):
        record = _Record(i, i * 0.5, (i, i + 1))
        fields = {"index": record.index, "value": record.value}
        records.append((fields["index"], record.pair[1]))
    return len(kept) + len(records)


def kernel_s() -> float:
    """Wall seconds of one kernel run."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def ref_per_wall(kernel_times) -> float:
    """Reference seconds per wall second, from kernel times measured around
    or during the timed operation. The median keeps one kernel run that an
    interrupt stretched from moving the whole operation."""
    return 1.0 / (KERNELS_PER_REF_S * median(kernel_times))


class Timed:
    """Times a block in wall seconds and in reference seconds.

    One kernel runs just before the block and one just after it; while the
    block runs, a ``SIGALRM`` handler runs one more every
    :data:`SAMPLE_INTERVAL_S`, between two bytecodes of the main thread. The
    handler's time is taken out of :attr:`wall_s`, which is therefore the
    block's own time; :attr:`ref_s` divides it by the reference second that
    the median of all the kernel runs gives. Only the main thread may use it.
    """

    _active: "Timed | None" = None

    def __enter__(self) -> "Timed":
        self.kernels = [kernel_s()]
        self.paused = 0.0
        signal.signal(signal.SIGALRM, Timed._on_alarm)
        Timed._active = self
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    @staticmethod
    def _on_alarm(signum, frame) -> None:
        timed = Timed._active
        if timed is None:  # a signal that was already on its way at exit
            return
        t0 = perf_counter()
        timed.kernels.append(kernel_s())
        timed.paused += perf_counter() - t0

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = perf_counter() - self._t0 - self.paused
        Timed._active = None
        self.kernels.append(kernel_s())
        self.ref_s = self.wall_s * ref_per_wall(self.kernels)
        return False
