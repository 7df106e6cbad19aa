"""Host speed correction for the benchmark's timings.

On a shared 2-vCPU Xeon VM at 2.1 GHz the speed of a vCPU drifts with the
load of other tenants: the median time of a fixed plasmakit call moved with
a coefficient of variation of 8-13% between 3-second windows, and one
workload's throughput fell by 30% between runs 45 minutes apart, while CPU
time tracked wall time.  So the benchmark times a fixed reference workload
in its own process, interleaved with the calls it measures, and scales each
call's time by REF_S / (the median reference time within WINDOW_S of the
call).  A reported time is then the time the call would take on a host
where the reference's median is REF_S.

The drift slows cache-resident and memory-bound work by different amounts,
so the reference has a part of each, weighted by MEMORY_WEIGHT.  On five
repeated runs of one seed, the spread (IQR/median) of a workload's summed
call time was 0.12-0.20 unscaled and 0.03-0.08 scaled.

The reference never touches plasmakit and runs with the garbage collector
off, so a change to plasmakit cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Median weighted reference time on the 2-vCPU Xeon VM the bounds were set on.
REF_S = 0.007
# Reference samples within this many seconds of a call describe its host speed.
WINDOW_S = 1.5
# Weight of the memory-bound part of the reference against its cache-resident
# part.  The cache-resident part alone tracked probe_sweep best and the two
# parts at equal weight tracked characterize_shots best; on five repeated
# runs of each workload this weight kept every workload's spread lowest.
MEMORY_WEIGHT = 1 / 3


@dataclass(frozen=True)
class _Row:
    t: float
    v: float
    i: float


_X = np.linspace(1.0, 2.0, 2000)
_ARRAY = np.random.default_rng(0).random(200_000)
_VALUES = _ARRAY.tolist()


def _cached() -> float:
    # The mix plasmakit runs: small objects, float formatting and parsing,
    # complex arithmetic, string joins and a small least-squares fit, which
    # stay in the CPU's caches.
    rows = [_Row(k * 0.5, float(f"{k * 1.25:.6g}"), k / 7.0) for k in range(1500)]
    acc = 0j
    for r in rows:
        acc += complex(r.v, r.i) / (1.0 + 1j * r.t)
    text = ",".join(repr(r.v) for r in rows)
    coef = np.linalg.lstsq(np.vander(np.log(_X), 4), np.sin(_X), rcond=None)[0]
    return abs(acc) + len(text) + float(coef[0])


def _memory() -> float:
    # A walk over a list and an array of several MB, which do not.
    total = 0.0
    for x in _VALUES[::4]:
        total += x * 1.5
    return total + float(np.sum(np.log(np.sort(_ARRAY) + 1.0)))


def reference() -> tuple[float, float]:
    """Wall seconds of one pass of each part of the fixed reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _cached()
        t1 = perf_counter()
        _memory()
        return t1 - t0, perf_counter() - t1
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Reference timings of one run, by the time they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.parts: list[tuple[float, float]] = []
        self.last = perf_counter()

    def sample(self, count: int) -> None:
        """Time `count` passes of the reference work."""
        for _ in range(count):
            start = perf_counter()
            parts = reference()
            self.at.append(start)
            self.took.append(parts[0] + MEMORY_WEIGHT * parts[1])
            self.parts.append(parts)
            self.last = perf_counter()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median reference time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REF_S / statistics.median(self.took[lo:hi] or self.took)

    def median(self) -> float:
        return statistics.median(self.took)
