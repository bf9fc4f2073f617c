"""Drift-compensated timing.

On the 2-vCPU VM this benchmark was written on, the speed of the same code
drifts by 10-30% over tens of seconds, and process CPU time tracks wall
time, so neither longer runs nor CPU clocks make wall times repeat.  Every
timed block is therefore bracketed by a fixed reference unit, run
immediately before and after it, and its wall time is scaled by
``NOMINAL_REF_S / reference duration``: the compensated figure is seconds
at the reference speed.  The reference unit lives here and never in the
program under test.

The unit mixes an interpreted loop with NumPy gathering, sorting,
partitioning and prefix sums into preallocated buffers, because the
program's time is split the same way.  Measured over 100 s of a warm
session query, a one-shot SUBSIM query and a graph build, the ratio
between the slowest and the fastest 12-second window fell from 1.13,
1.19 and 1.10 raw to 1.07, 1.10 and 1.06 compensated by such a mix; a
purely interpreted unit drifts more than the program does and left 1.20,
1.12 and 1.10.  The NumPy part writes into buffers it allocates once:
fresh allocations made the unit's duration differ by up to 30% between
processes, with the allocator's state rather than the machine's speed.
One reading is noisy at the 10 ms scale, so every block of a run is
scaled by the median of all the run's readings: over five runs of
``session-churn`` that kept the spread of the compensated run_s at 3% and
of setup_s at 5%, against 6% and 14% when each block used the median of
the 18 readings around it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple

import numpy as np

#: interpreted-loop iterations of one reference unit
REF_ITERS = 26_000
#: array length of the unit's NumPy part
REF_ARRAY = 200_000
#: the reference unit's duration at the reference speed, in seconds: the
#: median of idle readings on the 2-vCPU VM the benchmark was calibrated on
NOMINAL_REF_S = 0.0090


@dataclass
class Sample:
    """One timed block: raw wall seconds and, after
    :meth:`RefClock.compensate`, seconds at the reference speed."""

    raw: float
    comp: float = 0.0


@dataclass
class RefClock:
    """Times blocks; keeps every reference reading for compensation."""

    refs: List[float] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    #: optional memory sampler, told when a timed block is running
    pss: Any = None

    def __post_init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._values = rng.random(REF_ARRAY)
        self._index = rng.integers(0, REF_ARRAY, REF_ARRAY)
        self._buffer = np.empty(REF_ARRAY)
        self._sums = np.empty(REF_ARRAY)

    def reference_unit(self) -> float:
        """Run the unit once; returns its wall duration."""
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(REF_ITERS):
            acc = (acc * 31 + i) & 0xFFFFF
            table[acc & 1023] = i
        np.take(self._values, self._index, out=self._buffer)
        self._buffer.sort()
        np.cumsum(self._buffer, out=self._sums)
        np.take(self._values, self._index, out=self._buffer)
        self._buffer.partition(100)
        return time.perf_counter() - t0

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, Sample]:
        before = self.reference_unit()
        if self.pss is not None:
            self.pss.active = True
        t0 = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - t0
        if self.pss is not None:
            self.pss.active = False
        after = self.reference_unit()
        if self.pss is not None:
            self.pss.sample()
        sample = Sample(raw)
        self.refs.extend((before, after))
        self.samples.append(sample)
        return value, sample

    def compensate(self) -> None:
        """Fill in every sample's reference and compensated seconds."""
        scale = NOMINAL_REF_S / self.ref_median()
        for sample in self.samples:
            sample.comp = sample.raw * scale

    def ref_median(self) -> float:
        return statistics.median(self.refs) if self.refs else NOMINAL_REF_S
