"""Host-speed probe: scale host times to a nominal machine.

The benchmark shares its machine with other work whose load drifts over
seconds to minutes, and that drift moves every host time by tens of
percent.  The probe is a fixed piece of work that does not use the program: heap
and dict operations like the simulator's event loops, and NumPy array
passes like its batched executors.  Measurement children run it
every :data:`INTERVAL_S` of workload time; each cell's host time is divided
by the *speed factor* of the probes around it (probe time over
:data:`NOMINAL_S`), so the reported figures are seconds on a machine
where the probe takes :data:`NOMINAL_S`.  The raw figures are reported
beside them.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

import numpy as np

#: Probe time on an unloaded core of the 2-vCPU Intel Xeon container the
#: benchmark was tuned on; a factor of 1.0 means "as fast as that core".
NOMINAL_S = 0.0125
#: Workload seconds between probes.
INTERVAL_S = 0.25

_VALUES = np.linspace(0.0, 1.0, 8_000)
_SUMS = np.empty_like(_VALUES)
_ACC = np.empty_like(_VALUES)


def probe() -> float:
    """Seconds the fixed probe work takes right now.

    The work allocates nothing that outlives a step and nothing from the
    operating system, so its time does not depend on the program's heap.
    The cyclic collector is off while it runs, so that a collection of the
    program's objects is not charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _probe_work()
    finally:
        if enabled:
            gc.enable()


def _probe_work() -> float:
    start = perf_counter()
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    x = 0.5
    for i in range(8_000):
        x = (x * 3.9) % 1.0
        heapq.heappush(heap, (x, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if len(heap) > 32:
            heapq.heappop(heap)
    _ACC[:] = _VALUES
    for _ in range(100):
        np.cumsum(_VALUES, out=_SUMS)
        np.multiply(_ACC, 0.5, out=_ACC)
        np.maximum(_ACC, _SUMS, out=_ACC)
    return perf_counter() - start


class SpeedTrack:
    """Probes taken between cells; maps a cell to its speed factor.

    A cell that starts after probe ``i`` was measured between probes ``i``
    and ``i + 1``; its factor is the median time of probes ``i - 1`` to
    ``i + 2`` over :data:`NOMINAL_S`, so one disturbed probe does not move
    it.  A disabled track never probes and gives every cell a factor of 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.times: list[float] = []
        self._last = 0.0

    def take(self) -> None:
        if self.enabled:
            self.times.append(probe())
            self._last = perf_counter()

    def due(self) -> None:
        """Probe if :data:`INTERVAL_S` of work has passed since the last."""
        if self.enabled and perf_counter() - self._last >= INTERVAL_S:
            self.take()

    @property
    def index(self) -> int:
        return len(self.times) - 1

    def factor(self, index: int) -> float:
        if not self.enabled:
            return 1.0
        around = self.times[max(0, index - 1):index + 3]
        return statistics.median(around) / NOMINAL_S
