"""Host-speed normalisation of measured times.

The shared 2-core host this benchmark was tuned on changes speed by up
to 1.7x within seconds (a fixed pure-Python loop measured 30 ms, then 50 ms a
few seconds later), and CPU time moves with wall time.  Raw wall times of
one fixed batch therefore spread by 20-34% between runs, more than any
bound worth having.  A short calibration kernel, timed right before and
right after each operation, tracks that drift.

Every reported time is wall time multiplied by REFERENCE_S divided by the
mean of the two kernel timings around it: the time the operation would
have taken with the host at its quiet speed, where the kernel takes
REFERENCE_S.  The drift is fast enough that a kernel timed only before
the operation does not track it: over 25 repeats of one dense solve
pair (about 1 s), the interquartile range over the median was 0.34 raw,
0.33 normalised by the median of the last three timings before it, and
0.10 normalised by the two timings around it.

The kernel is fixed benchmark code, but it runs in the process right
after the package's solves, so a change in the package's memory or
cache behaviour can still move it; run.py therefore prints the kernel
median and the raw wall-time percentiles next to the result.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

# The kernel's median time between solves when the host was quiet
# (2-core Intel Xeon, Python 3.11.7).
REFERENCE_S = 0.0031
GRAPH_SIZE = 3000
SEARCHES = 4


class HostSpeed:
    """Times the kernel on request and turns wall time into reference time."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._adj = [
            [rng.randrange(GRAPH_SIZE) for _ in range(3)] for _ in range(GRAPH_SIZE)
        ]
        self.samples: list[float] = []
        for _ in range(3):  # warm-up, not recorded
            self._kernel()

    def _kernel(self) -> float:
        """Seconds for breadth-first searches over a fixed random digraph:
        the set, deque and list work the solvers do."""
        adj = self._adj
        start = perf_counter()
        for root in range(SEARCHES):
            seen = {root}
            queue = deque([root])
            while queue:
                for y in adj[queue.popleft()]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
        return perf_counter() - start

    def sample(self) -> float:
        """Time the kernel once; returns and records its seconds."""
        seconds = self._kernel()
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def factor(before: float, after: float) -> float:
        """The multiplier from wall time to reference time for an operation
        timed between kernel samples `before` and `after`."""
        return 2.0 * REFERENCE_S / (before + after)
