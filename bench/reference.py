"""The benchmark's measure of how fast the machine is running at a moment.

On a shared host the same code runs at different speeds as other tenants'
load comes and goes, and the host's clock speed moves with it.
`reference_s` times a fixed piece of pure-Python arithmetic that shares no
code with the library, so no change to the library can move it.  The harness
times it next to every item and scales each item's time by NOMINAL_S over
the reference time around it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# What the reference work takes on an idle core of the machine the benchmark
# was built on (2-core Intel Xeon VM, Python 3.11.7): its fastest time there
# ranged over 0.11-0.15 ms, its median over 0.14-0.29 ms.  Scaled times are
# therefore close to what an item takes on that machine when uncontended.
NOMINAL_S = 1.4e-4


def reference_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7)
    return total


def reference_s() -> float:
    """Seconds one run of the reference work takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
