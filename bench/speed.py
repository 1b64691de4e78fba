"""Machine-speed reference that the benchmark's timings are scaled by.

On a machine whose cores are shared with other tenants, identical
pure-Python work can take anywhere from 0.6 to 1.0 of its best time,
drifting over seconds to minutes, and that swamps differences between two
versions of the program.  The benchmark therefore brackets each timed
round (and each set-up) by this fixed reference computation and reports
the time as if the reference had taken ``NOMINAL_S``: measured time times
``NOMINAL_S / reference time``.  The reference uses nothing from the
package, so no change to the program can alter it, and only integer
arithmetic, so it creates no objects the garbage collector tracks and
does not depend on how the program configures the collector.
"""

from __future__ import annotations

import math
import time

# The reference's median time over 30 s on the 2-vCPU Xeon virtual machine
# the benchmark was calibrated on (bench/README.md), with nothing else of
# ours running; any fixed value would do, as it only sets the unit.
NOMINAL_S = 0.027
_STEPS = 40000


def reference() -> int:
    """A fixed mix of big-integer products, remainders and gcds."""
    x = 0x9E3779B97F4A7C15
    acc = 0
    for i in range(_STEPS):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 127)
        acc ^= math.gcd(x, (i + 1) * 2654435761)
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
