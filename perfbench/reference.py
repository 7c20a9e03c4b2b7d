"""The reference loop by which every time is scaled.

Machine speed on a shared host changes by up to 1.7x within seconds.  Every
CHUNK_NS of operations, a fixed reference loop is timed, and each
operation's time is scaled to a machine on which that loop takes
REFERENCE_NS.  See README.md.  This module imports only the standard
library's ``math`` and ``time``, so a CLI child can time the loop without
adding to its start-up.
"""

import math
import time

clock = time.perf_counter_ns

REFERENCE_NS = 400_000
CHUNK_NS = 20_000_000


def reference_loop() -> float:
    """Fixed pure-Python float work, independent of conedet."""
    x = 0.0
    for i in range(1, 1201):
        x += math.log(i) * math.atan2(1.0, i) - math.sqrt(i) / (i + 0.5)
    return x


def reference_ns() -> int:
    """Median time of three runs of the reference loop."""
    times = []
    for _ in range(3):
        t0 = clock()
        reference_loop()
        times.append(clock() - t0)
    return sorted(times)[1]
