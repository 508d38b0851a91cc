"""The host-speed reference: a fixed pure-Python loop that uses no limitlab code.

On a shared machine the host's speed drifts by tens of percent within
minutes, and differs from core to core. Timing this loop next to the work
lets the benchmark scale its timings to a host of fixed speed.
"""

import time

# Timings are scaled to a host on which reference_ms() reads this many ms.
REFERENCE_MS = 4.0


def reference_ms() -> float:
    """Time one run of the loop, in ms."""
    start = time.perf_counter()
    seen, total = set(), 0
    for i in range(10_000):
        total += hash((i, i & 7)) & 15
        seen.add(i % 97)
    code = (1 << 2048) - 1
    while code:
        total += code & 1
        code >>= 1
    return (time.perf_counter() - start) * 1e3
