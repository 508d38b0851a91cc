"""Time one fresh process's set-up: import limitlab, build the first job's world.

    python3 bench/setup_probe.py <workload> <seed> <cpu>

Pins itself to the given CPU, then prints the seconds taken, measured from
before the first import, and the host reference loop's time in ms, taken
right after on the same CPU.
"""

import os
import sys
import time

import hostspeed

os.sched_setaffinity(0, {int(sys.argv[3])})
start = time.perf_counter()

import workloads  # noqa: E402

workloads.build_world(workloads.make_jobs(sys.argv[1], int(sys.argv[2]))[0])
elapsed = time.perf_counter() - start
print(elapsed, hostspeed.reference_ms())
