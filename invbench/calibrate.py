"""A fixed pure-Python workload that gauges the speed of a shared machine.

The machine the benchmark was defined on runs the same code at speeds about
1.4x apart for minutes at a time, depending on its other tenants.  This
workload shares no code with invdist but, like it, builds a dict of tuples
and Fractions tens of MB in size, so its run time rises and falls with the
workload's.  Run as a script it prints its own run time in seconds; running
it in its own process keeps it out of the workload process's peak memory.
"""

import subprocess
import sys
import time
from fractions import Fraction

# Median run time on the machine the benchmark was defined on (Intel Xeon,
# 2 vCPUs, Python 3.11.7) in its fast phase.  A time divided by the median
# calibration time of the same run and multiplied by this reads as seconds
# on that machine in that phase.
REFERENCE_S = 0.33


def run() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(120000):
        table[(i, i * 7 % 1013, i % 17)] = Fraction(i % 89 + 1, i % 13 + 1)
    total = Fraction(0)
    for key in sorted(table, key=lambda k: (k[1], k[2]))[::7]:
        total += table[key]
    return time.perf_counter() - start


def measure() -> float:
    """run() in a fresh process, timed inside it."""
    proc = subprocess.run([sys.executable, __file__], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


if __name__ == "__main__":
    print(run())
