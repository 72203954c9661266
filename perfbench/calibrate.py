"""Speed probe: a fixed piece of pure-Python work owned by the benchmark.

The machines the benchmark runs on share cores with other tenants, and the
speed one interpreter gets swings by up to 2x within seconds, in steps.  The
probe, timed right next to the solves, tells how fast the machine ran at
that moment.  Multiplying a wall time by ``NOMINAL_PROBE_S / probe()`` gives
the time the same work takes at the nominal speed, the speed at which the
probe takes ``NOMINAL_PROBE_S``.  The probe uses no code of the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time

# the probe's time on an idle 2.0 GHz Intel Xeon vCPU with CPython 3.11
NOMINAL_PROBE_S = 0.0005


def _work() -> int:
    acc: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i
    return len({(k[0] + v) % 1013 for k, v in acc.items()})


def probe() -> float:
    """Seconds the fixed work takes now; best of three skips interrupts."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best
