"""Host-speed probe for timings on a shared, noisy host.

On a host whose cores are shared with other tenants, the same Python
work can take 1.5x longer for minutes at a time. A run-level median
cannot remove that: the whole run sits in one slow phase. So every timed
step (one graph's set-up or solve) is bracketed by a short fixed probe
(interpreter-bound dict and integer work plus small NumPy operations,
the mix the program itself runs), and the benchmark reports

    reference seconds = wall seconds x REFERENCE_S / probe seconds,

with the probe time taken as the mean of the probes just before and
just after the step. A change that makes the program faster lowers its
wall time and leaves the probe alone, so it shows in full; a slow phase
of the host stretches both and cancels out. The raw wall times are
printed beside the reference times.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe duration that defines one reference second. It is the probe's
#: median on a 2-vCPU x86-64 cloud VM with Python 3.11 and NumPy, so
#: reference seconds there read close to wall seconds.
REFERENCE_S = 0.1


def probe() -> float:
    """Run the fixed probe once and return its wall seconds."""
    started = time.perf_counter()
    table = {}
    acc = 0
    for i in range(250_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += i % 7
    arr = np.arange(2000, dtype=np.float64)
    for _ in range(5000):
        arr = np.sqrt(arr + 1.0)[::-1].copy()
    return time.perf_counter() - started
