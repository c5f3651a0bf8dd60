"""A calibration kernel that tracks the speed the shared host gives this process.

Benchmark timings are reported in reference seconds: wall seconds times
``REFERENCE_S`` over the kernel's time measured next to them.  The host
is shared and its speed drifts by tens of percent within minutes; the
kernel drifts with it, so the ratio does not.  ``REFERENCE_S`` is the
kernel's typical time on the 2-core host the benchmark was defined on,
so there a reference second is about a wall second.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0025


def kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work (no program code).

    It exercises what the program's hot paths do (tuple keys, dict
    updates, float arithmetic, a sort), so its time tracks the speed the
    shared host currently gives this process.
    """
    start = time.perf_counter()
    table: dict = {}
    for i in range(6000):
        key = (i % 89, i % 7)
        table[key] = table.get(key, 0.0) + (i * 0.5) / (key[1] + 1.0)
    sorted(table.items(), key=lambda item: (item[1], item[0]))
    return time.perf_counter() - start


def speed_factor(samples: int = 7) -> float:
    """Median kernel time over ``REFERENCE_S``, after one warm-up run."""
    kernel()
    return statistics.median(kernel() for _ in range(samples)) / REFERENCE_S
