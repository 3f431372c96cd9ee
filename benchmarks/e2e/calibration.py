"""Machine-speed calibration for the e2e benchmark's timings.

The benchmark runs on shared machines whose speed drifts by 10-40% over
tens of seconds as other tenants load the same cores and caches.  A
fixed kernel that uses none of the program's code — slotted objects,
float arithmetic, dict updates, a JSON parse and small numpy ops, the
operation mix of the simulator, the store and the clustering — is timed
right beside every measured region, and each time is scaled by
``REFERENCE_S / kernel time``: seconds at the speed the machine had when
the kernel took :data:`REFERENCE_S`.  A change to the program cannot
move the kernel, so the scaling removes drift without hiding a change.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Kernel time that defines the reference speed (its typical time on an
#: unloaded Xeon core of the machine the reference numbers come from).
REFERENCE_S = 0.0048

#: Kernel runs per calibration; the fastest one counts.
REPEATS = 3

_DOC = json.dumps([
    {"id": i, "pos": [i * 0.5, i * 0.25, 1.0], "name": f"draw{i}",
     "flags": [True, False]}
    for i in range(600)
])
_ARRAY = np.arange(256, dtype=np.float64)


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x = x
        self.y = y
        self.z = z


def _kernel() -> float:
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(9000):
        point = _Point(i * 0.5, i * 0.25, 1.0)
        acc += point.x * point.y / (point.z + i)
        key = (i * 7919) % 509
        counts[key] = counts.get(key, 0) + 1
    for item in json.loads(_DOC):
        acc += item["pos"][0]
    for _ in range(90):
        acc += float((_ARRAY * 1.5 + 2.0).sum())
    return acc


def kernel_seconds() -> float:
    """Seconds of the fastest of :data:`REPEATS` kernel runs, now."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured beside a kernel run of ``kernel_s``, at the
    reference speed."""
    return seconds * REFERENCE_S / kernel_s
