"""How fast this machine runs right now, from a fixed reference kernel.

On a shared virtual machine the same code runs up to ~40% slower for
seconds at a time, in phases longer than a benchmark run, so run-to-run
medians of raw wall time drift apart by 10-25%.  The kernel below is timed
next to every measured interval. Each time is then rescaled to the nominal
speed, at which the kernel takes NOMINAL_S:

    normalised = measured * NOMINAL_S / kernel time

The kernel is benchmark code that no change to the package can touch.  It
mixes the kinds of work the package does: many small calls into numpy's C
code that build objects (as the per-cell simulator does), a numpy ufunc over
an array, and float-to-text formatting.  Of the kernels tried, it tracked the
pass times of `experiment`, `roundtrip` and `export` most closely.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.01
_X = np.linspace(0.0, 1.0, 20000)


def reference_s() -> float:
    """Wall time of one run of the reference kernel (7-10 ms on a 2.1 GHz Xeon VM)."""
    start = time.perf_counter()
    for key in range(200):
        np.random.Generator(np.random.Philox(key=key)).poisson(50.0)
    np.exp(-3.0 * _X).sum()
    ",".join(f"{v:.17g}" for v in _X[:2000])
    return time.perf_counter() - start


def normalised(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` at nominal speed, from the kernel timed just before and just after."""
    return seconds * NOMINAL_S / (0.5 * (kernel_before + kernel_after))
