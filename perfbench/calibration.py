"""Speed calibration for the benchmark's timings.

The speed of a shared host drifts by 20 % and more over tens of seconds,
which would swamp the changes the benchmark exists to show.  Each timed
piece of work is therefore bracketed by a fixed kernel that runs no
finslerlab code, and its time is reported at a reference speed:
raw time * REFERENCE_KERNEL_S / kernel time measured around it.
"""

import time

import numpy as np

REFERENCE_KERNEL_S = 1e-3
_GRID = np.linspace(0.1, 1.0, 25).reshape(5, 5)
_LINE = np.linspace(0.0, 1.0, 4096)


def kernel_seconds() -> float:
    """Time of a fixed piece of CPU work shaped like the program's: a Python
    loop over numpy scalars (a 5 x 5 truncated product) and a vector pass."""
    start = time.perf_counter()
    x, y = _GRID, _GRID[::-1].copy()
    for _ in range(12):
        out = np.zeros((5, 5))
        for a in range(5):
            for b in range(5 - a):
                acc = 0.0
                for i in range(a + 1):
                    for j in range(b + 1):
                        acc += x[i, j] * y[a - i, b - j]
                out[a, b] = acc
        x = out / (1.0 + out.max())
        y = np.exp(-_LINE * x[0, 0]).reshape(64, 64)[:5, :5]
    return time.perf_counter() - start


def calibrated(fn) -> tuple[float, float]:
    """(raw seconds of fn(), scale to the reference speed)."""
    before = kernel_seconds()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    after = kernel_seconds()
    return elapsed, 2 * REFERENCE_KERNEL_S / (before + after)
