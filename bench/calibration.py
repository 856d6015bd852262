"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed can change by a
factor of 1.6 within seconds as neighbours load the host. A fixed kernel
that does not touch gammakit (complex Horner loops, float ``repr``, a small
FFT and trigonometric sums on a 1024-point grid, the same mix of work as
the library) is timed before every operation. Each operation's time is
divided by the local speed factor, the kernel's time around that operation
over ``REF_S``, giving reference seconds: the time the operation would take
on a machine where the kernel takes ``REF_S``, about its time on a lightly
loaded 2-vCPU Intel Xeon VM. A change that makes gammakit x% faster lowers
these figures by x%, as it does wall time. On such a VM this cut the
run-to-run spread of the op timings from about 15% to about 4%.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

import numpy as np

REF_S = 5e-4

_COEFFS = [complex(0.3 * k - 1.0, 0.7 - 0.05 * k * k) for k in range(17)]
_POINTS = [cmath.exp(2j * math.pi * j / 96) for j in range(96)]
_ARRAY = np.array(_COEFFS)
_GRID = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)


def _kernel() -> None:
    total = 0j
    for z in _POINTS:
        acc = 0j
        for c in _COEFFS:
            acc = acc * z + c
        total += acc
    ",".join(repr(abs(z - total)) for z in _POINTS[:24])
    np.fft.ifft(np.fft.fft(_ARRAY, 128))
    sums = np.zeros(_GRID.shape)
    for k, c in enumerate(_COEFFS[:8], start=1):
        sums += 2.0 * (c * np.exp(1j * k * _GRID)).real


def kernel_seconds() -> float:
    """Time one run of the calibration kernel.

    A first, untimed run warms the caches the preceding operation evicted,
    so the timed run tracks the machine's speed rather than cache refills.
    """
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def reference_seconds(durations, kernel) -> list[float]:
    """Durations in reference seconds.

    ``kernel`` holds one kernel time before each operation and one after
    the last; operation i is scaled by the median of the four kernel times
    nearest to it, which damps a single disturbed kernel run.
    """
    if len(kernel) != len(durations) + 1:
        raise ValueError("need one kernel time before each operation and one after the last")
    out = []
    for i, elapsed in enumerate(durations):
        local = statistics.median(kernel[max(i - 1, 0) : i + 3])
        out.append(elapsed * REF_S / local)
    return out
