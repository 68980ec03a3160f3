"""Machine-speed calibration.

The host this benchmark was tuned on is shared: for minutes at a time the
same code runs up to 30% slower or faster, and code that is interpreter
bound drifts differently from code that is BLAS bound.  Each trial
therefore also times three fixed kernels that use no blocknewton code:
an interpreter loop, small-array numpy updates like a Jacobi rotation,
and a BLAS matrix product, just before and just after its timed call.
`speed_index` takes the median of each kernel's samples, compares it with
the kernel's reference time (measured on a 2-vCPU Intel Xeon at 2.1 GHz,
numpy 2.4 with OpenBLAS 0.3.31 on one thread) and returns the geometric
mean of the three ratios; above 1 means the machine ran faster than the
reference.  The trial's times are multiplied by its index to express
them at reference speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


def _interpreter() -> None:
    total = 0
    for i in range(1_200_000):
        total += i * i % 7


def _small_arrays(d=np.eye(16) + 0.01) -> None:
    for i in range(15_000):
        p, r = i % 15, i % 15 + 1
        rot_p = 0.8 * d[:, p] - 0.6 * d[:, r]
        rot_r = 0.6 * d[:, p] + 0.8 * d[:, r]
        d[:, p], d[:, r] = rot_p, rot_r


def _gemm(a=np.random.default_rng(0).standard_normal((256, 256))) -> None:
    for _ in range(150):
        a @ a


# kernel -> its median time in seconds on the reference host
KERNELS = {
    "interpreter": (_interpreter, 0.105),
    "small_arrays": (_small_arrays, 0.105),
    "gemm": (_gemm, 0.090),
}


def kernel_times() -> dict[str, float]:
    """Time each kernel once."""
    times = {}
    for name, (kernel, _) in KERNELS.items():
        start = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - start
    return times


def speed_index(samples: list[dict[str, float]]) -> float:
    """Geometric mean over the kernels of reference time / median of the
    kernel's sampled times."""
    logs = [
        math.log(reference / statistics.median(s[name] for s in samples))
        for name, (_, reference) in KERNELS.items()
    ]
    return math.exp(sum(logs) / len(logs))
