"""Machine-speed correction for shared hosts.

On a shared host the CPU runs at a speed that drifts with other tenants'
load, by up to about 1.6x over tens of seconds, so raw wall times of the
same code measured minutes apart disagree by far more than any bound
worth setting.  The benchmark therefore times a fixed kernel, which calls
nothing in umlogic, beside every timed interval, and rescales the
interval to the speed at which that kernel takes its reference time:

    reported = measured * reference / mean(kernel before, kernel after)

A change to umlogic moves the measured interval and not the kernel, so it
shows in full.  Raw wall times are printed on standard error beside every
result.

There are two kernels, because a slow phase slows interpreted Python and
numpy's memory-bound array loops by different factors: ``python`` (dict
and int operations) for set-up and for workloads whose time goes to the
interpreter, ``numpy`` (masking passes over 2 MiB arrays, like
``umlogic.validity``'s) for workloads whose time goes to numpy.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_WORDS = np.arange(1 << 18, dtype=np.uint64)
_TMP = np.empty_like(_WORDS)
_HITS = np.empty(len(_WORDS), dtype=bool)
_ACC = np.empty_like(_WORDS)


def _python_kernel() -> None:
    table: dict = {}
    acc = 0
    for i in range(2000):
        key = (i & 31, i >> 5)
        table[key] = table.get(key, 0) + i
        acc += i * i % 7


def _numpy_kernel() -> None:
    # Preallocated buffers: allocating here would time page faults that
    # depend on what the previous operation freed.
    _ACC[:] = 0
    for bit in range(2):
        ball = np.uint64(0x2D5 << bit)
        np.bitwise_and(_WORDS, ball, out=_TMP)
        np.equal(_TMP, ball, out=_HITS)
        np.left_shift(_HITS, np.uint64(bit), out=_TMP, casting="unsafe")
        np.bitwise_or(_ACC, _TMP, out=_ACC)


#: kind -> (kernel, its median time in ms on the reference machine, a
#: 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4, at full speed)
KERNELS = {"python": (_python_kernel, 0.5), "numpy": (_numpy_kernel, 1.5)}


class Pacer:
    """Rescales consecutive timed intervals by the kernel timed between them."""

    def __init__(self, kind: str = "python"):
        self.kernel, self.reference_ms = KERNELS[kind]
        self.last = self.kernel_ms()

    def kernel_ms(self) -> float:
        """Median of three timings of the kernel, in milliseconds."""
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            self.kernel()
            samples.append((time.perf_counter() - start) * 1000)
        return statistics.median(samples)

    def scale(self) -> float:
        """Factor for the interval that just ended: reference over the kernels around it."""
        before, self.last = self.last, self.kernel_ms()
        return self.reference_ms * 2 / (before + self.last)
