"""Calibrated clock.

The benchmark's machine changes speed by up to 2x within a minute, in
phases of 5-20 s, without any waiting visible to the process.  A fixed probe
(never importing folsing) is timed right before and after each measured
interval, and the interval is rescaled by how much slower than nominal the
probe ran.  A calibrated second is therefore "the time this work would take
on the machine at its nominal speed".
"""

import statistics
import time
from fractions import Fraction

KERNEL_ITERATIONS = 700
# Nominal kernel time: the median on a 2-core x86-64 container with
# CPython 3.11 in its fast phase.  Only the ratio matters for comparisons
# between commits; this constant only keeps calibrated seconds close to
# wall seconds on that machine.
KERNEL_NOMINAL_S = 0.0050


def kernel(n=KERNEL_ITERATIONS):
    """Fixed exact-arithmetic work whose operand sizes do not grow."""
    total = 0
    for i in range(n):
        a = Fraction(i % 7 + 1, i % 5 + 2)
        b = a * a + Fraction(1, i % 3 + 2)
        total += b.numerator
    return total


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


FLOAT_KERNEL_ITERATIONS = 20000
FLOAT_KERNEL_NOMINAL_S = 0.0037


def float_kernel(n=FLOAT_KERNEL_ITERATIONS):
    """Fixed complex floating-point work, for floating-point jobs."""
    z, c = 0.1 + 0.05j, 0.2 + 0.1j
    for _ in range(n):
        z = z * z * 0.5 + c
    return z


def time_float_kernel():
    t0 = time.perf_counter()
    float_kernel()
    return time.perf_counter() - t0


class CalibratedClock:
    """Times intervals and rescales each by the probe's current slow-down.

    The probe is a fixed piece of work timed right before and after each
    interval: the ``Fraction`` kernel for work inside this process, or a
    fixed child process for work done in child processes.  A probe run
    after one interval serves as the "before" probe of the next.
    """

    def __init__(self, probe=time_kernel, nominal_s=KERNEL_NOMINAL_S):
        self.probe = probe
        self.nominal_s = nominal_s
        self.probe_samples = []
        self._last = None

    def measure(self, fn):
        """Run ``fn()``; return (result, raw seconds, calibrated seconds)."""
        before = self.probe() if self._last is None else self._last
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self._last = self.probe()
        self.probe_samples.append(after)
        slowdown = (before + after) / 2 / self.nominal_s
        return result, raw, raw / slowdown

    def probe_median_s(self):
        return statistics.median(self.probe_samples)
