"""Host reference kernel: normalizes timings to a nominal host speed.

The host this benchmark runs on changes speed by tens of percent over a few
seconds, so every end-to-end timing is bracketed, immediately before and
after, by a burst of a fixed reference kernel, and reported as

    normalized = raw * REF_NOMINAL_MS / mean(ref_before, ref_after).

The kernel mixes a scalar-Python float loop and scalar numpy ufunc calls
(the per-cell solve) with whole-array numpy work on an 8192 x 13 table (the
exact-marginalization oracle).  Scalar work alone speeds up and slows down
more than the program does when the host changes speed: interleaved with
per-cell solves in 2 s windows, the spread of solve time over kernel time was
8 % against the scalar kernel and under 6 % once the array part was added.
A burst lasts about 0.3 s so it averages over the same fast noise as the
timed call.  The kernel code,
UNITS_PER_BURST and REF_NOMINAL_MS are frozen: changing any of them changes
every normalized figure and breaks comparison with earlier runs.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

# Mean ms per kernel unit on the host the benchmark was defined on (2-vCPU
# KVM guest, Intel Xeon family 6 model 207, CPython 3.11, numpy 2.4).
REF_NOMINAL_MS = 1.78

UNITS_PER_BURST = 160

_TABLE = np.linspace(-1.0, 1.0, 8192 * 13).reshape(8192, 13)
_COLUMNS = np.arange(12)


def _unit() -> float:
    energy = (_TABLE[:, _COLUMNS] * _TABLE[:, _COLUMNS + 1]).sum(axis=1)
    top = energy.max()
    acc = float(top + math.log(np.exp(energy - top).sum()))
    x = 0.5
    for _ in range(1000):
        x = x * 1.000001 + 0.25
        if x > 2.0:
            x -= 1.5
        acc += x * x - math.sqrt(x)
    for _ in range(100):
        acc += float(np.logaddexp(0.0, x)) - float(np.exp(-x))
        x = 0.5 + 0.5 * math.fmod(x, 1.0)
    return acc


def burst(cpus=None) -> float:
    """Run one burst of the kernel; return its mean ms per unit.

    Given cpus, the burst is split evenly over them, each share pinned to
    its CPU, and the process is left allowed on all of them again.
    """
    if not cpus:
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_BURST):
            _unit()
        return (time.perf_counter() - t0) * 1000.0 / UNITS_PER_BURST
    share = UNITS_PER_BURST // len(cpus)
    elapsed = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        for _ in range(share):
            _unit()
        elapsed += time.perf_counter() - t0
    os.sched_setaffinity(0, cpus)
    return elapsed * 1000.0 / (share * len(cpus))


def pinnable_cpus():
    """CPUs this process may run on, or None where affinity is not supported."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return None


class HostClock:
    """Reference bursts between timed calls.

    The vCPUs of a small guest change speed independently, so the bursts run
    on the CPUs the process (and every child it starts) is pinned to.  A
    burst closes each call and opens the next, so calls must follow each
    other without other work in between.
    """

    def __init__(self):
        self.cpus = pinnable_cpus()
        self.refs = [burst(self.cpus)]

    def close(self) -> float:
        """Burst that ends the interval since the last one; return its factor."""
        before = self.refs[-1]
        self.refs.append(burst(self.cpus))
        return REF_NOMINAL_MS / ((before + self.refs[-1]) / 2.0)

    def call(self, fn, *args):
        """Return (result, raw seconds, normalized seconds) of fn(*args)."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        return result, raw, raw * self.close()
