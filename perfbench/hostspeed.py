"""Host-speed probe: scale a solve's wall time to a reference host speed.

On a shared host the speed of a core drifts by 20% and more over tens of
seconds, as neighbours come and go.  That drift moves a run's median
solve time by more than the bound ``BENCHMARK.json`` puts on it, however
long the run.  So while a solve runs, a SIGALRM timer fires every
``INTERVAL_S`` and its handler times a fixed kernel: small numpy
mat-vecs, exp, cumsum and searchsorted driven from a Python loop, the
kind of work the solver does, but no maxmin code.  The probes sample the
host's slowness evenly in time, so their mean kernel time is the host's
mean slowness over the solve, and

    ref_s = (wall - time spent in the probes) * REF_S / mean probe time

is the solve's wall time on a host where the kernel takes ``REF_S``.
A change to the program moves ``ref_s``; a change in the host's speed
moves the probe and the wall together and cancels.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
ROUNDS = 48
# the kernel's time on the reference host: a 2-vCPU KVM Xeon (AVX-512),
# Python 3.11, numpy 2.4, where it takes about 1 ms
REF_S = 1e-3

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((256, 8))
_X0 = _rng.standard_normal(8)


def kernel() -> float:
    """Run the fixed kernel once and return its wall time."""
    t0 = perf_counter()
    x = _X0.copy()
    acc = 0.0
    for i in range(ROUNDS):
        v = _A @ x
        c = np.cumsum(np.exp(v - v.max()))
        j = int(np.searchsorted(c, c[-1] * ((i * 0.618) % 1.0)))
        x = 0.9 * x + 0.1 * _A[j]
        acc += float(x @ x)
    return perf_counter() - t0


class Probe:
    """Time the kernel from a SIGALRM timer while the ``with`` body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0  # wall time the body lost to the probes

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernel())
        self.busy_s += perf_counter() - t0

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())  # at least one sample, however short the body

    def factor(self) -> float:
        """Reference kernel time over the mean kernel time seen: below 1
        on a host slower than the reference."""
        return REF_S / statistics.fmean(self.samples)

    def ref_s(self, wall_s: float) -> float:
        return (wall_s - self.busy_s) * self.factor()


def bracketed(call, samples: int = 40):
    """Run ``call`` between two bursts of ``samples`` kernels and return its
    result with the host factor the bursts give.  For work in a child
    process, which a timer in this one would compete with for the CPU."""
    before = [kernel() for _ in range(samples)]
    result = call()
    after = [kernel() for _ in range(samples)]
    return result, REF_S / statistics.fmean(before + after)
