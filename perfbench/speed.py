"""Host-speed sampling, so that op times measure the program and not the host.

On a shared 2-vCPU guest the host's speed flips between two levels about
1.8x apart, for anything from a tenth of a second to tens of seconds. Raw
medians of whole 20-second runs then differ by 30% or more. The sampler
times a small fixed kernel on a timer signal every INTERVAL_S while ops
run, in the main thread between bytecodes (no extra thread). Each stretch
of ops is scaled by the mean host speed sampled during it, and the kernel's
own time is subtracted from the ops it interrupted. Scaled times read as
times on a host where one kernel sample takes REF_SAMPLE_S.

The kernel is a loop of small-array numpy calls (kron, einsum, elementwise
arithmetic, reductions). Their cost is mostly the Python-to-C call overhead
that also dominates the library's per-point work, and among the kernels
tried (numpy calls, LAPACK eigvalsh, seed derivation with Poisson draws,
validated dataclass construction, string formatting) it tracked the
library's op times best over minutes of back-to-back ops. It never touches
the library, so changes to the library leave it fixed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
SAMPLE_ITERATIONS = 20
REF_SAMPLE_S = 0.48e-3


def kernel() -> float:
    a = np.arange(4.0).reshape(2, 2)
    acc = 0.0
    for _ in range(SAMPLE_ITERATIONS):
        b = np.kron(a, a)
        acc += float(np.einsum("ii->", b)) + float(np.abs(a - a.T).max())
    return acc


class SpeedSampler:
    """Context manager that samples host speed on SIGALRM while it is open."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds per sample
        self.busy_s = 0.0  # total time spent sampling
        self._previous = None

    def sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        kernel()  # untimed pass: refills the caches the ops evicted
        middle = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - middle)
        self.busy_s += end - start

    def speed(self, first: int = 0) -> float:
        """Mean host speed relative to the reference over samples[first:].

        Takes one sample now if none fell in the window.
        """
        if len(self.samples) <= first:
            self.sample()
        return statistics.fmean(REF_SAMPLE_S / k for k in self.samples[first:])

    def __enter__(self) -> SpeedSampler:
        kernel()  # the first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
