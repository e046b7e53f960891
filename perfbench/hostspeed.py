"""A fixed calibration probe that tracks how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine.  Its speed drifts by
up to 40% over tens of seconds to minutes, as neighbours load the cores and
caches, and that drift moves every timing by more than any bound worth
setting.  The probe is a small, fixed piece of work that does not call
mmplab: a small einsum, a 32^3 complex FFT on one thread, an elementwise pass
over 8 MB and a pure-Python loop.  The benchmark probes after every run and
every set-up.  The mean probe time over an invocation gauges the host's
speed during it, and a wall time times ``REFERENCE_S`` over that mean is the
time the same work takes on a host whose probe reads ``REFERENCE_S``.

Each kernel is repeated and its fastest repetition kept, so a single
preemption does not move the probe; the probe is the sum of the four.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

# Probe time of the reference host (2 vCPUs, x86-64) when its cores are not
# contended: the fastest tenth of 146 probes read 19.2-20.8 ms.  It only
# scales normalised timings back to seconds and must not change between the
# commits being compared.
REFERENCE_S = 0.020
REPS = 5

_rng = np.random.default_rng(0)
_RADIAL = _rng.standard_normal((384, 26, 9))
_MATRIX = _rng.standard_normal((9, 9))
_CUBE = _rng.standard_normal((32, 32, 32)) + 0j
_STREAM = _rng.standard_normal(1_000_000)


def _einsum():
    for _ in range(5):
        np.einsum("rdi,ij,rdj->rd", _RADIAL, _MATRIX, _RADIAL)


def _fft():
    for _ in range(5):
        scipy.fft.fftn(_CUBE, workers=1)


def _stream():
    for _ in range(3):
        np.exp(_STREAM) * _STREAM


def _python():
    total = 0
    for i in range(100_000):
        total += i * i


KERNELS = (_einsum, _fft, _stream, _python)


def probe() -> float:
    """Seconds the fixed probe work takes now: per kernel the fastest of REPS."""
    best = [float("inf")] * len(KERNELS)
    for _ in range(REPS):
        for k, kernel in enumerate(KERNELS):
            t0 = time.perf_counter()
            kernel()
            best[k] = min(best[k], time.perf_counter() - t0)
    return sum(best)

