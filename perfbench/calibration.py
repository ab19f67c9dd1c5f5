"""Reference kernel that tracks the host's momentary CPU speed.

The benchmark's host shares its cores with other tenants.  Measured on a
2-vCPU VM, the same operation runs up to 1.6x slower for stretches of
seconds to tens of seconds, and BLAS, interpreter-bound and
formatting-bound code all slow together, though not by exactly the same
factor.  A 25 s run can fall entirely in a slow stretch, so raw medians of
separate runs spread by 15-50% (IQR over median, five seeds).

The kernel below never touches subent.  Its BLAS half is a small complex
matmul; its interpreter half is an integer loop, tiny numpy calls and float
formatting.  The worker times both halves right before and after every
operation, and the operation's latency is reported at reference speed:

    latency * speed_factor(mean kernel before/after, workload's BLAS weight)

Over ten seeds per workload this took the run-to-run spread (IQR over
median) from 11-59% raw to 4.5-9.7%, while a change in subent's own cost
still shows in full.  Raw latencies are kept in the
result file next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel times that count as reference speed: about their duration on the
# 2-vCPU host the bounds in BENCHMARK.json were set on, in a quiet stretch.
REFERENCE_BLAS_S = 0.003
REFERENCE_INTERP_S = 0.003

_RNG = np.random.default_rng(20030421)
_A = _RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))
_P = np.array([0.5, 0.2, 0.2, 0.1])
_Q = np.array([0.4, 0.3, 0.2, 0.1])
_FLOATS = np.linspace(0.0, 1.0, 1500).tolist()


def _blas() -> None:
    for _ in range(6):
        _A @ _A


def _interp() -> int:
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(150):
        acc += bool(np.all(np.cumsum(_P) <= np.cumsum(_Q) + 1e-9))
    return acc + len(",".join(format(v, ".17g") for v in _FLOATS))


def kernel_seconds() -> tuple[float, float]:
    """Times of the BLAS and the interpreter half of the kernel, each run
    twice with the second run timed."""
    _blas()
    _interp()
    t0 = time.perf_counter()
    _blas()
    t1 = time.perf_counter()
    _interp()
    return t1 - t0, time.perf_counter() - t1


def speed_factor(blas_s: float, interp_s: float, blas_weight: float) -> float:
    """Factor that turns a raw time into a time at reference speed."""
    return 1.0 / (blas_weight * blas_s / REFERENCE_BLAS_S
                  + (1.0 - blas_weight) * interp_s / REFERENCE_INTERP_S)
