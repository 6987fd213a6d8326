"""Host speed, sampled between timed jobs, to scale the reported times by.

On a shared 2-core VM the same code runs up to 1.75x slower from one
minute to the next, and its CPU time drifts with its wall time (it is not
steal time), so neither longer runs nor CPU time remove the drift.  A fixed
calibration task that calls nothing in ksep slows down with it.  The
benchmark runs the task after every job, outside the job's timer, and
before and after each set-up, and reports ``wall seconds * reference /
median task seconds``: seconds on a host where the task takes its
reference time.  A change to ksep moves a scaled time exactly as much as
the wall time; a slower spell of the host slows the task as well and
mostly cancels.

The drift does not slow all code alike (interpreted Python more than a
memory-bound matvec), so each workload's task is made of the parts its own
jobs spend their time on; see ``workloads.CALIBRATION``.
"""

from __future__ import annotations

import statistics
import time
from functools import cache

import numpy as np

SETUP_REPS = 5  # samples before and after a set-up, which runs once
JOB_SHARE = 0.05  # calibration time after a job, as a share of the job's time
MAX_REPS = 20


@cache
def _inputs():
    rng = np.random.default_rng(0)
    smalls = rng.standard_normal((20, 2, 2)) + 1j * rng.standard_normal((20, 2, 2))
    mat16 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return list(smalls), mat16, mat16[0].copy()


@cache
def _matrix():
    rng = np.random.default_rng(1)
    big = rng.standard_normal((512, 1024)) + 1j * rng.standard_normal((512, 1024))  # 8 MiB, past the caches
    return big, big[0].copy()


@cache
def _symmetric():
    sym = np.random.default_rng(2).standard_normal((384, 384))
    return sym + sym.T


def _python() -> None:
    acc = 0
    for i in range(24000):
        acc += i * i % 7


def _tiny() -> None:
    # the shape of a 4-qubit probe update: orthonormalize 2x2 factors, kron, a 16x16 expectation
    smalls, mat16, vec16 = _inputs()
    for small in smalls:
        u = np.linalg.qr(small)[0]
        x = np.kron(np.kron(u, u), np.kron(u, u)) @ vec16
        float(abs(np.vdot(x, mat16 @ x)))


def _matvec() -> None:
    big, vec = _matrix()
    for _ in range(8):
        big @ vec


def _eigh() -> None:
    np.linalg.eigvalsh(_symmetric())


# part -> (function, its seconds in a quiet spell of the 2-core VM the benchmark was tuned on)
PARTS = {
    "python": (_python, 0.0015),
    "tiny": (_tiny, 0.0016),
    "matvec": (_matvec, 0.0020),
    "eigh": (_eigh, 0.0060),
}


class HostSpeed:
    def __init__(self, parts: tuple[str, ...], warm_up_s: float = 0.5):
        self.fns = [PARTS[p][0] for p in parts]
        self.reference_s = sum(PARTS[p][1] for p in parts)
        # the first calls run several times slower (BLAS threads start, pages fault in)
        until = time.perf_counter() + warm_up_s
        while time.perf_counter() < until:
            self.calibrate()

    def calibrate(self) -> float:
        """Seconds the calibration task takes now."""
        started = time.perf_counter()
        for fn in self.fns:
            fn()
        return time.perf_counter() - started

    def samples_after(self, job_seconds: float) -> list[float]:
        """Calibration samples taking about JOB_SHARE of the job just run, at least one."""
        reps = min(MAX_REPS, 1 + int(JOB_SHARE * job_seconds / self.reference_s))
        return [self.calibrate() for _ in range(reps)]

    def timed_setup(self, fn):
        """Run fn() between two sets of samples; (its result, wall seconds, median sample)."""
        before = [self.calibrate() for _ in range(SETUP_REPS)]
        started = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - started
        after = [self.calibrate() for _ in range(SETUP_REPS)]
        return result, seconds, statistics.median(before + after)

    def scaled(self, seconds: float, host_s: float) -> float:
        """Wall seconds as seconds on the reference host, given the task's median time around them."""
        return seconds * self.reference_s / host_s
