"""A fixed pure-Python reference task that gauges the machine's current speed.

The benchmark runs on shared hosts whose effective CPU speed drifts by tens
of percent over seconds to minutes, far more than the changes it should
detect.  Runs therefore interleave this task with the library calls they time
and report each time scaled by ``NOMINAL_S / measured reference time``: the
time the call would have taken on a machine that runs the reference task in
``NOMINAL_S``.  The task does not touch the library, so a change to the
library moves the scaled times exactly as it moves the raw ones.

The mix mirrors what the library spends its time on: schoolbook products and
long division of coefficient lists mod p, big-integer binomials, tuples,
dicts and decimal text.  Changing it, or ``NOMINAL_S``, changes every timed
metric, so do neither in a pull request that is measured against its parent.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 0.018  # about the task's median time on a shared 2-vCPU 2.0 GHz VM
P = 7


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % P for v in out]


def _rem(a: list[int], b: list[int]) -> list[int]:
    rem = list(a)
    inv = pow(b[-1], P - 2, P)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv % P
        if c:
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - c * y) % P
    return rem[: len(b) - 1]


def task() -> int:
    """One fixed unit of work; returns a checksum so nothing is optimised away."""
    a = [(i * i + 3) % P for i in range(48)]
    b = [(5 * i + 1) % P for i in range(31)] + [1]
    acc = 0
    for _ in range(12):
        acc ^= sum(_rem(_mul(a, a), b))
    memo = {}
    for n in range(100, 240):
        row = tuple(math.comb(n, k) for k in range(0, n + 1, 3))
        memo[n] = row
        acc ^= hash(row) & 0xFFFF
    text = ",".join(str(v) for v in memo[239][:30])
    return acc ^ len(text)


def sample() -> float:
    """Seconds one run of the task takes now."""
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def median_sample(count: int) -> float:
    """Median of ``count`` back-to-back samples."""
    return statistics.median(sample() for _ in range(count))
