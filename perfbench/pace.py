"""A fixed reference kernel that measures how fast the machine runs right now.

On the shared 2-core machine this benchmark was built on, the same work took
up to 1.6x longer for minutes at a time, so raw timings from two runs differed
more than any bound worth having.  Each timed operation is therefore
bracketed by this kernel, and its time is also reported at reference speed:
``measured * REFERENCE_S / kernel``, with ``kernel`` the mean of the kernel
runs just before and after it.  A build is paced step by step (preprocess,
select-features, train).  The kernel uses numpy and Python only, never
flowsentry, so no change to the program can move it.

The process's own CPU time is no steadier than wall time here: the worker is
not descheduled during these slowdowns, it runs slower, so its CPU time grows
with its wall time.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.025        # the kernel's time on the machine the benchmark was tuned on

_rng = np.random.default_rng(20240301)
_ROW = _rng.random((1, 24))
_BATCH = _rng.random((32, 24))
_W = [_rng.random((24, 32)), _rng.random((32, 64)), _rng.random((64, 256)), _rng.random((64, 8))]
_CELLS = [f"{v:.6f}" for v in _rng.random(64)]


def _once() -> float:
    """The mix the program runs: one-row layer steps, one small batch, text cells."""
    total = 0.0
    for _ in range(120):
        h = _ROW
        for w in _W[:2]:
            h = np.maximum(h @ w, 0.0)
        gates = 1.0 / (1.0 + np.exp(-(h @ _W[2])))
        total += float(gates.max()) + float(np.tanh(h @ _W[3]).sum())
    b = np.maximum(_BATCH @ _W[0], 0.0) @ _W[1]
    total += float(b.sum())
    total += sum(float(c) for c in _CELLS * 8)
    return total


def kernel_seconds() -> float:
    """Wall time of a few kernel passes, about REFERENCE_S on a steady machine."""
    started = time.perf_counter()
    for _ in range(8):
        _once()
    return time.perf_counter() - started


def run_timed(calls) -> tuple[list, dict]:
    """Run each zero-argument callable between kernel runs.

    Returns the results and the seconds the calls took on each clock: wall
    time as measured, and wall time at reference speed (each call scaled by
    the kernel runs either side of it).
    """
    results, wall, paced = [], 0.0, 0.0
    before = kernel_seconds()
    for call in calls:
        started = time.perf_counter()
        results.append(call())
        elapsed = time.perf_counter() - started
        after = kernel_seconds()
        wall += elapsed
        paced += elapsed * REFERENCE_S / ((before + after) / 2)
        before = after
    return results, {"wall": wall, "paced": paced}
