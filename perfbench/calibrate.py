"""Host-speed calibration: a fixed kernel timed next to the operations.

The shared host this benchmark runs on slows code by up to 1.8x for
stretches of seconds to a minute (see README.md, Noise).
A run that falls in a slow stretch reads slow however long it is, so a
time is also reported on a reference core: each measured time is scaled by
``REFERENCE_S / kernel_time``, where ``kernel_time`` is this kernel's best
of a few calls made right before and after the measured code.

The kernel mixes what lagwave's hot paths do: a pure-Python float loop (the
per-step stepping loop), small-array numpy arithmetic (per-step array
updates), float formatting with joins (CSV output), and numpy arithmetic on
arrays that fit the core's L2 cache and on one that does not (wide platoons
and the audit).  Those parts slow by different factors in a slow stretch
(about 1.7x for small arrays and formatting, 1.4x for the Python loop,
1.2x for the out-of-cache array); with all of them, the scaled pass times
of cli-templates, long-platoon and rival-audit no longer trend with the
kernel's own slowdown.  It is code of this benchmark, never of lagwave, so
a change to lagwave cannot move it.  Its one out-of-cache array, 3.2 MB,
is allocated once and stays resident, so it adds a constant to the
child's peak memory.
"""
from __future__ import annotations

import time

import numpy as np

# The kernel's time, in seconds, on the reference core: its fast-stretch
# best on the 2-core Xeon virtual machine the baseline was measured on.
# Only ratios matter; the constant just keeps the scaled times in seconds.
REFERENCE_S = 0.008
REPEATS = 3

_WIDE = np.arange(20_000.0)  # 160 kB, in L2
_BIG = np.zeros(400_000)  # 3.2 MB, past L2


def _kernel() -> None:
    s = 0.0
    for i in range(60_000):
        s += i * 0.5
    a = np.arange(200.0)
    for _ in range(1_500):
        a = a * 0.999 + 1.0
    ",".join([f"{x:.6f}" for x in range(3_000)])
    w = _WIDE
    for _ in range(60):
        w = w * 0.999 + 1.0
    for _ in range(3):
        np.multiply(_BIG, 0.5, out=_BIG)
        np.add(_BIG, 1.0, out=_BIG)


def measure() -> float:
    """The kernel's best time over ``REPEATS`` calls, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured next to ``kernel_s`` into reference-core seconds."""
    return REFERENCE_S / kernel_s
