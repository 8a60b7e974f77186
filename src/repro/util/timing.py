"""Wall-clock timing helpers used by the benchmark harness."""

from __future__ import annotations

import time
from statistics import median

__all__ = ["Timer", "paired_ratio"]


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def paired_ratio(base, other, quads: int = 25) -> float:
    """Cost of ``other()`` relative to ``base()`` on a host whose speed drifts.

    Quads base, other, other, base are timed back to back after one untimed
    call of each, so drift hits both halves of a pair alike and position
    bias cancels; the result is 1 + the median of the paired differences
    over the median base time (E18's reduction: a ratio of independent
    bests picks each side's luckiest moment instead).
    """

    def seconds(f) -> float:
        t0 = time.perf_counter()
        f()
        return time.perf_counter() - t0

    base(), other()
    bases, diffs = [], []
    for _ in range(quads):
        b1, o1, o2, b2 = seconds(base), seconds(other), seconds(other), seconds(base)
        bases.append(0.5 * (b1 + b2))
        diffs.append(0.5 * (o1 + o2) - 0.5 * (b1 + b2))
    return 1.0 + median(diffs) / median(bases)
