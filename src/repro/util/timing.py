"""Wall-clock timing: the one clock path behind every measured number.

Every rate the benchmarks and the machine calibration report is taken
here, one of two ways:

* a repeatable call runs through :func:`timed_rounds` — one untimed
  warm-up call of each callable, then ``rounds`` rounds that alternate
  direction — and the caller names the reduction: ``min`` of the samples
  for an absolute cost, :func:`paired` (then medians) for a relative one;
* a one-shot run (a solve, a campaign, a cold request) is timed once
  with :class:`Timer`.
"""

from __future__ import annotations

import time
from statistics import median

__all__ = ["Timer", "paired", "paired_ratio", "timed_rounds"]


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


def timed_rounds(fns, rounds: int) -> list[list[float]]:
    """Wall times of ``rounds`` calls of each of ``fns``, one list per callable.

    Each callable is called once untimed first (workspaces, caches, first
    probe bucket).  Round ``r`` then runs the callables in order when ``r``
    is even and in reverse when it is odd, so a slow phase of the host hits
    every callable alike and two rounds of ``(base, other)`` are one ABBA
    quad: ``base, other, other, base``.
    """
    fns = list(fns)
    for f in fns:
        f()
    samples: list[list[float]] = [[] for _ in fns]
    pairs = list(zip(fns, samples))
    for r in range(rounds):
        for f, times in pairs if r % 2 == 0 else reversed(pairs):
            t0 = time.perf_counter()
            f()
            times.append(time.perf_counter() - t0)
    return samples


def paired(samples: list[list[float]]) -> tuple[list[float], list[float]]:
    """Per-quad ``(bases, diffs)`` of ``timed_rounds((base, other), 2 * quads)``.

    A quad's base is the mean of its two base calls and its diff the mean
    of its two other calls minus that base: drift hits both halves of a
    pair alike and position bias cancels.  Reduce each list by its median
    — a ratio of independent bests picks each side's luckiest moment.
    """
    base, other = samples
    bases = [0.5 * (b1 + b2) for b1, b2 in zip(base[::2], base[1::2])]
    diffs = [0.5 * (o1 + o2) - b for o1, o2, b in zip(other[::2], other[1::2], bases)]
    return bases, diffs


def paired_ratio(base, other, quads: int = 25) -> float:
    """Cost of ``other()`` relative to ``base()`` on a host whose speed drifts:
    1 + the median paired difference over the median base (:func:`paired`)."""
    bases, diffs = paired(timed_rounds((base, other), 2 * quads))
    return 1.0 + median(diffs) / median(bases)
