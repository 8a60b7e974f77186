"""Wall-clock timing helpers used by the benchmark harness."""

from __future__ import annotations

import time

__all__ = ["Timer"]


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
