"""Lightweight named-lap timer behind the extraction pipeline's and the
experiment's stage timings."""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """Accumulating wall-clock stopwatch with named laps."""

    def __init__(self) -> None:
        self._laps: dict[str, float] = {}
        self._start: float | None = None
        self._current: str | None = None

    def start(self, name: str) -> "Stopwatch":
        """Start (or restart) timing the named lap."""

        self.stop()
        self._current = name
        self._start = time.perf_counter()
        return self

    def stop(self) -> None:
        """Stop the current lap, adding its duration to the total."""

        if self._current is not None and self._start is not None:
            elapsed = time.perf_counter() - self._start
            self._laps[self._current] = self._laps.get(self._current, 0.0) + elapsed
        self._current = None
        self._start = None

    @property
    def laps(self) -> dict[str, float]:
        """Accumulated seconds per lap name."""

        return dict(self._laps)

    def total(self) -> float:
        return sum(self._laps.values())

    def report(self) -> str:
        lines = [f"  {name:<28s} {seconds:8.3f} s"
                 for name, seconds in self._laps.items()]
        lines.append(f"  {'total':<28s} {self.total():8.3f} s")
        return "\n".join(lines)
