"""Machine-speed probes interleaved with the work, and the clock that skips them.

A benchmark host shared with other machines changes speed by up to 1.7x
for seconds or minutes at a time, so raw wall times of one program differ
from run to run by more than the benchmark's bounds.  A ``SpeedProbe``
runs a fixed piece of pure-Python work (about 1 ms) every ``INTERVAL_S``
of wall time, from a ``SIGALRM`` handler, so that the probes sample the
machine's speed all through the work they interleave with.  Their time is
left out of ``clock()``.  A span of work measured with ``clock()`` is then
reported in reference seconds: its seconds times ``scale()``, which is
``REFERENCE_S`` over the mean probe time in the same span.  That is the
time it would have taken on a machine where one probe takes
``REFERENCE_S``.  A slower program takes more reference seconds; a slower
machine does not.

The probe is built from what the simulator and the agents spend their
time on (slotted objects, tuple-keyed dicts, string formatting, sorting
with a key), so that contention on the shared cores slows it about as much
as it slows the program.  Only this module's code runs in a probe, never
the program's, so the probe reads the same at every commit.
"""
from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_S = 0.001  # probe time of the machine the reference seconds stand for


class _Unit:
    __slots__ = ("x", "y", "hp")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y, self.hp = x, y, 10


def probe_work() -> int:
    units = [_Unit(i * 7 % 61, i * 13 % 59) for i in range(120)]
    cells: dict[tuple[int, int], int] = {}
    chars = 0
    for step in range(9):
        for u in units:
            key = (u.x, u.y)
            cells[key] = cells.get(key, 0) + 1
            if (u.x + step) % 3 == 0:
                u.hp -= 1
            chars += len(f"{u.x}:{u.y}")
        units.sort(key=lambda u: (u.hp, u.x))
    return chars + len(cells)


class SpeedProbe:
    """Runs ``probe_work`` every ``INTERVAL_S`` from ``SIGALRM`` while
    installed; ``spent`` and ``count`` total the probes run so far."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.count = 0
        self._previous = None

    def clock(self) -> float:
        """Wall seconds without the probes' time."""
        return perf_counter() - self.spent

    def mark(self) -> tuple[float, int]:
        return self.spent, self.count

    def scale(self, since: tuple[float, int]) -> float:
        """Reference seconds per ``clock()`` second since ``mark()`` gave ``since``."""
        spent, count = since
        if self.count == count:
            raise RuntimeError("no speed probe ran in the measured span")
        return REFERENCE_S * (self.count - count) / (self.spent - spent)

    def _fire(self, signum, frame) -> None:
        start = perf_counter()
        probe_work()
        self.spent += perf_counter() - start
        self.count += 1
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)  # one-shot: a probe never nests

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def restore(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
