"""Span tracing from outside the program.

The tracer replaces a public function at the name its callers bind (a
module attribute or a class attribute) with a wrapper that records one span
per call: name, start, end and the enclosing span.  Spans are kept in
compact arrays and reduced to per-name calls, total time and self time
when the run ends.  A span's self time is its duration minus the durations
of its direct child spans.
"""
from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

import numpy as np

After = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    """Spans timed by ``clock``."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: Optional[str], after: Optional[After]) -> Callable:
        counts = self.counts
        if name is None:  # count-only wrapper, no span

            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(counts, args, kwargs, out)
                return out

            return functools.wraps(fn)(counted)

        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, parent, start, end, clock = (
            self._stack, self.name_id, self.parent, self.start, self.end, self.clock,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def patch(self, owner: object, attr: str, name: Optional[str], after: Optional[After] = None) -> None:
        """Replace ``owner.attr``; ``name=None`` counts through ``after`` only."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {name: (0, 0.0, 0.0) for name in self.names}
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested], minlength=n)
        own = duration - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        """Write every span: name index, parent index, start and end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
