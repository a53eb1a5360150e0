"""Event-log compaction: collapse consecutive tandem repeats.

Logs produced by looping programs contain the same chat sequence over and
over.  ``dedup_events`` finds consecutive repeats of chat subsequences
(greedy, longest repeat first, window up to ``MAX_WINDOW`` = 64 units) and
keeps only the first occurrence.  Observe events ride along with the chat
that precedes them, so observes attached to a removed chat are dropped too.
Relative order of retained events is always preserved and the result is a
subsequence of the input.

The log is grouped into units (one chat plus its observes) and each
distinct unit key gets a small int id, so the log becomes a ``str`` with one
character ``chr(id)`` per unit.  A collapse pass walks the units left to
right: at position ``i`` it takes the longest window ``w <= min(64,
(n - i) // 2)`` whose block is immediately repeated, keeps one copy, skips
every further back-to-back copy and resumes after them; with no repeat it
keeps unit ``i`` and moves on.  That is exactly one ``finditer`` of
``(.{1,64})\\1+``: the greedy ``.{1,64}`` tries the longest window first and
backs off, ``\\1`` only matches a copy that fits in the string, ``\\1+``
takes every back-to-back copy, and the scan resumes at the end of a match
or one character later after a miss.  ``re.DOTALL`` matters because id 10
encodes as ``"\\n"``.  Passes repeat until one finds no repeat.
"""
from __future__ import annotations

import re

from ..world import Event

MAX_WINDOW = 64
_REPEAT = re.compile(r"(.{1,%d})\1+" % MAX_WINDOW, re.DOTALL)


def _units(events: list[Event]) -> list[tuple[tuple, list[Event]]]:
    """Group the log into (key, events) units.

    A unit is one chat event plus the observe events that follow it; leading
    non-chat events each form their own unit.  The unit key ignores ticks and
    attached observes, so two iterations of the same loop compare equal.
    """
    units: list[tuple[tuple, list[Event]]] = []
    for ev in events:
        if ev.kind == "chat" or not units:
            units.append((ev.key(), [ev]))
        elif units[-1][1][0].kind == "chat":
            units[-1][1].append(ev)
        else:
            units.append((ev.key(), [ev]))
    return units


def dedup_events(events: list[Event]) -> list[Event]:
    """Deduplicated copy of ``events``; the input list is not modified."""
    units = _units(events)
    ids: dict[tuple, int] = {}
    text = "".join(chr(ids.setdefault(key, len(ids))) for key, _ in units)
    kept = list(range(len(units)))  # unit index of each character of text
    while True:
        spans = []
        start = 0
        for m in _REPEAT.finditer(text):
            spans.append((start, m.end(1)))
            start = m.end()
        if not spans:
            break
        spans.append((start, len(text)))
        text = "".join(text[a:b] for a, b in spans)
        kept = [u for a, b in spans for u in kept[a:b]]
    return [ev for u in kept for ev in units[u][1]]
