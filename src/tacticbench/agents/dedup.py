"""Chat-log compaction: collapse consecutive tandem repeats.

Logs produced by looping programs contain the same chat sequence over and
over.  ``dedup_events`` finds consecutive repeats of line subsequences
(greedy, longest repeat first, window up to ``MAX_WINDOW`` = 64 lines) and
keeps only the first occurrence.  Two lines are equal when they have the
same sender and text; the tick is ignored, so two iterations of the same
loop compare equal.  Relative order of retained lines is always preserved
and the result is a subsequence of the input.

Each distinct ``(sender, payload)`` gets a small int id, so the log becomes
a ``str`` with one character ``chr(id)`` per line.  A collapse pass walks
the lines left to right: at position ``i`` it takes the longest window
``w <= min(64, (n - i) // 2)`` whose block is immediately repeated, keeps
one copy, skips every further back-to-back copy and resumes after them;
with no repeat it keeps line ``i`` and moves on.  That is exactly one
``finditer`` of ``(.{1,64})\\1+``: the greedy ``.{1,64}`` tries the longest
window first and backs off, ``\\1`` only matches a copy that fits in the
string, ``\\1+`` takes every back-to-back copy, and the scan resumes at the
end of a match or one character later after a miss.  ``re.DOTALL`` matters
because id 10 encodes as ``"\\n"``.  Passes repeat until one finds no
repeat.
"""
from __future__ import annotations

import re

from ..world import Event

MAX_WINDOW = 64
_REPEAT = re.compile(r"(.{1,%d})\1+" % MAX_WINDOW, re.DOTALL)


def dedup_events(events: list[Event]) -> list[Event]:
    """Deduplicated copy of ``events``; the input list is not modified."""
    ids: dict[tuple[str, str], int] = {}
    text = "".join(chr(ids.setdefault((ev.sender, ev.payload), len(ids))) for ev in events)
    kept = events  # the event behind each character of text
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
        kept = [ev for a, b in spans for ev in kept[a:b]]
    return list(kept)
