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
``finditer`` of ``(.{1,64})\\1\\1*``: the greedy ``.{1,64}`` tries the
longest window first and backs off, the bare ``\\1`` requires one copy that
fits in the string, ``\\1*`` takes every further back-to-back copy, and the
scan resumes at the end of a match or one character later after a miss.
``re.DOTALL`` matters because id 10 encodes as ``"\\n"``.  Passes repeat
until one finds no repeat.  Beside each pass's text the scan carries
``src``, the index in the input log of the line behind each character.

``\\1\\1*`` and ``\\1+`` match the same strings, one or more copies, and
both take copies greedily.  Nothing follows the copies, so the engine never
backtracks into them: it backs off to the next narrower window exactly when
no first copy follows.  Every match therefore has the same start, ``end(1)``
and end under either spelling, and reads the same characters (the reach
bound below holds for both).  ``\\1\\1*`` is the cheaper one: CPython's
``re`` compiles ``\\1+`` into a REPEAT/MAX_UNTIL loop around the
back-reference, set up anew for each of the up to 64 windows tried at a
position before the back-reference fails on its first character, while
``\\1\\1*`` tests a bare back-reference first and enters the loop only
after one copy has matched.

Reuse.  A caller that dedups a growing log hands the same ``DedupMemo``
to every call; it holds the id table, the encoded log and, per pass, the
repeats found and the pass's output.  Each scan decision reads a bounded
stretch of its pass's input:

- a miss at ``q`` tries every window at ``q``, so it reads ``text[q:q+128]``
  (and, nearer the end, where the string ends);
- a match at ``s`` with window ``w`` that ends at ``e`` also failed every
  wider window, reading ``text[s:s+128]``, and stopped taking copies where
  ``text[e:e+w]`` is no copy, reading up to ``e + w``.

So when this call's input of a pass agrees with the last call's on the
first ``L`` characters and on the lines behind them, every earlier match
with ``s + 128 <= L`` and ``e + w <= L`` and every miss at ``q <= L - 128``
is decided as before: the pass keeps those matches and the output they
produced, and resumes ``finditer`` after them.  The result is exactly that
of a fresh scan.  ``L`` is measured, never assumed: for the first pass it
is the old log's length, since the memo starts over unless the new log
extends the old one object for object; for each later pass it is the
common prefix of the old and new outputs of the pass before (characters
and ``src`` both), which may well reach past what that pass reused.
"""
from __future__ import annotations

import operator
import re
from bisect import bisect_right

from ..world import Event

MAX_WINDOW = 64
_READS = 2 * MAX_WINDOW  # how far an attempt at q reads before it takes copies
_REPEAT = re.compile(r"(.{1,%d})\1\1*" % MAX_WINDOW, re.DOTALL)


class _Pass:
    """One collapse pass: its input length, the matches it found as
    ``(start, end, output length so far)``, the furthest position each
    match or an earlier one read (``reach``), and its output."""

    __slots__ = ("n", "marks", "reach", "out_text", "out_src")

    def __init__(self, n: int = 0) -> None:
        self.n = n
        self.marks: list[tuple[int, int, int]] = []
        self.reach: list[int] = []
        self.out_text = ""
        self.out_src: list[int] = []


_NO_PASS = _Pass()


class DedupMemo:
    """What the last ``dedup_events`` call handed this memo scanned; reusing
    it for a log that extends the last one rescans only the changed tail."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.ids: dict[tuple[str, str], int] = {}
        self.text = ""
        self.passes: list[_Pass] = []


def _scan(text: str, src: list[int], old: _Pass, same: int) -> _Pass:
    """One collapse pass over ``text``, keeping the decisions of ``old``
    that read only ``text[:same]``."""
    keep = bisect_right(old.reach, same)
    start, out_len = old.marks[keep - 1][1:] if keep else (0, 0)
    upcoming = old.marks[keep][0] if keep < len(old.marks) else old.n
    resume = max(start, min(upcoming, same - _READS + 1))
    cur = _Pass(len(text))
    cur.marks = old.marks[:keep]
    cur.reach = old.reach[:keep]
    pieces = [old.out_text[:out_len]]
    out_src = old.out_src[:out_len]
    top = cur.reach[-1] if keep else 0
    for m in _REPEAT.finditer(text, resume):
        s, e1, e = m.start(), m.end(1), m.end()
        pieces.append(text[start:e1])
        out_src += src[start:e1]
        out_len += e1 - start
        top = max(top, s + _READS, e + e1 - s)
        cur.marks.append((s, e, out_len))
        cur.reach.append(top)
        start = e
    pieces.append(text[start:])
    out_src += src[start:]
    cur.out_text = "".join(pieces)
    cur.out_src = out_src
    return cur


def _common_prefix(a: _Pass, b: _Pass) -> int:
    """Length of the longest common prefix of two outputs, characters and
    ``src`` both."""
    lo, hi = 0, min(len(a.out_text), len(b.out_text))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.out_text[lo:mid] == b.out_text[lo:mid] and a.out_src[lo:mid] == b.out_src[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def dedup_events(events: list[Event], memo: DedupMemo | None = None) -> list[Event]:
    """Deduplicated copy of ``events``; the input list is not modified.

    With a ``memo`` from an earlier call, work that call did on a prefix
    of ``events`` is reused (see the module docstring); the result is
    always what a fresh call returns."""
    if memo is None:
        memo = DedupMemo()
    same = len(memo.events)
    if len(events) < same or not all(map(operator.is_, memo.events, events)):
        memo.__init__()  # not an extension of the last log: start over
        same = 0
    new = events[same:]
    memo.events += new
    ids = memo.ids
    memo.text += "".join(chr(ids.setdefault((ev.sender, ev.payload), len(ids))) for ev in new)
    text, src = memo.text, list(range(len(events)))
    passes = memo.passes
    depth = 0
    while True:
        old = passes[depth] if depth < len(passes) else _NO_PASS
        cur = _scan(text, src, old, same)
        passes[depth : depth + 1] = [cur]  # replaces the old pass, or appends
        if not cur.marks:
            break
        same = _common_prefix(old, cur)
        text, src = cur.out_text, cur.out_src
        depth += 1
    del passes[depth + 1 :]
    return list(map(events.__getitem__, src))
