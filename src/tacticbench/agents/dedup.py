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
and end under either spelling, and reads the same characters (the memo's
replay below relies on both).  ``\\1\\1*`` is the cheaper one: CPython's
``re`` compiles ``\\1+`` into a REPEAT/MAX_UNTIL loop around the
back-reference, set up anew for each of the up to 64 windows tried at a
position before the back-reference fails on its first character, while
``\\1\\1*`` tests a bare back-reference first and enters the loop only
after one copy has matched.

Reuse.  A caller that dedups a growing log hands the same ``DedupMemo``
to every call; it holds the id table, the encoded log and, per pass, the
matches found (start, end and window) and the pass's output.  Say this
call's input of a pass agrees with the last call's on the first ``same``
characters and on the lines behind them.  The old scan then already tried
every window whose second copy ends by ``same``, with today's answer:

- a miss at ``q`` failed every such window, so it stays a miss unless a
  window ``w`` with ``q + 2w > same`` now repeats;
- a match at ``s`` with window ``w`` failed every wider such window, so
  it keeps ``w`` unless a wider window with ``s + 2w > same`` now repeats
  or its own copy ends past ``same``; of its further copies, those that end
  by ``same`` still match.

So a decision can change only through a repeat that straddles ``same``:
``q < same < q + 2w``, ``w <= 64``, so ``q > same - 128``.  ``_straddling``
lists where they start.  Such a repeat's second copy ends at some
``t >= same``, and its two copies end in the same two lines, so for each
``t`` one ``str.find`` of ``text[t-1:t+1]`` walks its candidates (``w = 1``
ends only at ``t = same``).  The pass then replays the old decisions from
the last match that no listed start and no changed line can reach.  A
kept match keeps the output it produced; a match whose copies ran past
``same`` has them counted again.  The regex takes over at the first
decision that may differ: a listed start at an old miss or match, an old
window whose copy crossed ``same``, or copies that now end elsewhere; else
at ``same``.  Listing costs a search per end and per candidate, so a long
tail, or a short one over few ids, is not listed (``_SEARCH_COST``): its
pass replays only what precedes ``same - 127``, which no straddling repeat
reaches, and the regex takes over there, as it did before listing existed.
Either way the result is exactly that of a fresh scan.  ``same`` is
measured, never assumed: for the first pass it is the old log's length,
since the memo starts over unless the new log extends the old one object
for object; for each later pass it is the common prefix of the old and new
outputs of the pass before (characters and ``src`` both).  A pass whose
input did not change at all reads what it read last time, and so does
every later pass, so the call returns the last result.
"""
from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right

from ..world import Event

MAX_WINDOW = 64
_READS = 2 * MAX_WINDOW  # how far an attempt at q reads before it takes copies
_REPEAT = re.compile(r"(.{1,%d})\1\1*" % MAX_WINDOW, re.DOTALL)
# Listing the repeats a changed tail adds takes a search per end of a copy
# and one per candidate; the regex rescan it saves takes one attempt per
# position from ``same - _READS + 1``.  A search costs about as much as
# this many positions, so a pass lists only while that is cheaper: a long
# tail, or one over few ids, goes to the regex.
_SEARCH_COST = 4


class _Pass:
    """One collapse pass: its input length, the matches it found as
    ``(start, end, window, output length so far)``, the furthest position
    each match or an earlier one read while taking copies (``reach``), and
    its output."""

    __slots__ = ("n", "marks", "reach", "out_text", "out_src")

    def __init__(self, n: int = 0) -> None:
        self.n = n
        self.marks: list[tuple[int, int, int, int]] = []
        self.reach: list[int] = []
        self.out_text = ""
        self.out_src: list[int] = []


_NO_PASS = _Pass()


class DedupMemo:
    """What the last ``dedup_events`` call handed this memo scanned; reusing
    it for a log that extends the last one redoes only what the new lines
    can change."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.ids: dict[tuple[str, str], int] = {}
        self.text = ""
        self.passes: list[_Pass] = []


def _straddling(text: str, same: int) -> list[int] | None:
    """Every ``q < same`` with a repeat ``text[q:q+w] == text[q+w:q+2w]``,
    ``w <= MAX_WINDOW``, whose copy ends past ``same``, in order; None when
    a rescan from ``same - _READS + 1`` would cost less than the listing."""
    budget = min(same, _READS - 1) // _SEARCH_COST - (len(text) - same)
    if budget < 0:
        return None
    searches = []
    for t in range(same, len(text)):  # t = q + 2w - 1
        # p = t - w ends the first copy.  w > (t + 1 - same) / 2 puts q before
        # same, q >= 0 caps w at (t + 1) // 2.  For w >= 2 both copies end in
        # the pair text[t-1:t+1], so each candidate is a find of it at p - 1.
        pair = text[t - 1 : t + 1]
        lo = max(0, t - 1 - min(MAX_WINDOW, (t + 1) // 2))
        hi = t + 1 - max(2, (t + 1 - same) // 2 + 1)
        budget -= text.count(pair, lo, hi)
        if budget < 0:
            return None
        searches.append((t, pair, lo, hi))
    # w = 1 ends only at t = same
    starts = {same - 1} if 0 < same < len(text) and text[same - 1] == text[same] else set()
    find = text.find
    for t, pair, lo, hi in searches:
        p = find(pair, lo, hi) + 1
        while p > 0:
            if text.startswith(text[p + 1 : t + 1], 2 * p + 1 - t):
                starts.add(2 * p + 1 - t)
            p = find(pair, p, hi) + 1
    return sorted(starts)


def _scan(text: str, src: list[int], old: _Pass, same: int) -> _Pass:
    """One collapse pass over ``text``, keeping the decisions of ``old``
    that this input cannot change (see the module docstring)."""
    same = min(same, old.n)
    marks = old.marks
    starts, stop = _straddling(text, same), same
    if starts is None:  # replay only up to the regex's lookback
        starts, stop = [], same - _READS + 1
    starts.append(old.n)  # no position after the old input's end is a decision
    # replay the old decisions from the last match that no new repeat reaches
    i = min(bisect_right(old.reach, same), bisect_left(marks, (min(starts[0], stop),)))
    pos = marks[i - 1][1] if i else 0
    k = 0
    while True:
        s, e, w = marks[i][:3] if i < len(marks) else (old.n, 0, 0)
        while starts[k] < pos:
            k += 1
        q = min(starts[k], s)
        if q >= stop:  # every old miss before stop stands
            resume = max(pos, stop)
            break
        # A new repeat at q turns an old miss into a match or widens the old
        # window at s; an old window that read past same may no longer repeat.
        if starts[k] <= s or s + 2 * w > same:
            resume = q
            break
        # The old window stands.  Its copies that end by same were counted
        # before; the rest are counted again.
        block, j = text[s : s + w], min(e, s + 2 * w + w * max(0, (same - s - 2 * w) // w))
        while text.startswith(block, j):
            j += w
        if j != e:
            resume = s
            break
        i += 1
        pos = e
    cur = _Pass(len(text))
    cur.marks = marks[:i]
    cur.reach = old.reach[:i]
    out_len = marks[i - 1][3] if i else 0
    pieces = [old.out_text[:out_len]]
    out_src = old.out_src[:out_len]
    top = cur.reach[-1] if i else 0
    start = pos
    for m in _REPEAT.finditer(text, resume):
        s, e1, e = m.start(), m.end(1), m.end()
        pieces.append(text[start:e1])
        out_src += src[start:e1]
        out_len += e1 - start
        top = max(top, e + e1 - s)
        cur.marks.append((s, e, e1 - s, out_len))
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
        if old is not _NO_PASS and same == len(text) == old.n:
            # this pass reads what it read last time, and so does every later one
            return list(map(events.__getitem__, passes[-1].out_src))
        cur = _scan(text, src, old, same)
        passes[depth : depth + 1] = [cur]  # replaces the old pass, or appends
        if not cur.marks:
            break
        same = _common_prefix(old, cur)
        text, src = cur.out_text, cur.out_src
        depth += 1
    del passes[depth + 1 :]
    return list(map(events.__getitem__, src))
