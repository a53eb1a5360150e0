"""``dedup_events`` against the window-loop collapser it replaced.

The oracle below is the original implementation: at every position it
tries each window length from 64 down to 1 on slices of line keys, one
``(sender, payload)`` unit per line.  The regex scan in
``tacticbench.agents.dedup`` must return the very same Event objects in the
same order, also when a ``DedupMemo`` lets it reuse an earlier call's scan.
The memo also relies on each match's start, ``end(1)`` and end, so those are
pinned against the ``(.{1,64})\\1+`` pattern the scan used first."""
from __future__ import annotations

import re
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from tacticbench.agents.dedup import _REPEAT, MAX_WINDOW, DedupMemo, dedup_events
from tacticbench.world import Event


def _oracle_units(events):
    return [((ev.sender, ev.payload), [ev]) for ev in events]


def _oracle_collapse_pass(units):
    keys = [k for k, _ in units]
    n = len(keys)
    out = []
    i = 0
    changed = False
    while i < n:
        hit = 0
        for length in range(min(64, (n - i) // 2), 0, -1):
            if keys[i : i + length] == keys[i + length : i + 2 * length]:
                hit = length
                break
        if hit:
            j = i + hit
            while j + hit <= n and keys[j : j + hit] == keys[i : i + hit]:
                j += hit
            out.extend(units[i : i + hit])
            i = j
            changed = True
        else:
            out.append(units[i])
            i += 1
    return out, changed


def oracle_dedup(events):
    units = _oracle_units(list(events))
    while True:
        units, changed = _oracle_collapse_pass(units)
        if not changed:
            break
    return [ev for _, unit in units for ev in unit]


def assert_same_events(events, memo=None):
    got, want = dedup_events(events, memo), oracle_dedup(events)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def assert_memo_follows_growth(events):
    """One memo handed ``events`` one line longer at a time."""
    memo = DedupMemo()
    for n in range(len(events) + 1):
        assert_same_events(events[:n], memo)


def chat(text: str, tick: int = 0, sender: str = "A") -> Event:
    return Event(tick, sender, text)


def random_log(rng: Random) -> list[Event]:
    """Up to ~400 lines over a 1-6 message alphabet and 1-2 senders, with
    copies of the last 1-70 lines pasted back in at later ticks."""
    alphabet = [f"m{i}" for i in range(rng.randint(1, 6))]
    senders = "AB"[: rng.randint(1, 2)]
    events: list[Event] = []

    def add(ev: Event) -> None:
        events.append(Event(len(events), ev.sender, ev.payload))

    target = rng.randint(0, 400)
    while len(events) < target:
        if events and rng.random() < 0.15:
            block = events[-rng.randint(1, 70):]
            for _ in range(rng.randint(1, 3)):
                for ev in block:
                    add(ev)
        else:
            add(chat(rng.choice(alphabet), sender=rng.choice(senders)))
    return events


def random_ids(rng: Random) -> str:
    """An encoded log: 1-13 ids, ``chr(10)`` always among them, with
    pasted-back copies of the last 1-70 characters and repeated blocks of
    63, 64 or 65 distinct ids, the windows either side of the cap."""
    alphabet = ["\n"] + [chr(rng.randrange(200)) for _ in range(rng.randint(0, 12))]
    text = ""
    target = rng.randint(0, 400)
    while len(text) < target:
        roll = rng.random()
        if text and roll < 0.15:
            text += text[-rng.randint(1, 70):] * rng.randint(1, 3)
        elif roll < 0.2:
            block = "".join(rng.sample([chr(i) for i in range(200)], rng.choice([63, 64, 65])))
            text += block * rng.randint(2, 3)
        else:
            text += rng.choice(alphabet)
    return text


_PLUS_REPEAT = re.compile(r"(.{1,%d})\1+" % MAX_WINDOW, re.DOTALL)


def _spans(pattern: re.Pattern, text: str, pos: int) -> list[tuple[int, int, int]]:
    return [(m.start(), m.end(1), m.end()) for m in pattern.finditer(text, pos)]


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_repeat_pattern_matches_the_plus_pattern(rng):
    text = random_ids(rng)
    pos = rng.randint(0, len(text))
    for start in (0, pos):
        assert _spans(_REPEAT, text, start) == _spans(_PLUS_REPEAT, text, start)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dedup_matches_window_loop_oracle(rng):
    assert_same_events(random_log(rng))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_memo_matches_the_oracle_as_a_log_grows_in_chunks(rng):
    memo = DedupMemo()
    for _ in range(3):
        events = random_log(rng)
        n = 0
        while n < len(events):
            if rng.random() < 0.1:  # a log that does not extend the last one
                assert_same_events(random_log(rng), memo)
            n = min(len(events), n + rng.choice([1, 1, 2, 5, 30, 130]))
            assert_same_events(events[:n], memo)
        # the same log again, then a copy: equal lines, other objects
        assert_same_events(events, memo)
        assert_same_events([Event(e.tick, e.sender, e.payload) for e in events], memo)


def test_dedup_matches_oracle_on_small_and_edge_logs():
    assert_same_events([])
    assert_same_events([chat("a")])
    assert_same_events([chat("a")] * 300)
    assert_same_events([chat(m) for m in "abcabcabcxabab"])


def test_window_cap_collapses_a_64_unit_block():
    block = [f"m{i}" for i in range(MAX_WINDOW)]  # ids 0-63: id 10 encodes as "\n"
    events = [chat(m, tick=t) for t, m in enumerate(block * 2)]
    out = dedup_events(events)
    assert out == events[:MAX_WINDOW]
    assert_same_events(events)
    assert_memo_follows_growth([chat(m, tick=t) for t, m in enumerate(block * 3)])
    # a block that opens with a repeated line: the 1-line repeat at 0 gives
    # way to the 64-line one only when the 128th line arrives
    paired = block[:1] + block[:-1]
    assert_memo_follows_growth([chat(m, tick=t) for t, m in enumerate(paired * 3)])


def test_window_cap_keeps_a_65_unit_block():
    block = [f"m{i}" for i in range(MAX_WINDOW + 1)]
    events = [chat(m, tick=t) for t, m in enumerate(block * 2)]
    assert dedup_events(events) == events
    assert_same_events(events)
    assert_memo_follows_growth([chat(m, tick=t) for t, m in enumerate(block * 3)])


def test_same_text_from_interleaved_senders_is_two_lines():
    # "a" from A and "a" from B differ; only the (A, B) pair repeats
    events = [chat("a", tick=t, sender="AB"[t % 2]) for t in range(6)]
    out = dedup_events(events)
    assert [(e.sender, e.payload) for e in out] == [("A", "a"), ("B", "a")]
    assert out == events[:2]
    assert_same_events(events)
    assert_same_events(events + [chat("a", tick=6, sender="B")])
