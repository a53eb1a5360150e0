"""``dedup_events`` against the window-loop collapser it replaced.

The oracle below is the original implementation: at every position it
tries each window length from 64 down to 1 on slices of line keys, one
``(sender, payload)`` unit per line.  The regex scan in
``tacticbench.agents.dedup`` must return the very same Event objects in the
same order, also when a ``DedupMemo`` lets it reuse an earlier call's scan.
The memo also relies on each match's start, ``end(1)`` and end, so those are
pinned against the ``(.{1,64})\\1+`` pattern the scan used first.

A memo call replays the old scan's decisions and hands over to the regex
at the first one that the new lines can change.  Logs that grow a few lines
at a time, and by tails longer than the 128-line lookback, are checked call
by call against the oracle; one small log per way out of that replay checks
the memo's whole state against a fresh call's."""
from __future__ import annotations

import operator
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tacticbench.agents.tacticrafter as tacticrafter
from tacticbench.agents import TactiCrafterSystem, make_mock_client
from tacticbench.agents.dedup import _REPEAT, MAX_WINDOW, DedupMemo, dedup_events
from tacticbench.bench import episode_seed, run_episode
from tacticbench.opponents import BuiltinTeamSystem, builtin
from tacticbench.scenarios import get_scenario
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


def few_ids_log(rng: Random) -> list[Event]:
    """Up to ~250 lines over 1-3 messages from one sender: short loops,
    runs of one line and pasted-back blocks, so later passes have repeats."""
    alphabet = [f"m{i}" for i in range(rng.randint(1, 3))]
    text: list[str] = []
    target = rng.randint(0, 250)
    while len(text) < target:
        roll = rng.random()
        if text and roll < 0.2:
            text += text[-rng.randint(1, 40):] * rng.randint(1, 3)
        elif roll < 0.3:
            text += [rng.choice(alphabet)] * rng.randint(2, 6)
        else:
            text.append(rng.choice(alphabet))
    return [chat(m, tick=t) for t, m in enumerate(text)]


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


def _state(memo: DedupMemo) -> list:
    return [(p.n, p.marks, p.reach, p.out_text, p.out_src) for p in memo.passes]


# 120 lines that never repeat: behind them a replay lists the repeats that
# the new lines add; with no lines before it, it rescans from the start.
DISTINCT = [f"d{i}" for i in range(120)]


def assert_memo_state_is_fresh(lines: str, splits=None) -> None:
    """For every split of ``lines`` (one line per character; or for each
    of ``splits``), with and without ``DISTINCT`` before them, a memo handed
    the lines before the split and then all of them returns the oracle's
    lines and holds exactly what a fresh call's memo does."""
    for before in ([], DISTINCT):
        events = [chat(m, tick=t) for t, m in enumerate(before + list(lines))]
        fresh = DedupMemo()
        want = dedup_events(events, fresh)
        assert want == oracle_dedup(events)
        for old in range(len(lines)) if splits is None else splits:
            memo = DedupMemo()
            dedup_events(events[: len(before) + old], memo)
            got = dedup_events(events, memo)
            assert len(got) == len(want) and all(map(operator.is_, got, want))
            assert _state(memo) == _state(fresh)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False))
def test_memo_matches_the_oracle_as_a_log_grows_a_few_lines_or_a_long_tail(rng):
    events = few_ids_log(rng) if rng.random() < 0.5 else random_log(rng)[:250]
    steps = [1, 2, 3, 4, 5] if rng.random() < 0.7 else [1, 3, 129, 140, 200]
    memo = DedupMemo()
    n = 0
    while n < len(events):
        n = min(len(events), n + rng.choice(steps))
        assert_same_events(events[:n], memo)


# Small logs that leave the replay through each of its ways out, the last
# line of each making the change.
REPLAY_EXITS = {
    # "bccb" has misses at 0 and 3; the fifth line makes "b" repeat at 3
    "an old miss that now repeats": ["bccbb", "abcbbbb"],
    # "aa" at 3 repeated once; the ninth line makes "aab" repeat there
    "an old match that takes a wider window": ["accaabaab"],
    # "b" at 2 ended at 4; the new line is one more copy
    "an old match whose copies run past the old end": ["babbb", "babbbbb", "ab" * 10],
    # the first pass's output changes where an old second-pass window's copy lay
    "a second pass whose window crossed the agreed prefix": ["bbabab"],
    # the first pass's new output ends a second-pass run of copies sooner
    "a second pass whose copies now end earlier": ["abbbabaaba"],
}


@pytest.mark.parametrize("way_out", sorted(REPLAY_EXITS))
def test_replay_exit_leaves_the_memo_as_a_fresh_call_does(way_out):
    for lines in REPLAY_EXITS[way_out]:
        assert_memo_state_is_fresh(lines)


def test_a_tail_longer_than_the_lookback_is_rescanned_by_the_regex():
    lines = "abcab" * 30 + "".join("abc"[i * i % 7 % 3] for i in range(200))
    assert_memo_state_is_fresh(lines, splits=(0, 1, 20, 120, 149, 150, 151, 200))


LONG_HISTORY = (("mushroom_war", "slimy"), ("dash_and_dine", "cake_beetroot"))


def test_every_memo_call_of_a_long_history_returns_a_fresh_calls_events(monkeypatch):
    """TactiCrafter on the mock client keeps one system for 2 episodes vs
    slimy and vs cake_beetroot at run seed 0; every regeneration's memo call
    returns the very Event objects of a fresh call."""
    calls = []

    def checked(events, memo=None):
        out = dedup_events(events, memo)
        if memo is not None:
            fresh = dedup_events(events)
            assert len(out) == len(fresh) and all(map(operator.is_, out, fresh))
            calls.append(len(events))
        return out

    monkeypatch.setattr(tacticrafter, "dedup_events", checked)
    for scenario, opponent in LONG_HISTORY:
        config = get_scenario(scenario)
        systems = {
            "red": TactiCrafterSystem(make_mock_client()),
            "blue": BuiltinTeamSystem(builtin(opponent, scenario)),
        }
        for episode in range(2):
            run_episode(config, systems, episode_seed(0, scenario, f"long:{opponent}", 0, episode))
    assert len(calls) == 876 and max(calls) > 2 * MAX_WINDOW
