"""``dedup_events`` against the window-loop collapser it replaced.

The oracle below is the original implementation: at every position it
tries each window length from 64 down to 1 on slices of unit keys.  The
regex scan in ``tacticbench.agents.dedup`` must return the very same Event
objects in the same order."""
from __future__ import annotations

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from tacticbench.agents.dedup import MAX_WINDOW, dedup_events
from tacticbench.world import Event


def _oracle_units(events):
    units = []
    for ev in events:
        if ev.kind == "chat" or not units:
            units.append((ev.key(), [ev]))
        elif units[-1][1][0].kind == "chat":
            units[-1][1].append(ev)
        else:
            units.append((ev.key(), [ev]))
    return units


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


def assert_same_events(events):
    got, want = dedup_events(events), oracle_dedup(events)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def chat(text: str, tick: int = 0, sender: str = "A") -> Event:
    return Event("chat", tick, sender, text)


def observe(count: int, tick: int = 0, sender: str = "A") -> Event:
    return Event("observe", tick, sender, {"inventory": {"slime_block": count}, "blocks": {}})


def random_log(rng: Random) -> list[Event]:
    """Up to ~400 units over a 1-6 message alphabet, with observes (leading
    ones too) and copies of the last 1-70 units pasted back in."""
    alphabet = [f"m{i}" for i in range(rng.randint(1, 6))]
    senders = "AB"[: rng.randint(1, 2)]
    observe_rate = rng.choice([0.0, 0.2, 0.6])
    events: list[Event] = []
    units: list[list[Event]] = []
    tick = 0

    def add(unit: list[Event]) -> None:
        nonlocal tick
        copy = []
        for ev in unit:
            copy.append(Event(ev.kind, tick, ev.sender, ev.payload))
            tick += 1
        events.extend(copy)
        units.append(copy)

    for _ in range(rng.choice([0, 0, 1, 3])):
        add([observe(rng.randint(0, 2), sender=rng.choice(senders))])
    target = rng.randint(0, 400)
    while len(units) < target:
        if units and rng.random() < 0.15:
            period = rng.randint(1, 70)
            block = units[-period:]
            for _ in range(rng.randint(1, 3)):
                for unit in block:
                    add(unit)
        else:
            unit = [chat(rng.choice(alphabet), sender=rng.choice(senders))]
            while rng.random() < observe_rate:
                unit.append(observe(rng.randint(0, 3), sender=unit[0].sender))
            add(unit)
    return events


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dedup_matches_window_loop_oracle(rng):
    assert_same_events(random_log(rng))


def test_dedup_matches_oracle_on_small_and_edge_logs():
    assert_same_events([])
    assert_same_events([observe(1)])
    assert_same_events([observe(1), observe(1), observe(1), chat("a"), chat("a")])
    assert_same_events([observe(1), observe(2), observe(1), observe(2)])
    assert_same_events([chat("a")] * 300)
    assert_same_events([chat(m) for m in "abcabcabcxabab"])


def test_window_cap_collapses_a_64_unit_block():
    block = [f"m{i}" for i in range(MAX_WINDOW)]  # ids 0-63: id 10 encodes as "\n"
    events = [chat(m, tick=t) for t, m in enumerate(block * 2)]
    out = dedup_events(events)
    assert out == events[:MAX_WINDOW]
    assert_same_events(events)


def test_window_cap_keeps_a_65_unit_block():
    block = [f"m{i}" for i in range(MAX_WINDOW + 1)]
    events = [chat(m, tick=t) for t, m in enumerate(block * 2)]
    assert dedup_events(events) == events
    assert_same_events(events)
