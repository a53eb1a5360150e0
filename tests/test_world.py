"""Simulation kernel: grid, timers, observations, determinism."""
from __future__ import annotations

import math
from importlib import resources
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tacticbench.runner as tb_runner
from tacticbench.layout import load_builtin_layout, load_layout_text
from tacticbench.opponents import BuiltinTeamSystem, builtin
from tacticbench.runner import run_episode
from tacticbench.scenarios import get_scenario
from tacticbench.world import (
    DEFAULT_EPISODE_TICKS,
    BlockCell,
    Inventory,
    LayoutError,
    Position,
    WorldError,
    area_of,
    new_world,
)


@pytest.fixture
def mw_world():
    return new_world(load_builtin_layout("mushroom_war"), seed=7)


def test_position_chebyshev():
    assert Position(0, 0, 0).chebyshev(Position(3, 0, -2)) == 3
    assert Position(5, 0, 5).chebyshev(Position(5, 0, 5)) == 0


def test_inventory_zero_keys_removed():
    inv = Inventory({"wheat": 2})
    inv.remove("wheat", 2)
    assert "wheat" not in inv.stacks
    assert inv.count("wheat") == 0


def test_inventory_remove_caps_at_available():
    inv = Inventory({"egg": 3})
    assert inv.remove("egg", 10) == 3


def test_inventory_rejects_negative_add():
    with pytest.raises(ValueError):
        Inventory().add("wheat", -1)


def test_world_has_expected_defaults(mw_world):
    assert mw_world.tick == 0
    assert mw_world.duration == DEFAULT_EPISODE_TICKS
    assert len(mw_world.team_agents("red")) == 2
    assert len(mw_world.team_agents("blue")) == 2


def test_area_of_classifies_neutral_strip(mw_world):
    assert mw_world.area_of(2, 2) == "red"
    assert mw_world.area_of(30, 2) == "blue"
    assert mw_world.area_of(16, 7) == "neutral"


def test_schedule_fires_at_sampled_tick(mw_world):
    pos = (2, 2)
    mw_world.set_block(pos, "air")
    ev = mw_world.schedule("regrow-block", (pos, "slime_block"), 5)
    for _ in range(4):
        mw_world.step_tick()
    assert mw_world.cells[pos].kind == "air"
    mw_world.step_tick()
    assert mw_world.cells[pos].kind == "slime_block"
    assert ev.fire_tick == 5


def test_cancelled_timer_never_fires(mw_world):
    pos = (2, 2)
    mw_world.set_block(pos, "air")
    ev = mw_world.schedule("regrow-block", (pos, "slime_block"), 3)
    mw_world.cancel(ev)
    for _ in range(10):
        mw_world.step_tick()
    assert mw_world.cells[pos].kind == "air"


def test_uniform_delay_within_range():
    world = new_world(load_builtin_layout("mushroom_war"), seed=1)
    for _ in range(200):
        ev = world.schedule("mob-respawn", world.mobs[0], (40, 120))
        assert 40 <= ev.fire_tick - world.tick <= 120


def test_geometric_delay_is_positive_and_seeded():
    w1 = new_world(load_builtin_layout("mushroom_war"), seed=3)
    w2 = new_world(load_builtin_layout("mushroom_war"), seed=3)
    d1 = [w1.schedule("mob-respawn", w1.mobs[0], ("geometric", 0.05)).fire_tick for _ in range(50)]
    d2 = [w2.schedule("mob-respawn", w2.mobs[0], ("geometric", 0.05)).fire_tick for _ in range(50)]
    assert d1 == d2
    assert all(t >= 1 for t in d1)


def sample_delay_oracle(rng, delay) -> int:
    """The delay draw of ``schedule`` as it was before it was inlined: an
    int as is, ``("geometric", p)`` from one ``rng.random()``, ``(lo, hi)``
    from one ``rng.randint``; then at least 1."""
    if isinstance(delay, int):
        ticks = delay
    elif isinstance(delay, tuple) and delay and delay[0] == "geometric":
        p = delay[1]
        u = rng.random()
        ticks = 1 + int(math.log(max(1.0 - u, 1e-12)) / math.log(1.0 - p))
    else:
        lo, hi = delay
        ticks = rng.randint(lo, hi)
    return max(ticks, 1)


class ScriptedRandom(Random):
    """A ``Random`` whose ``random()`` first returns the scripted values.
    (Overriding ``random`` also makes ``randint`` draw through it.)"""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def random(self):
        return self.script.pop(0) if self.script else super().random()


TIMER_DELAYS = [
    0, -4, 1, 9, (1, 5), (-3, 0), (40, 120), (7, 7),
    *(("geometric", p) for p in (0.004, 0.05, 0.3, 0.5, 0.9, 0.999)),
]


@pytest.mark.parametrize("seed, scripted", [(0, False), (5, False), (0, True)])
def test_schedule_draws_as_the_delay_oracle(seed, scripted):
    world = new_world(load_builtin_layout("dash_and_dine"), seed)
    delays = [d for _ in range(3) for d in TIMER_DELAYS] + [("geometric", 0.05)] * 200
    Random(seed).shuffle(delays)
    ref = Random(seed)
    if scripted:
        # u = 0 gives log(1) = 0; u within 1e-12 of 1 hits the 1e-12 clamp
        script = [0.0, 1 - 1e-13, 0.999999999999, 1 - 2 ** -53]
        world.rng = ScriptedRandom(seed, script)
        ref = ScriptedRandom(seed, script)
        delays = [("geometric", p) for p in (0.3, 0.05, 0.3, 0.999)] + delays
    for i, delay in enumerate(delays):
        world.tick = 3 * i
        ev = world.schedule("mob-respawn", world.mobs[0], delay)
        assert (ev.fire_tick, ev.seq) == (3 * i + sample_delay_oracle(ref, delay), i), delay
        assert world.rng.getstate() == ref.getstate(), delay


def test_observe_radius_limits_blocks(mw_world):
    obs = mw_world.observe("Ryn")
    agent = mw_world.agent("Ryn")
    for _, pos in obs.nearby_blocks:
        assert agent.position.chebyshev(pos) <= 8


def oracle_observe(world, agent_name: str, radius: int = 8):
    """``observe``'s blocks and mobs as it computed them before it sorted
    only nearby cells: sort every cell, then keep the near non-air ones."""
    agent = world.agent(agent_name)
    ax, az = agent.position.x, agent.position.z
    blocks = []
    for (x, z), cell in sorted(world.cells.items()):
        if cell.kind == "air":
            continue
        if max(abs(x - ax), abs(z - az)) <= radius:
            blocks.append((cell.kind, Position(x, 0, z)))
    mobs = []
    for mob in world.mobs:
        if not mob.alive:
            continue
        d = math.dist((mob.position.x, mob.position.z), (ax, az))
        if d <= radius:
            mobs.append((mob.kind, round(d, 3)))
    return blocks, mobs


@st.composite
def edited_worlds(draw):
    """A builtin world with cells set to air, deleted or placed (placed keys
    land at the end of the cell dict, out of sorted order), some mobs dead,
    and every agent moved, sometimes off the grid."""
    world = new_world(load_builtin_layout(draw(st.sampled_from(["mushroom_war", "dash_and_dine"]))), 0)
    width, depth = world.layout.width, world.layout.depth
    x = st.integers(-3, width + 2)
    z = st.integers(-3, depth + 2)
    kinds = st.sampled_from(["slime_block", "red_mushroom_block", "wheat", "chest", "farmland"])
    for op, key, kind in draw(st.lists(
        st.tuples(st.sampled_from(["air", "delete", "place"]), st.tuples(x, z), kinds), max_size=60
    )):
        if op == "place":
            world.set_block(key, kind)
        elif op == "delete":
            world.clear_block(key)
        elif key in world.cells:
            world.set_block(key, "air")
    for mob in world.mobs:
        mob.alive = draw(st.booleans())
    for agent in world.agents:
        agent.position = Position(draw(x), 0, draw(z))
    return world


@settings(max_examples=150, deadline=None)
@given(edited_worlds(), st.integers(0, 40))
def test_observe_matches_sort_every_cell_oracle(world, radius):
    for agent in world.agents:
        obs = world.observe(agent.name, radius)
        blocks, mobs = oracle_observe(world, agent.name, radius)
        assert obs.nearby_blocks == blocks
        assert all(type(pos) is Position for _, pos in obs.nearby_blocks)
        assert obs.nearby_mobs == mobs


def test_next_timer_tick_and_skip_idle(mw_world):
    assert mw_world.next_timer_tick() is None
    late = mw_world.schedule("mob-respawn", mw_world.mobs[0], 50)
    early = mw_world.schedule("mob-respawn", mw_world.mobs[0], 20)
    assert mw_world.next_timer_tick() == 20
    mw_world.cancel(early)
    assert mw_world.next_timer_tick() == 20  # a cancelled top only shortens a jump
    with pytest.raises(WorldError):
        mw_world.skip_idle(21)  # would step over a queued timer
    with pytest.raises(WorldError):
        mw_world.skip_idle(0)
    mw_world.skip_idle(20)
    assert mw_world.tick == 19
    mw_world.step_tick()
    assert mw_world.tick == 20 and mw_world.next_timer_tick() == late.fire_tick == 50


def test_observe_copies_inventory(mw_world):
    obs = mw_world.observe("Ryn")
    obs.inventory.add("wheat", 5)
    assert mw_world.agent("Ryn").inventory.count("wheat") == 0


def test_state_hash_stable_and_sensitive(mw_world):
    h1 = mw_world.state_hash()
    assert h1 == mw_world.state_hash()
    mw_world.agent("Ryn").inventory.add("wheat", 1)
    assert mw_world.state_hash() != h1


def test_layout_rejects_out_of_bounds_cells():
    bad = """
schema_version: 1
name: tiny
width: 4
depth: 4
areas:
  red: [0, 0, 1, 3]
  blue: [2, 0, 3, 3]
agents:
  - {name: A, team: red, start: [0, 0]}
  - {name: B, team: blue, start: [3, 3]}
cells:
  - {kind: slime_block, at: [9, 9]}
"""
    with pytest.raises(LayoutError):
        load_layout_text(bad)


TINY_ENTRIES = {
    "cells": "{kind: slime_block, at: [1, 1], stage: 0}",
    "agents": "{name: A, team: red, start: [0, 0]}",
    "servers": "{name: S, team: red, at: [1, 0]}",
    "mobs": "{kind: pig, at: [2, 2]}",
    "containers": "{at: [0, 3], stacks: {egg: 1}}",
}


def tiny_layout(bad: str = "") -> str:
    """A valid four-by-four layout with one entry of each kind.  ``bad``
    names the top level or an entry kind that gets a stray ``plot`` key."""
    lines = ["schema_version: 1", "name: tiny", "width: 4", "depth: 4",
             "areas: {red: [0, 0, 1, 3], blue: [2, 0, 3, 3]}"]
    if bad == "top":
        lines.append("plot: wheat")
    for key, entry in TINY_ENTRIES.items():
        if key == bad:
            entry = entry[:-1] + ", plot: wheat}"
        lines.append(f"{key}: [{entry}]")
    return "\n".join(lines)


def test_layout_rejects_unknown_keys():
    assert load_layout_text(tiny_layout()).name == "tiny"
    with pytest.raises(LayoutError, match=r"unknown layout keys: \['plot'\]"):
        load_layout_text(tiny_layout("top"))
    for entry in TINY_ENTRIES:
        with pytest.raises(LayoutError, match=rf"unknown keys in a {entry} entry: \['plot'\]"):
            load_layout_text(tiny_layout(entry))


def test_layout_rejects_overlapping_team_areas():
    overlapping = tiny_layout().replace("blue: [2, 0, 3, 3]", "blue: [1, 2, 3, 3]")
    with pytest.raises(LayoutError, match="areas for 'red' and 'blue' overlap"):
        load_layout_text(overlapping)
    touching = tiny_layout().replace("red: [0, 0, 1, 3]", "red: [0, 0, 1, 1]")
    assert load_layout_text(touching.replace("blue: [2, 0, 3, 3]", "blue: [0, 2, 3, 3]"))


@pytest.mark.parametrize("layout", ["mushroom_war", "dash_and_dine", "tiny", "touching"])
def test_owner_table_matches_the_rectangle_scan(layout):
    if layout in ("tiny", "touching"):
        text = tiny_layout()
        if layout == "touching":  # leaves a neutral corner
            text = text.replace("red: [0, 0, 1, 3]", "red: [0, 0, 1, 1]")
            text = text.replace("blue: [2, 0, 3, 3]", "blue: [0, 2, 3, 3]")
        loaded = load_layout_text(text)
    else:
        loaded = load_builtin_layout(layout)
    world = new_world(loaded, 0)
    cells = [(x, z) for x in range(loaded.width) for z in range(loaded.depth)]
    assert loaded.owners == {pos: area_of(loaded.areas, *pos) for pos in cells}
    assert all(world.area_of(*pos) == area_of(loaded.areas, *pos) for pos in cells)
    assert {world.area_of(*pos) for pos in cells} >= set(loaded.areas)
    for pos in [(-1, 0), (0, -1), (loaded.width, 0), (0, loaded.depth), (-5, 99)]:
        assert world.area_of(*pos) == "neutral"


def oracle_index(world):
    """The cell index rebuilt from ``world.cells``: kind, then owning
    area, then positions."""
    index = {}
    for pos, cell in world.cells.items():
        index.setdefault(cell.kind, {}).setdefault(world.area_of(*pos), set()).add(pos)
    return index


INDEX_MATCHUPS = {
    # sabotage_place/destroy in mushroom_war; transformFarm and ground items in dash_and_dine
    "mushroom_war": ("aggressive", "slimy"),
    "dash_and_dine": ("berries", "potato_cookie"),
}
INDEX_KINDS = ["air", "slime_block", "red_mushroom_block", "wheat", "sweet_berry_bush",
               "potatoes", "farmland"]


@st.composite
def block_edits(draw, scenario):
    layout = load_builtin_layout(scenario)
    key = st.tuples(st.integers(0, layout.width - 1), st.integers(0, layout.depth - 1))
    return draw(st.lists(
        st.tuples(st.sampled_from(["set", "clear"]), key, st.sampled_from(INDEX_KINDS)),
        max_size=40,
    ))


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(0, 3))
def test_cell_index_matches_the_cells_after_edits_and_an_episode(data, seed):
    for scenario, (red, blue) in INDEX_MATCHUPS.items():
        edits = data.draw(block_edits(scenario), label=scenario)
        made = []

        def edited_world(layout, seed):
            world = new_world(layout, seed)
            for op, key, kind in edits:
                if op == "set":
                    world.set_block(key, kind)
                else:
                    world.clear_block(key)
                assert world.cell_index == oracle_index(world)
            made.append(world)
            return world

        systems = {
            "red": BuiltinTeamSystem(builtin(red, scenario)),
            "blue": BuiltinTeamSystem(builtin(blue, scenario)),
        }
        with mock.patch.object(tb_runner, "new_world", edited_world):
            result = run_episode(get_scenario(scenario, duration_ticks=600), systems, seed)
        assert made[0].cell_index == oracle_index(made[0])
        if scenario == "dash_and_dine" and not edits:
            assert any(ev.payload.startswith("Converted") for ev in result.chat_log)


def test_set_block_creates_or_replaces_a_cell_at_stage_zero(mw_world):
    mw_world.set_block((0, 0), "wheat")
    mw_world.cells[(0, 0)].growth_stage = 3
    mw_world.set_block((0, 0), "farmland")
    mw_world.set_block((1, 0), "wheat")
    assert mw_world.cells[(0, 0)] == BlockCell("farmland", 0)
    assert mw_world.cells[(1, 0)] == BlockCell("wheat", 0)
    assert list(mw_world.cells)[-2:] == [(0, 0), (1, 0)]  # a replaced cell keeps its place
    assert not mw_world.pending_timers()  # growth is the rules' job, not the world's


@pytest.mark.parametrize(
    "scenario, red, blue",
    [("mushroom_war", "slimy", "aggressive"), ("dash_and_dine", "berries", "cake_beetroot")],
)
def test_an_episode_leaves_the_cached_builtin_layout_unchanged(scenario, red, blue):
    config = get_scenario(scenario, duration_ticks=600)
    assert config.layout is load_builtin_layout(scenario)  # parsed once, shared
    systems = {
        "red": BuiltinTeamSystem(builtin(red, scenario)),
        "blue": BuiltinTeamSystem(builtin(blue, scenario)),
    }
    run_episode(config, systems, 3)
    ref = resources.files("tacticbench").joinpath(f"layouts/{scenario}.yaml")
    fresh = load_layout_text(ref.read_text())
    cached = load_builtin_layout(scenario)
    assert cached.cells == fresh.cells
    assert cached.containers == fresh.containers
    assert cached.agent_starts == fresh.agent_starts
    assert cached == fresh


def test_builtin_layouts_have_mirrored_block_budgets():
    layout = load_builtin_layout("mushroom_war")
    slime = [p for p, c in layout.cells.items() if c.kind == "slime_block"]
    mushroom = [p for p, c in layout.cells.items() if c.kind == "red_mushroom_block"]
    assert len(slime) == 24  # 12 per team
    assert len(mushroom) == 24
