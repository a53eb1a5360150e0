"""Per-primitive semantics: costs, failures, side effects."""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tacticbench.actionlang import ActionProgram, Call, validate
from tacticbench.actionlang.interp import PrimitiveRequest
from tacticbench.actionlang.table import CATALOG
from tacticbench.layout import load_layout_text
from tacticbench.primitives import (
    _HANDLERS,
    FAIL_TICKS,
    MINE_TICKS_PER_BLOCK,
    SEARCH_RADIUS,
    PrimResult,
    _nearest_cell,
    _pickup_ground_items,
    _walk,
    execute,
)
from tacticbench.scenarios import SMELT_TICKS, get_scenario, make_rules
from tacticbench.world import Inventory, Position, new_world


def make_world(scenario: str, seed: int = 0):
    config = get_scenario(scenario)
    world = new_world(config.layout, seed)
    rules = make_rules(config)
    rules.setup(world)
    return world, config, rules


def req(name: str, *args) -> PrimitiveRequest:
    return PrimitiveRequest(name, list(args))


def run(world, config, agent_name, request):
    return execute(world, config, world.agent(agent_name), request)


def advance(world, ticks: int) -> None:
    for _ in range(ticks):
        world.step_tick()


# -- mineBlock ----------------------------------------------------------------


def test_mine_block_collects_and_clears_cells():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("mineBlock", "slime_block", 3, "own"))
    assert res.ok
    assert world.agent("Ryn").inventory.count("slime_block") == 3
    assert res.duration >= 3 * MINE_TICKS_PER_BLOCK  # plus travel


def test_mine_block_own_area_never_crosses_sides():
    world, config, _ = make_world("mushroom_war")
    run(world, config, "Ryn", req("mineBlock", "slime_block", 12, "own"))
    # all 12 red slime cells gone, all 12 blue ones untouched
    blue = [p for p, c in world.cells.items() if c.kind == "slime_block"]
    assert len(blue) == 12
    assert all(world.area_of(*p) == "blue" for p in blue)


def test_mine_block_failure_costs_fixed_ticks_and_broadcasts():
    world, config, _ = make_world("mushroom_war")
    before = len(world.chat_log)
    res = run(world, config, "Ryn", req("mineBlock", "wheat", 1))
    assert not res.ok
    assert res.duration == FAIL_TICKS
    assert len(world.chat_log) == before + 1
    assert "No wheat nearby" in world.chat_log[-1].payload


def test_mine_block_rejects_bad_area_token():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("mineBlock", "slime_block", 1, "enemy"))
    assert not res.ok and "area" in res.message


def test_unminable_blocks_fail():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("mineBlock", "chest", 1))
    assert not res.ok and "cannot be mined" in res.message


# -- craftItem ----------------------------------------------------------------


def test_craft_reports_missing_ingredients():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.inventory.add("wheat", 3)
    agent.inventory.add("sugar", 2)
    res = run(world, config, "Ryn", req("craftItem", "cake", 1))
    assert not res.ok
    assert "I cannot make cake because I need:" in res.message
    assert "1 more egg" in res.message and "1 more milk_bucket" in res.message


def test_craft_consumes_inputs_and_returns_containers():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    for item, n in {"milk_bucket": 1, "sugar": 2, "wheat": 3, "egg": 1}.items():
        agent.inventory.add(item, n)
    res = run(world, config, "Ryn", req("craftItem", "cake", 1))
    assert res.ok
    assert agent.inventory.count("cake") == 1
    assert agent.inventory.count("bucket") == 1  # empty bucket comes back
    assert agent.inventory.count("wheat") == 0


def test_craft_milk_needs_a_live_cow():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.inventory.add("bucket", 1)
    res = run(world, config, "Ryn", req("craftItem", "milk_bucket", 1))
    assert res.ok and agent.inventory.count("milk_bucket") == 1
    for mob in world.mobs:
        mob.alive = False
    world.agent("Raze").inventory.add("bucket", 1)
    res = run(world, config, "Raze", req("craftItem", "milk_bucket", 1))
    assert not res.ok and "no cow nearby" in res.message


def test_craft_unavailable_in_mushroom_war():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("craftItem", "bread", 1))
    assert not res.ok and "not available" in res.message


# -- smeltItem ----------------------------------------------------------------


def test_smelt_completes_exactly_after_fixed_ticks():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.position = Position(18, 0, 6)  # standing at a furnace: zero travel
    agent.inventory.add("potato", 1)
    res = run(world, config, "Ryn", req("smeltItem", "potato", "coal", 1))
    assert res.ok
    advance(world, SMELT_TICKS - 1)
    assert agent.inventory.count("baked_potato") == 0
    world.step_tick()
    assert agent.inventory.count("baked_potato") == 1


def test_smelt_is_serial_per_furnace():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.position = Position(18, 0, 6)
    agent.inventory.add("potato", 2)
    run(world, config, "Ryn", req("smeltItem", "potato", "coal", 2))
    advance(world, SMELT_TICKS)
    assert agent.inventory.count("baked_potato") == 1
    advance(world, SMELT_TICKS)
    assert agent.inventory.count("baked_potato") == 2


def test_smelt_fails_when_all_furnaces_busy():
    world, config, _ = make_world("dash_and_dine")
    for furnace in world.furnaces:
        furnace.busy_until = world.tick + 500
    agent = world.agent("Ryn")
    agent.inventory.add("potato", 1)
    res = run(world, config, "Ryn", req("smeltItem", "potato", "coal", 1))
    assert not res.ok and "busy" in res.message


def test_smelt_rejects_unsmeltable_items():
    world, config, _ = make_world("dash_and_dine")
    world.agent("Ryn").inventory.add("wheat", 1)
    res = run(world, config, "Ryn", req("smeltItem", "wheat", "coal", 1))
    assert not res.ok and "cannot be smelted" in res.message


# -- farm ---------------------------------------------------------------------


def test_farm_harvest_wheat_replants_from_seed():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.inventory.add("wheat_seeds", 9)
    res = run(world, config, "Ryn", req("farm", "harvest", "wheat"))
    assert res.ok and res.value == 9  # a full patch per call
    assert agent.inventory.count("wheat") == 9
    assert agent.inventory.count("wheat_seeds") == 9  # 9 spent, 9 harvested back


def test_farm_harvest_without_seed_leaves_bare_farmland():
    world, config, _ = make_world("dash_and_dine")
    run(world, config, "Ryn", req("farm", "harvest", "carrots"))
    # carrots replant from the harvested carrot itself, so plots stay planted
    planted = [c for c in world.cells.values() if c.kind == "carrots"]
    assert len(planted) == 18  # both sides still have their patches


def test_farm_harvest_bush_regrows_in_place():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("farm", "harvest", "sweet_berry_bush"))
    assert res.ok
    bushes = [c for c in world.cells.values() if c.kind == "sweet_berry_bush"]
    assert len(bushes) == 8  # bushes persist at stage 0
    assert world.agent("Ryn").inventory.count("sweet_berries") == 16


def test_farm_harvest_nothing_mature_fails():
    world, config, rules = make_world("dash_and_dine")
    for cell in world.cells.values():
        if cell.kind == "wheat":
            cell.growth_stage = 0
    res = run(world, config, "Ryn", req("farm", "harvest", "wheat"))
    assert not res.ok and "No mature wheat" in res.message


def test_farm_unknown_crop_fails():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("farm", "harvest", "kelp"))
    assert not res.ok and "Unknown crop" in res.message


# -- killMob / giveToPlayer ---------------------------------------------------


def test_kill_mob_drops_and_schedules_respawn():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("killMob", "pig", 300))
    assert res.ok
    assert world.agent("Ryn").inventory.count("raw_porkchop") == 1
    assert sum(1 for m in world.mobs if m.alive) == 1
    assert any(ev.effect == "mob-respawn" for ev in world.pending_timers())


def test_kill_mob_absent_kind_costs_the_timeout():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("killMob", "cow", 120))
    assert not res.ok and res.duration == 120


def test_give_to_server_scores_points():
    world, config, rules = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.inventory.add("sweet_berries", 4)
    res = run(world, config, "Ryn", req("giveToPlayer", "sweet_berries", "Red_Server", -1))
    assert res.ok and "+4 points" in res.message
    assert rules.scores["red"].points == 4
    assert agent.inventory.count("sweet_berries") == 0


def test_give_to_opponent_server_scores_nothing():
    world, config, rules = make_world("dash_and_dine")
    world.agent("Ryn").inventory.add("sweet_berries", 4)
    res = run(world, config, "Ryn", req("giveToPlayer", "sweet_berries", "Blue_Server", -1))
    assert res.ok and "points" not in res.message
    assert rules.scores["blue"].points == 0


def test_give_to_teammate_moves_items():
    world, config, _ = make_world("dash_and_dine")
    world.agent("Ryn").inventory.add("wheat", 5)
    res = run(world, config, "Ryn", req("giveToPlayer", "wheat", "Raze", 2))
    assert res.ok
    assert world.agent("Raze").inventory.count("wheat") == 2
    assert world.agent("Ryn").inventory.count("wheat") == 3


def test_give_nothing_held_fails():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("giveToPlayer", "cake", "Red_Server", 1))
    assert not res.ok and "I have no cake" in res.message


# -- useChest -----------------------------------------------------------------


def test_chest_get_deposit_check_round_trip():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    res = run(world, config, "Ryn", req("useChest", "get", 9, 17, "bowl", 2))
    assert res.ok and agent.inventory.count("bowl") == 2
    res = run(world, config, "Ryn", req("useChest", "deposit", 9, 17, "bowl", 1))
    assert res.ok and agent.inventory.count("bowl") == 1
    res = run(world, config, "Ryn", req("useChest", "check", 9, 17))
    assert res.ok and res.value == {"bowl": 7}


def test_chest_get_caps_at_contents():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("useChest", "get", 12, 17, "bucket", 99))
    assert res.ok and world.agent("Ryn").inventory.count("bucket") == 3


def test_chest_negative_counts_fail_and_move_nothing():
    world, config, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    chest = world.containers[(9, 17)]
    assert chest.count("bowl") == 8
    res = run(world, config, "Ryn", req("useChest", "get", 9, 17, "bowl", -2))
    assert not res.ok
    assert chest.count("bowl") == 8 and agent.inventory.count("bowl") == 0
    agent.inventory.add("wheat", 1)
    res = run(world, config, "Ryn", req("useChest", "deposit", 9, 17, "wheat", -3))
    assert not res.ok
    assert agent.inventory.count("wheat") == 1 and chest.count("wheat") == 0


def test_chest_missing_location_fails():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("useChest", "get", 0, 0, "bowl", 1))
    assert not res.ok and "no chest" in res.message


# -- signal -------------------------------------------------------------------


def test_signal_send_wakes_waiting_teammate_same_tick():
    world, config, _ = make_world("dash_and_dine")
    raze = world.agent("Raze")
    res = run(world, config, "Raze", req("signal", "wait", "Ryn", 200))
    assert res.blocking
    assert raze.waiting_for == "Ryn"
    assert raze.wait_deadline == world.tick + 200
    res = run(world, config, "Ryn", req("signal", "send", "Raze"))
    assert res.ok
    assert raze.waiting_for is None
    assert raze.busy_until == world.tick
    assert any("Signal received from Ryn" in ev.payload for ev in world.chat_log)


def test_signal_send_before_wait_is_buffered():
    world, config, _ = make_world("dash_and_dine")
    run(world, config, "Ryn", req("signal", "send", "Raze"))
    res = run(world, config, "Raze", req("signal", "wait", "any", 200))
    assert res.ok and not res.blocking
    assert "Signal received from Ryn" in res.message


def test_signal_to_opponent_fails():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("signal", "send", "Byte"))
    assert not res.ok and "not a teammate" in res.message


# -- placeItem / transformFarm -------------------------------------------------


def test_place_item_consumes_inventory_and_fills_a_cell():
    world, config, _ = make_world("mushroom_war")
    agent = world.agent("Ryn")
    agent.inventory.add("slime_block", 1)
    res = run(world, config, "Ryn", req("placeItem", "slime_block", 20, 7))
    assert res.ok
    x, z = res.value
    assert max(abs(x - 20), abs(z - 7)) <= 2  # placed within radius 2 of the ask
    assert world.cells[(x, z)].kind == "slime_block"
    assert agent.inventory.count("slime_block") == 0


def test_place_item_without_stock_fails():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("placeItem", "slime_block", 20, 7))
    assert not res.ok and "I have no slime_block" in res.message


def test_transform_farm_requires_hoe_for_bush_conversion():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Byte", req("transformFarm", "sweet_berry_bush", "potatoes"))
    assert not res.ok and "requires a hoe" in res.message
    world.agent("Byte").inventory.add("hoe", 1)
    res = run(world, config, "Byte", req("transformFarm", "sweet_berry_bush", "potatoes"))
    assert res.ok and res.value == 8
    assert not any(c.kind == "sweet_berry_bush" for c in world.cells.values())


def test_transform_farm_converts_whole_crop_kind():
    world, config, _ = make_world("dash_and_dine")
    res = run(world, config, "Ryn", req("transformFarm", "melon", "beetroots"))
    assert res.ok and res.value == 18  # both sides
    assert not any(c.kind == "melon" for c in world.cells.values())


# -- argument plumbing ---------------------------------------------------------


def test_bad_argument_types_fail_gracefully():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("mineBlock", 5, "slime_block"))
    assert not res.ok and "bad argument" in res.message


def test_unknown_primitive_fails():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("teleport", "home"))
    assert not res.ok and "Unknown primitive" in res.message


def test_every_failure_costs_at_least_one_tick():
    world, config, _ = make_world("mushroom_war")
    res = run(world, config, "Ryn", req("mineBlock", "slime_block", 0))
    assert not res.ok and res.duration >= 1


# -- the one call check -------------------------------------------------------


ARG_VALUES = {"str": st.text(max_size=6), "int": st.integers(-3, 12)}


@st.composite
def calls(draw):
    """A catalog or unknown name with 0-6 str/int/bool args; for a catalog
    name, half the time args of the kinds it takes, so both outcomes of the
    check occur often."""
    name = draw(st.sampled_from(sorted(CATALOG) + ["teleport", "minEblock", ""]))
    spec = CATALOG.get(name)
    if spec is not None and draw(st.booleans()):
        kinds = spec.arg_kinds[: draw(st.integers(spec.min_args, spec.max_args))]
        return name, [draw(ARG_VALUES[kind]) for kind in kinds]
    any_arg = st.one_of(ARG_VALUES["str"], ARG_VALUES["int"], st.booleans())
    return name, draw(st.lists(any_arg, max_size=6))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["mushroom_war", "dash_and_dine"]), calls())
def test_validate_and_execute_apply_one_call_check(scenario, call):
    name, args = call
    world, config, _ = make_world(scenario)
    agent = world.agent("Ryn")
    position, inventory = agent.position, agent.inventory.copy()
    issues = validate(ActionProgram([Call(name, args, 3, 5)]), config.primitive_table)
    reached = []

    def handler(world, config, agent, args):
        reached.append(args)
        return PrimResult(ok=True, message="reached", duration=1)

    with mock.patch.dict(_HANDLERS, dict.fromkeys(_HANDLERS, handler)):
        res = execute(world, config, agent, req(name, *args))
    if issues:
        assert len(issues) == 1 and (issues[0].line, issues[0].col) == (3, 5)
        assert not reached
        assert (res.ok, res.message, res.duration) == (False, issues[0].message, FAIL_TICKS)
        assert world.chat_log[-1].payload == issues[0].message
        assert agent.position == position and agent.inventory == inventory
    else:
        assert reached == [args] and res.message == "reached"


# -- nearest-cell search -------------------------------------------------------


def oracle_nearest_cells(world, agent, kind, area="any", min_stage=0):
    """The scan-and-sort that ``_nearest_cell`` replaced: every ``kind`` cell
    at ``min_stage`` or later within ``SEARCH_RADIUS`` as
    ``(distance, (x, z))``, nearest first."""
    ax, az = agent.position.x, agent.position.z
    out = []
    for (x, z), cell in world.cells.items():
        if cell.kind != kind or cell.growth_stage < min_stage:
            continue
        owner = world.area_of(x, z)
        if area == "own" and owner != agent.team:
            continue
        if area == "opponent" and (owner == agent.team or owner == "neutral"):
            continue
        d = max(abs(x - ax), abs(z - az))
        if d <= SEARCH_RADIUS:
            out.append((d, (x, z)))
    out.sort()
    return out


KINDS = ["slime_block", "red_mushroom_block", "wheat", "farmland"]
MATCHES = [(kind, 0) for kind in KINDS] + [("wheat", 2), ("wheat", 3)]


@st.composite
def edited_worlds(draw):
    """A builtin world with cells placed at any growth stage or deleted,
    rings of one kind around a point (equal distances, so ties), and every
    agent moved, sometimes beyond ``SEARCH_RADIUS``."""
    world, _, _ = make_world(draw(st.sampled_from(["mushroom_war", "dash_and_dine"])))
    width, depth = world.layout.width, world.layout.depth
    x, z = st.integers(0, width - 1), st.integers(0, depth - 1)
    kinds = st.sampled_from(KINDS)
    for op, key, kind, stage in draw(st.lists(
        st.tuples(st.sampled_from(["place", "delete", "ring"]), st.tuples(x, z), kinds,
                  st.integers(0, 3)),
        max_size=30,
    )):
        if op == "place":
            world.set_block(key, kind)
            world.cells[key].growth_stage = stage
        elif op == "delete":
            world.clear_block(key)
        else:
            for dx, dz in ((-stage, 0), (stage, 0), (0, -stage), (0, stage), (stage, stage)):
                if world.in_bounds(key[0] + dx, key[1] + dz):
                    world.set_block((key[0] + dx, key[1] + dz), kind)
                    world.cells[(key[0] + dx, key[1] + dz)].growth_stage = 3
    far = st.integers(-SEARCH_RADIUS - 20, width + SEARCH_RADIUS + 20)
    for agent in world.agents:
        agent.position = Position(draw(st.one_of(x, far)), 0, draw(z))
    return world


@settings(max_examples=150, deadline=None)
@given(edited_worlds())
def test_nearest_cell_matches_scan_and_sort_oracle(world):
    for agent in world.agents:
        for kind, min_stage in MATCHES:
            for area in ("any", "own", "opponent"):
                want = oracle_nearest_cells(world, agent, kind, area, min_stage)
                got = _nearest_cell(world, agent, kind, area, min_stage)
                assert got == (want[0][1] if want else None)


def test_nearest_cell_breaks_distance_ties_on_x_then_z():
    world, _, _ = make_world("dash_and_dine")
    for key in list(world.cells):
        world.clear_block(key)
    agent = world.agent("Ryn")
    agent.position = Position(10, 0, 5)
    for key in [(12, 5), (10, 7), (10, 3), (8, 7), (8, 3)]:  # all at distance 2
        world.set_block(key, "wheat")
    assert _nearest_cell(world, agent, "wheat") == (8, 3)
    assert oracle_nearest_cells(world, agent, "wheat")[0][1] == (8, 3)


def test_ground_stacks_in_reach_are_picked_up_in_ground_item_order():
    world, _, _ = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.position = Position(10, 0, 5)
    agent.inventory = Inventory()
    # dropped right of the agent first, so probing x ascending would invert the order
    world.ground_items[(11, 6)] = Inventory({"wheat": 1})
    world.ground_items[(12, 5)] = Inventory({"egg": 1})  # out of reach
    world.ground_items[(9, 4)] = Inventory({"carrot": 2, "beetroot": 1})
    _pickup_ground_items(world, agent)
    assert list(agent.inventory.stacks.items()) == [("wheat", 1), ("carrot", 2), ("beetroot", 1)]
    assert list(world.ground_items) == [(12, 5)]
    agent.position = Position(11, 0, 4)
    _pickup_ground_items(world, agent)
    assert agent.inventory.count("egg") == 1 and not world.ground_items


def oracle_walk(world, agent, x: int, z: int) -> int:
    """``_walk`` as it was with builtin calls: clamp each axis with
    ``max(-1, min(1, ...))``, travel as a ``max`` of ``abs``, and pick up
    ground items after every walk."""
    ax, az = agent.position.x, agent.position.z
    nx = x + max(-1, min(1, ax - x))
    nz = z + max(-1, min(1, az - z))
    travel = max(abs(ax - nx), abs(az - nz))
    agent.position = world.layout.positions[nx, nz]
    _pickup_ground_items(world, agent)
    return travel


WALK_GRID = """schema_version: 1
name: walk
width: 7
depth: 5
areas: {red: [0, 0, 2, 4], blue: [4, 0, 6, 4]}
agents: [{name: A, team: red, start: [0, 0]}]"""
# dropped out of (x, z) order, so the pickup order is the ground-item
# order; a stop at (1, 1) reaches two stacks
WALK_GROUND = {(5, 1): {"wheat": 1}, (1, 2): {"beetroot": 1, "egg": 1}, (0, 0): {"egg": 2},
               (6, 4): {"carrot": 1}}


@pytest.mark.parametrize("ground", [{}, WALK_GROUND])
def test_walk_matches_the_builtin_call_formula_on_every_pair(ground):
    world = new_world(load_layout_text(WALK_GRID), 0)
    agent = world.agent("A")
    cells = list(world.layout.positions)
    picked = 0

    def walk(how, start, target):
        agent.position = world.layout.positions[start]
        agent.inventory = Inventory()
        world.ground_items = {pos: Inventory(stacks) for pos, stacks in ground.items()}
        travel = how(world, agent, *target)
        return agent.position, travel, list(agent.inventory.items()), list(world.ground_items)

    for start in cells:
        for target in cells:
            got = walk(_walk, start, target)
            assert got == walk(oracle_walk, start, target), (start, target)
            picked += bool(got[2])
    if ground:
        assert 0 < picked < len(cells) ** 2
