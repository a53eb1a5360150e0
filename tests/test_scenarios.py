"""Scenario rulebooks: regrowth gating, yields, scoring, sabotage."""
from __future__ import annotations

from random import Random

import pytest

from tacticbench.actionlang.interp import PrimitiveRequest
from tacticbench.primitives import execute
from tacticbench.scenarios import (
    DEFAULT_FOOD_POINTS,
    DEFAULT_RECIPES,
    MAX_UNIQUE_FOOD_TYPES,
    SLIME_ELIGIBILITY_MAX,
    get_scenario,
    make_rules,
    mushroom_yield,
    sabotage_transform,
)
from tacticbench.world import new_world


def make_world(scenario: str, seed: int = 0):
    config = get_scenario(scenario)
    world = new_world(config.layout, seed)
    rules = make_rules(config)
    rules.setup(world)
    return world, config, rules


def call(world, config, agent_name, name, *args):
    request = PrimitiveRequest(name, list(args))
    return execute(world, config, world.agent(agent_name), request)


def mushroom_timer_count(rules) -> int:
    return sum(1 for ev in rules.mushroom_timers.values() if not ev.cancelled)


# -- Mushroom War regrowth ----------------------------------------------------


def test_mushrooms_do_not_regrow_above_slime_threshold():
    world, config, rules = make_world("mushroom_war")
    assert rules.slime_count(world, "red") == 12 > SLIME_ELIGIBILITY_MAX
    call(world, config, "Ryn", "mineBlock", "red_mushroom_block", 3, "own")
    assert mushroom_timer_count(rules) == 0


def test_mushrooms_regrow_once_slime_is_cleared():
    world, config, rules = make_world("mushroom_war")
    call(world, config, "Ryn", "mineBlock", "slime_block", 5, "own")
    assert rules.regrow_eligible(world, "red")
    call(world, config, "Ryn", "mineBlock", "red_mushroom_block", 3, "own")
    assert mushroom_timer_count(rules) == 3


def test_clearing_slime_backfills_timers_for_missing_mushrooms():
    world, config, rules = make_world("mushroom_war")
    call(world, config, "Ryn", "mineBlock", "red_mushroom_block", 4, "own")
    assert mushroom_timer_count(rules) == 0
    call(world, config, "Ryn", "mineBlock", "slime_block", 5, "own")
    assert mushroom_timer_count(rules) == 4


def test_placing_slime_cancels_pending_mushroom_timers():
    world, config, rules = make_world("mushroom_war")
    call(world, config, "Ryn", "mineBlock", "slime_block", 6, "own")
    call(world, config, "Ryn", "mineBlock", "red_mushroom_block", 2, "own")
    assert mushroom_timer_count(rules) == 2
    agent = world.agent("Ryn")
    agent.inventory.add("slime_block", 2)
    call(world, config, "Ryn", "placeItem", "slime_block", 2, 2)
    call(world, config, "Ryn", "placeItem", "slime_block", 2, 3)
    assert rules.slime_count(world, "red") == SLIME_ELIGIBILITY_MAX + 1
    assert mushroom_timer_count(rules) == 0


def test_slime_regrowth_restores_only_original_cells():
    world, config, rules = make_world("mushroom_war")
    agent = world.agent("Ryn")
    agent.inventory.add("slime_block", 1)
    res = call(world, config, "Ryn", "placeItem", "slime_block", 13, 7)
    pos = res.value
    assert pos not in rules.slime_cells["red"]
    call(world, config, "Ryn", "mineBlock", "slime_block", 13, "own")
    # 12 original patch cells rescheduled; the extra placed block is not
    regrows = [
        ev for ev in world.pending_timers()
        if ev.effect == "regrow-block" and ev.target[1] == "slime_block"
    ]
    assert len(regrows) == 12
    assert pos not in {ev.target[0] for ev in regrows}


def test_slime_regrowth_can_recancel_mushroom_timers():
    world, config, rules = make_world("mushroom_war")
    call(world, config, "Ryn", "mineBlock", "slime_block", 5, "own")
    call(world, config, "Ryn", "mineBlock", "red_mushroom_block", 1, "own")
    assert mushroom_timer_count(rules) == 1
    # let slime grow back past the threshold; the timer must die with it
    for _ in range(200):
        world.step_tick()
        if not rules.regrow_eligible(world, "red"):
            break
    assert not rules.regrow_eligible(world, "red")
    assert mushroom_timer_count(rules) == 0


def test_mushroom_yield_distribution():
    rng = Random(99)
    counts = [0, 0, 0]
    n = 30_000
    for _ in range(n):
        counts[mushroom_yield(rng)] += 1
    mean = (counts[1] + 2 * counts[2]) / n
    assert abs(mean - 1.0) < 0.03
    for c in counts:
        assert abs(c / n - 1 / 3) < 0.02


def test_own_area_mushrooms_score_opponent_area_do_not():
    world, config, rules = make_world("mushroom_war", seed=11)
    call(world, config, "Ryn", "mineBlock", "red_mushroom_block", 12, "own")
    own_points = rules.scores["red"].points
    assert own_points == world.agent("Ryn").inventory.count("red_mushroom")
    before = rules.scores["red"].points
    call(world, config, "Ryn", "mineBlock", "red_mushroom_block", 12, "opponent")
    assert rules.scores["red"].points == before  # raiding never scores
    assert rules.scores["blue"].points == 0


# -- Dash & Dine --------------------------------------------------------------


def test_recipe_table_structure():
    assert set(DEFAULT_RECIPES) == {
        "sugar", "bread", "cookie", "beetroot_soup", "pumpkin_pie",
        "golden_carrot", "cake", "milk_bucket",
    }
    assert DEFAULT_RECIPES["milk_bucket"].needs_mob == "cow"
    assert DEFAULT_RECIPES["cake"].needs_table
    assert DEFAULT_RECIPES["cake"].returns == {"bucket": 1}
    # every recipe input is either a raw resource or another craftable
    for recipe in DEFAULT_RECIPES.values():
        assert recipe.output_count >= 1
        assert all(n >= 1 for n in recipe.inputs.values())


def test_food_points_monotone_with_complexity():
    assert DEFAULT_FOOD_POINTS["sweet_berries"] < DEFAULT_FOOD_POINTS["bread"]
    assert DEFAULT_FOOD_POINTS["bread"] < DEFAULT_FOOD_POINTS["cake"]


def test_unique_food_rule_caps_at_three_types():
    world, config, rules = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    for item in ("sweet_berries", "bread", "cookie", "cake"):
        agent.inventory.add(item, 1)
    for item in ("sweet_berries", "bread", "cookie"):
        call(world, config, "Ryn", "giveToPlayer", item, "Red_Server", 1)
    points_after_three = rules.scores["red"].points
    assert points_after_three == 1 + 6 + 1
    call(world, config, "Ryn", "giveToPlayer", "cake", "Red_Server", 1)
    assert rules.scores["red"].points == points_after_three  # 4th type is worth 0
    assert len(rules.scores["red"].submitted_types) == MAX_UNIQUE_FOOD_TYPES


def test_repeat_submissions_of_known_types_keep_scoring():
    world, config, rules = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    agent.inventory.add("bread", 3)
    call(world, config, "Ryn", "giveToPlayer", "bread", "Red_Server", 1)
    call(world, config, "Ryn", "giveToPlayer", "bread", "Red_Server", 2)
    assert rules.scores["red"].points == 18


def test_non_food_hand_ins_score_nothing():
    world, config, rules = make_world("dash_and_dine")
    world.agent("Ryn").inventory.add("wheat", 3)
    call(world, config, "Ryn", "giveToPlayer", "wheat", "Red_Server", 3)
    assert rules.scores["red"].points == 0
    assert rules.scores["red"].submitted_types == set()


def test_crops_advance_through_growth_stages():
    world, config, rules = make_world("dash_and_dine", seed=5)
    call(world, config, "Ryn", "farm", "harvest", "sweet_berry_bush")
    immature = [p for p, c in world.cells.items()
                if c.kind == "sweet_berry_bush" and c.growth_stage == 0]
    assert immature
    for _ in range(2400):
        world.step_tick()
    stages = [world.cells[p].growth_stage for p in immature]
    assert all(s == 3 for s in stages)  # plenty of time to fully regrow


def test_sabotage_transform_drops_mature_yield_on_the_ground():
    world, config, rules = make_world("dash_and_dine")
    agent = world.agent("Ryn")
    converted = sabotage_transform(world, "pumpkin", "beetroots", agent)
    assert converted == 18
    assert world.ground_items  # mature crops leave their drops behind
    total = sum(inv.count("pumpkin") for inv in world.ground_items.values())
    assert total == 18


def test_sabotage_transform_without_sources_raises():
    world, config, _ = make_world("dash_and_dine")
    sabotage_transform(world, "melon", "beetroots", world.agent("Ryn"))
    with pytest.raises(ValueError):
        sabotage_transform(world, "melon", "beetroots", world.agent("Ryn"))


# -- config -------------------------------------------------------------------


def test_report_scale_per_scenario():
    assert get_scenario("mushroom_war").report_scale == 1.0
    assert get_scenario("dash_and_dine").report_scale == 0.1


def test_config_overrides_validate_keys():
    cfg = get_scenario("mushroom_war", duration_ticks=100)
    assert cfg.duration_ticks == 100
    with pytest.raises(ValueError):
        get_scenario("mushroom_war", bogus=1)
    with pytest.raises(ValueError):
        get_scenario("dash_and_dine", report_scale=0)
    with pytest.raises(ValueError):
        get_scenario("no_such_scenario")


def test_mushroom_war_has_no_recipes_or_furnaces():
    cfg = get_scenario("mushroom_war")
    assert cfg.recipes == {} and cfg.smelt_map == {}
    assert cfg.layout.furnaces == []
