"""Built-in scripted opponents and the random baseline."""
from __future__ import annotations

from functools import partial
from random import Random

import pytest

import tacticbench.opponents as opponents
from tacticbench.actionlang import parse_source, pretty_print, validate
from tacticbench.actionlang.parse import Call, IfHas, Loop, Repeat
from tacticbench.opponents import (
    BuiltinTeamSystem,
    RandomTeamSystem,
    builtin,
    list_builtin,
    random_call,
    render_script,
    team_constants,
)
from tacticbench.runner import build_metadata, run_episode
from tacticbench.scenarios import get_scenario
from tacticbench.systems import AgentView
from tacticbench.world import new_world


def play(scenario: str, red_name: str, blue_name: str, seed: int = 0):
    config = get_scenario(scenario)
    systems = {
        "red": BuiltinTeamSystem(builtin(red_name, scenario)),
        "blue": BuiltinTeamSystem(builtin(blue_name, scenario)),
    }
    return run_episode(config, systems, seed)


def all_calls(program):
    out = []

    def walk(stmts):
        for s in stmts:
            if isinstance(s, Call):
                out.append(s)
            elif isinstance(s, (Loop, Repeat)):
                walk(s.body)
            elif isinstance(s, IfHas):
                walk(s.then)
                walk(s.otherwise)

    walk(program.statements)
    return out


# -- registry -----------------------------------------------------------------


def test_list_builtin_puts_idle_baseline_first():
    assert list_builtin("mushroom_war") == (
        "do_nothing", "aggressive", "balanced", "passive", "slimy",
    )
    assert list_builtin("dash_and_dine") == (
        "do_nothing", "berries", "cake_beetroot", "melon_pumpkin", "potato_cookie",
    )


def test_unknown_builtin_raises():
    with pytest.raises(ValueError):
        builtin("passive", "dash_and_dine")
    with pytest.raises(ValueError):
        builtin("nonexistent", "mushroom_war")


def test_sabotage_flags_per_opponent():
    assert not builtin("passive", "mushroom_war").sabotage_destroy
    assert not builtin("passive", "mushroom_war").sabotage_place
    assert builtin("balanced", "mushroom_war").sabotage_destroy
    assert builtin("slimy", "mushroom_war").sabotage_place
    agg = builtin("aggressive", "mushroom_war")
    assert agg.sabotage_destroy and agg.sabotage_place
    assert not builtin("melon_pumpkin", "dash_and_dine").sabotage_place


def test_every_builtin_script_renders_parses_and_validates():
    for scenario in ("mushroom_war", "dash_and_dine"):
        config = get_scenario(scenario)
        for team in ("red", "blue"):
            constants = team_constants(config.layout, team)
            for name in list_builtin(scenario):
                spec = builtin(name, scenario)
                for script in spec.scripts:
                    assets = (*script.prologues, script.primary)
                    if script.fallback:
                        assets += (script.fallback,)
                    for asset in assets:
                        program = parse_source(render_script(asset, constants))
                        assert not validate(program, config.primitive_table), (
                            f"{scenario}/{name}/{asset}"
                        )


def test_passive_scripts_never_target_the_opponent_area():
    spec = builtin("passive", "mushroom_war")
    constants = team_constants(get_scenario("mushroom_war").layout, "red")
    for script in spec.scripts:
        assets = (script.primary,) + ((script.fallback,) if script.fallback else ())
        for asset in assets:
            program = parse_source(render_script(asset, constants))
            for c in all_calls(program):
                if c.name == "mineBlock":
                    assert len(c.args) == 3 and c.args[2] == "own"


def test_slimy_scripts_never_mine_opponent_mushrooms():
    spec = builtin("slimy", "mushroom_war")
    constants = team_constants(get_scenario("mushroom_war").layout, "red")
    for script in spec.scripts:
        program = parse_source(render_script(script.primary, constants))
        for c in all_calls(program):
            if c.name == "mineBlock" and c.args[0] == "red_mushroom_block":
                assert c.args[2] == "own"


# -- per-team constants ---------------------------------------------------------


def test_team_constants_pick_own_side_resources():
    layout = get_scenario("dash_and_dine").layout
    red = team_constants(layout, "red")
    blue = team_constants(layout, "blue")
    assert red["OWN_SERVER"] == "Red_Server"
    assert blue["OWN_SERVER"] == "Blue_Server"
    assert red["BOWL_X"] == 9 and blue["BOWL_X"] == 28
    assert red["UTIL_X"] == 12 and blue["UTIL_X"] == 25
    # opponent area centers point across the corridor
    assert red["OPP_AREA_X"] > 20 and blue["OPP_AREA_X"] < 18


def test_mushroom_war_constants_have_no_server():
    constants = team_constants(get_scenario("mushroom_war").layout, "red")
    assert "OWN_SERVER" not in constants
    assert constants["OPP_AREA_X"] == 25


# -- behavior in full episodes --------------------------------------------------


def test_do_nothing_mirror_match_is_scoreless():
    result = play("mushroom_war", "do_nothing", "do_nothing", seed=3)
    assert result.scores == {"red": 0, "blue": 0}
    assert result.winner == "draw"


@pytest.mark.parametrize("scenario", ["mushroom_war", "dash_and_dine"])
def test_every_active_builtin_beats_doing_nothing(scenario):
    for name in list_builtin(scenario):
        if name == "do_nothing":
            continue
        result = play(scenario, name, "do_nothing", seed=1)
        assert result.scores["red"] > 0, name
        assert result.winner == "red", name


def test_builtin_episodes_are_seed_deterministic():
    a = play("dash_and_dine", "cake_beetroot", "berries", seed=42)
    b = play("dash_and_dine", "cake_beetroot", "berries", seed=42)
    assert a.scores == b.scores
    assert a.winner == b.winner
    assert [e.payload for e in a.chat_log] == [e.payload for e in b.chat_log]
    c = play("dash_and_dine", "cake_beetroot", "berries", seed=43)
    assert [e.payload for e in c.chat_log] != [e.payload for e in a.chat_log]


def test_policies_parse_each_script_once_and_never_change_it(monkeypatch):
    """The passive harvester errors into its fallback again and again; each
    policy still parses every asset once, runs the program unchanged, and
    plays the same episode as one that parses on every load."""
    loading = []  # (policy, asset) of the load in progress
    loads = []
    policies = {}
    parsed: dict[tuple[int, str], str] = {}  # (policy id, asset) -> program text
    real_load, real_parse = opponents._AgentPolicy._load, opponents.parse_source

    def tracked_load(self, asset):
        policies[id(self)] = self
        loads.append((id(self), asset))
        loading.append((id(self), asset))
        try:
            real_load(self, asset)
        finally:
            loading.pop()

    def counted_parse(source):
        assert loading[-1] not in parsed, f"{loading[-1][1]} parsed twice by one policy"
        program = real_parse(source)
        parsed[loading[-1]] = pretty_print(program)
        return program

    monkeypatch.setattr(opponents._AgentPolicy, "_load", tracked_load)
    monkeypatch.setattr(opponents, "parse_source", counted_parse)
    cached = play("mushroom_war", "passive", "passive", seed=0)
    assert sum(asset == "mw_harvester_fallback.act" for _, asset in loads) >= 10
    assert set(parsed) == set(loads) and len(loads) > 2 * len(parsed)
    for key, policy in policies.items():
        for asset, program in policy._programs.items():
            assert pretty_print(program) == parsed[(key, asset)]

    def fresh_load(self, asset):
        self.driver.load(real_parse(render_script(asset, self.constants)))

    monkeypatch.setattr(opponents._AgentPolicy, "_load", fresh_load)
    fresh = play("mushroom_war", "passive", "passive", seed=0)
    assert [(e.tick, e.sender, e.payload) for e in cached.chat_log] == [
        (e.tick, e.sender, e.payload) for e in fresh.chat_log
    ]
    assert cached.scores == fresh.scores


# -- random baseline -------------------------------------------------------------


def _view(scenario: str, agent: str = "Ryn") -> tuple[AgentView, object]:
    config = get_scenario(scenario)
    world = new_world(config.layout, seed=0)
    metadata = build_metadata(config)
    view = AgentView(
        tick=0,
        duration=world.duration,
        agent_name=agent,
        new_events=[],
        inventory=world.agent(agent).inventory.copy(),
        observe=partial(world.observe, agent),
    )
    return view, metadata


def test_random_call_draws_arguments_from_visible_pools():
    view, metadata = _view("mushroom_war")
    rng = Random(7)
    seen = set()
    for _ in range(300):
        c = random_call(rng, metadata.primitive_table, view, metadata)
        if c is None:
            continue
        seen.add(c.name)
        assert c.name in metadata.primitive_table.available
        if c.name == "mineBlock":
            assert c.args[0] in ("slime_block", "red_mushroom_block")
        if c.name == "killMob":
            assert c.args[0] == "pig"
        if c.name == "giveToPlayer":
            assert c.args[1] in ("Ryn", "Raze", "Byte", "Blink")
    assert "mineBlock" in seen and len(seen) >= 3


def test_random_call_is_seed_deterministic():
    view, metadata = _view("dash_and_dine")
    calls_a = [random_call(Random(5), metadata.primitive_table, view, metadata)]
    calls_b = [random_call(Random(5), metadata.primitive_table, view, metadata)]
    assert calls_a == calls_b


def test_random_team_system_plays_full_episodes_deterministically():
    config = get_scenario("mushroom_war")
    results = []
    for _ in range(2):
        systems = {
            "red": RandomTeamSystem(seed=9),
            "blue": BuiltinTeamSystem(builtin("do_nothing", "mushroom_war")),
        }
        results.append(run_episode(config, systems, seed=4))
    assert results[0].scores == results[1].scores
    assert [e.payload for e in results[0].chat_log] == [
        e.payload for e in results[1].chat_log
    ]
