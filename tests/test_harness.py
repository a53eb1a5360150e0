"""Benchmark orchestration: metrics, seeding, calibration, run folders,
exports, and the CLI surface."""
from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import tacticbench.bench as bench
import tacticbench.runner as tb_runner
from tacticbench.bench import (
    CALIBRATION_EPISODES,
    ClientConfig,
    RunConfig,
    calibrate_sigma,
    episode_seed,
    make_system,
    run_benchmark,
)
from tacticbench.cli import main as cli_main
from tacticbench.export import export_run
from tacticbench.metrics import (
    MetricsReport,
    MatchupMetrics,
    latency_stats,
    metric_values,
)
from tacticbench.actionlang import PrimitiveRequest, WaitRequest
from tacticbench.actionlang.parse import Call
from tacticbench.agents import CoTTeamSystem, TactiCrafterSystem
from tacticbench.opponents import BuiltinTeamSystem, RandomTeamSystem, builtin, list_builtin
from tacticbench.runner import build_metadata
from tacticbench.scenarios import get_scenario
from tacticbench.world import WorldState


# -- metrics -------------------------------------------------------------------


def test_metric_values_reject_bad_shapes():
    with pytest.raises(ValueError):
        metric_values([], [], 0.0)
    with pytest.raises(ValueError):
        metric_values([1.0], [1.0, 2.0], 0.0)


def test_metric_values_match_a_direct_recomputation():
    rng = Random(2024)
    for _ in range(100):
        n = rng.randint(1, 12)
        s_red = [rng.uniform(0, 40) for _ in range(n)]
        s_blue = [rng.uniform(0, 40) for _ in range(n)]
        sigma = rng.uniform(0, 30)
        v = metric_values(s_red, s_blue, sigma)
        assert v.P == pytest.approx(sum(s_red) / n)
        assert v.S == pytest.approx(sigma - sum(s_blue) / n)
        assert v.D == pytest.approx(sum(r - b for r, b in zip(s_red, s_blue)) / n)
        wins = sum(1.0 if r > b else 0.5 if r == b else 0.0 for r, b in zip(s_red, s_blue))
        assert v.W == pytest.approx(wins / n)
        assert v.n_episodes == n


def test_metrics_are_zero_sum_between_sides():
    m = MatchupMetrics("mushroom_war", "a", "b", metric_values([3, 1], [1, 1], 2.0))
    assert m.blue_values.D == -m.values.D
    assert m.values.W + m.blue_values.W == pytest.approx(1.0)


def test_report_aggregate_averages_matchups():
    report = MetricsReport(
        [
            MatchupMetrics("s", "r", "b1", metric_values([2.0], [0.0], 0.0)),
            MatchupMetrics("s", "r", "b2", metric_values([4.0], [0.0], 0.0)),
        ]
    )
    agg = report.aggregate()
    assert agg.P == 3.0 and agg.n_episodes == 2
    assert MetricsReport().aggregate() is None


def test_latency_stats_average_per_response():
    stats = latency_stats([(2.0, 100), (4.0, 100)], iteration_counts=[3, 5])
    assert stats.n_llm == 2
    assert stats.t_resp == 3.0
    assert stats.n_out == 100
    assert stats.r_tps == pytest.approx(37.5)  # mean of 50 and 25, not 200/6
    assert stats.iterations == 4.0
    assert stats.idle_seconds == pytest.approx(3.0 * 3)


def test_latency_stats_empty_and_zero_latency():
    empty = latency_stats([])
    assert empty.n_llm == 0 and empty.t_resp is None
    stats = latency_stats([(0.0, 10)])
    assert stats.r_tps is None  # no rate from an instantaneous response


# -- seeding and config ----------------------------------------------------------


def test_episode_seed_is_stable_and_distinct():
    a = episode_seed(0, "mushroom_war", "passive", 0, 0)
    assert a == episode_seed(0, "mushroom_war", "passive", 0, 0)
    variants = {
        episode_seed(s, sc, m, r, e)
        for s in (0, 1)
        for sc in ("mushroom_war", "dash_and_dine")
        for m in ("passive", "berries")
        for r in (0, 1)
        for e in (0, 1)
    }
    assert len(variants) == 32


def test_run_config_rejects_unknown_keys_and_values():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_dict({"client": {"bogus": 1}})
    with pytest.raises(ValueError, match="client"):
        RunConfig.from_dict({"client": "mock"})
    with pytest.raises(ValueError):
        RunConfig(episodes=0)
    with pytest.raises(ValueError):
        RunConfig(scenarios=["atlantis"])
    with pytest.raises(ValueError, match="duplicate scenarios"):
        RunConfig(scenarios=["mushroom_war", "mushroom_war"])
    with pytest.raises(ValueError, match="duplicate opponents"):
        RunConfig.from_dict({"opponents": ["passive", "do_nothing", "passive"]})


def test_run_config_yaml_round_trip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "scenarios: [mushroom_war]\nepisodes: 2\nrepeats: 1\nseed: 7\n"
        "red_system: 'builtin:passive'\nclient: {kind: mock, latency: 0.1}\n"
    )
    config = RunConfig.from_yaml(path)
    assert config.scenarios == ["mushroom_war"]
    assert config.episodes == 2 and config.seed == 7
    assert config.client.latency == 0.1
    assert config.opponents_for("mushroom_war") == [
        "do_nothing", "aggressive", "balanced", "passive", "slimy",
    ]


def test_client_config_build_variants():
    assert ClientConfig("mock").build() is not None
    http = ClientConfig("http", base_url="http://x", model="m").build()
    assert http.model == "m"
    with pytest.raises(ValueError):
        ClientConfig("http").build()
    with pytest.raises(ValueError):
        ClientConfig("telepathy").build()


def test_make_system_variants():
    factory = ClientConfig("mock").build
    assert isinstance(make_system("tacticrafter", "mushroom_war", factory), TactiCrafterSystem)
    assert isinstance(make_system("cot", "mushroom_war", factory), CoTTeamSystem)
    assert isinstance(make_system("random", "mushroom_war", factory, 3), RandomTeamSystem)
    assert isinstance(make_system("builtin:passive", "mushroom_war", factory), BuiltinTeamSystem)
    with pytest.raises(ValueError):
        make_system("psychic", "mushroom_war", factory)


# -- calibration -------------------------------------------------------------------


def test_calibration_uses_cache_on_second_call(tmp_path, monkeypatch):
    cache = tmp_path / "calibration.json"
    sigma = calibrate_sigma("mushroom_war", "do_nothing", 0, cache)
    assert sigma == 0.0  # an idle opponent scores nothing unopposed
    stored = json.loads(cache.read_text())
    assert len(stored) == 1 and list(stored.values()) == [0.0]

    def boom(*args, **kwargs):
        raise AssertionError("cache miss: episode was re-simulated")

    monkeypatch.setattr(bench, "run_episode", boom)
    assert calibrate_sigma("mushroom_war", "do_nothing", 0, cache) == 0.0


def test_calibration_cache_keeps_run_seeds_apart(tmp_path):
    cache = tmp_path / "calibration.json"
    seed_zero = calibrate_sigma("mushroom_war", "passive", 0, cache)
    seed_seven = calibrate_sigma("mushroom_war", "passive", 7, cache)
    assert seed_seven == calibrate_sigma("mushroom_war", "passive", 7)
    assert seed_seven != seed_zero
    stored = json.loads(cache.read_text())
    assert sorted(stored.values()) == sorted([seed_zero, seed_seven])
    # export.py finds a matchup's sigma by this prefix
    assert all(key.startswith("mushroom_war:passive:") for key in stored)


def test_calibration_cache_misses_after_a_script_edit(tmp_path, monkeypatch):
    cache = tmp_path / "calibration.json"
    calibrate_sigma("mushroom_war", "passive", 0, cache)
    played = []
    real_run, real_text = bench.run_episode, bench.script_text

    def counting(*args, **kwargs):
        played.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(bench, "run_episode", counting)
    calibrate_sigma("mushroom_war", "passive", 0, cache)
    assert not played  # unchanged inputs hit the cache
    monkeypatch.setattr(
        bench, "script_text",
        lambda asset: real_text(asset) + ("# edited\n" if asset == "mw_harvester.act" else ""),
    )
    calibrate_sigma("mushroom_war", "passive", 0, cache)
    assert len(played) == CALIBRATION_EPISODES
    assert len(json.loads(cache.read_text())) == 2


def test_calibration_key_covers_the_rule_constants():
    base = get_scenario("dash_and_dine")
    recipes = {**base.recipes, "bread": dataclasses.replace(base.recipes["bread"], output_count=2)}
    edited = [
        dataclasses.replace(base, duration_ticks=2399),
        dataclasses.replace(base, wait_ticks=81),
        dataclasses.replace(base, recipes=recipes),
        dataclasses.replace(base, smelt_map={**base.smelt_map, "potato": "bread"}),
        dataclasses.replace(base, food_points={**base.food_points, "cake": 15}),
        dataclasses.replace(base, regrow=dataclasses.replace(base.regrow, crop_advance_p=0.06)),
        dataclasses.replace(base, report_scale=0.2),
        dataclasses.replace(base, primitive_table=dataclasses.replace(
            base.primitive_table, available=base.primitive_table.available - {"killMob"})),
    ]
    keys = [bench._calibration_key(config, "berries", 0) for config in edited]
    assert bench._calibration_key(base, "berries", 0) not in keys
    assert len(set(keys)) == len(keys)
    # export.py finds a matchup's sigma by this prefix
    assert all(key.startswith("dash_and_dine:berries:0:") for key in keys)


def test_calibration_key_is_the_same_under_any_hash_seed():
    code = (
        "from tacticbench.bench import _calibration_key\n"
        "from tacticbench.scenarios import get_scenario\n"
        "for s, o in (('dash_and_dine', 'berries'), ('mushroom_war', 'slimy')):\n"
        "    print(_calibration_key(get_scenario(s), o, 3))\n"
    )
    src = str(Path(bench.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("0", "1", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        outs.append(run.stdout)
    assert len(outs[0].split()) == 2 and outs[0] == outs[1] == outs[2]


def test_a_mock_run_never_imports_requests():
    # only HttpChatClient needs requests, and importing it costs a mock run
    # about as much as the rest of the package
    code = (
        "import sys\n"
        "import tacticbench\n"
        "from tacticbench.bench import ClientConfig, RunConfig\n"
        "config = RunConfig(scenarios=['mushroom_war'], client=ClientConfig(kind='mock'))\n"
        "config.client.build()\n"
        "print('requests' in sys.modules)\n"
    )
    src = str(Path(bench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["False"]


def test_calibration_runs_exactly_twenty_episodes(monkeypatch):
    seen = []
    real = bench.run_episode

    def counting(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "run_episode", counting)
    calibrate_sigma("mushroom_war", "do_nothing", 5)
    assert len(seen) == CALIBRATION_EPISODES


# -- protocols ------------------------------------------------------------------------


def test_protocols_keep_no_model_calls_between_episodes(monkeypatch):
    clients = []
    retained = []
    real = bench.run_episode

    def keeping_build(self):
        clients.append(bench.make_mock_client())
        return clients[-1]

    def checked(*args, **kwargs):
        # no client still holds the records of an earlier episode
        assert all(not c.calls for c in clients)
        result = real(*args, **kwargs)
        retained.append(sum(len(c.calls) for c in clients))
        return result

    monkeypatch.setattr(ClientConfig, "build", keeping_build)
    monkeypatch.setattr(bench, "run_episode", checked)
    monkeypatch.setattr(bench, "calibrate_sigma", lambda *args, **kwargs: 0.0)
    config = RunConfig(scenarios=["dash_and_dine"], opponents=["do_nothing", "berries"],
                       episodes=1, repeats=1, seed=3, red_system="tacticrafter")
    bench.adaptation_protocol(config, episodes_per_opponent=2)
    bench.self_play_protocol(config, total_episodes=2, checkpoint_every=1)
    assert len(clients) > 2 and max(retained) > 0
    assert all(not c.calls for c in clients)


# -- run folders and exports ----------------------------------------------------------


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    config = RunConfig(
        scenarios=["mushroom_war"],
        opponents=["do_nothing", "passive"],
        episodes=2,
        repeats=1,
        seed=1,
        red_system="builtin:passive",
        output_dir=str(out),
    )
    return run_benchmark(config, folder_name="mini"), config


def test_run_folder_is_complete(mini_run):
    output, _ = mini_run
    run_dir = output.run_dir
    assert output.failed_matchups == []
    assert (run_dir / "config.json").exists()
    assert (run_dir / "calibration.json").exists()
    assert (run_dir / "metrics_summary.json").exists()
    assert (run_dir / "metrics_summary.csv").read_bytes() == (
        run_dir / "matchup_matrix.csv"
    ).read_bytes()
    episodes = sorted((run_dir / "episodes").glob("*.json"))
    assert len(episodes) == 4  # 2 opponents x 1 repeat x 2 episodes
    row = json.loads(episodes[0].read_text())
    assert {"scenario", "seed", "scores", "reported", "winner", "timelines"} <= set(row)


def test_matchup_matrix_shape(mini_run):
    output, _ = mini_run
    with open(output.run_dir / "matchup_matrix.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "red", "blue", "n_episodes", "P", "S", "D", "W"]
    assert len(rows) == 3  # header + one row per matchup
    assert {r[2] for r in rows[1:]} == {"do_nothing", "passive"}


def test_timeline_rows_cover_every_tick(mini_run):
    output, _ = mini_run
    with open(output.run_dir / "timeline_mushroom_war.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["opponent", "tick", "mean", "lo", "hi"]
    assert len(rows) == 1 + 2 * 2400  # two opponents, one row per tick
    for _, _, mean, lo, hi in rows[1:]:
        assert float(lo) <= float(mean) <= float(hi)


def _top_level_files(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}


def test_export_is_reproducible(mini_run):
    output, _ = mini_run
    before = _top_level_files(output.run_dir)
    export_run(output.run_dir)
    assert _top_level_files(output.run_dir) == before


@pytest.mark.parametrize("scenarios, opponents", [
    (["mushroom_war", "dash_and_dine"], ["do_nothing"]),  # scenarios out of name order
    (["mushroom_war"], ["passive", "do_nothing"]),  # opponents out of name order
])
def test_export_rewrites_the_run_in_config_order(tmp_path, scenarios, opponents):
    config = RunConfig(scenarios=scenarios, opponents=opponents, episodes=1, repeats=1, seed=3,
                       red_system="builtin:do_nothing", output_dir=str(tmp_path))
    output = run_benchmark(config, folder_name="ordered")
    assert [(m.scenario, m.blue) for m in output.report.matchups] == [
        (s, o) for s in scenarios for o in opponents
    ]
    before = _top_level_files(output.run_dir)
    assert {"matchup_matrix.csv", "metrics_summary.json", "metrics_summary.csv"} <= set(before)
    export_run(output.run_dir)
    assert _top_level_files(output.run_dir) == before


def test_mirror_match_metrics_are_balanced(mini_run):
    output, _ = mini_run
    mirror = [m for m in output.report.matchups if m.blue == "passive"][0]
    # same opponent on both sides with different seeds: zero-sum structure
    assert mirror.values.D == -mirror.blue_values.D
    assert mirror.values.W + mirror.blue_values.W == pytest.approx(1.0)


# -- runner fault isolation -------------------------------------------------------------


class _FaultySystem:
    """Wraps a working system and raises in one phase: ``pre_game`` and
    ``post_game`` for the team, ``next_request`` and ``on_result`` for its
    first agent only."""

    def __init__(self, inner, phase):
        self.inner = inner
        self.phase = phase
        self.broken = None
        self.polls = Counter()

    def pre_game(self, meta, team, observations):
        if self.phase == "pre_game":
            raise RuntimeError("pre_game crashed")
        self.inner.pre_game(meta, team, observations)
        self.broken = meta.teams[team][0]

    def next_request(self, agent_name, view):
        self.polls[agent_name] += 1
        if self.phase == "next_request" and agent_name == self.broken:
            raise RuntimeError("controller crashed")
        return self.inner.next_request(agent_name, view)

    def on_result(self, agent_name, outcome):
        if self.phase == "on_result" and agent_name == self.broken:
            raise RuntimeError("on_result crashed")
        self.inner.on_result(agent_name, outcome)

    def post_game(self, score):
        if self.phase == "post_game":
            raise RuntimeError("post_game crashed")
        self.inner.post_game(score)


def test_agent_exception_sidelines_only_that_agent():
    config = get_scenario("mushroom_war")
    systems = {
        "red": _FaultySystem(BuiltinTeamSystem(builtin("passive", "mushroom_war")), "next_request"),
        "blue": BuiltinTeamSystem(builtin("do_nothing", "mushroom_war")),
    }
    result = tb_runner.run_episode(config, systems, seed=4)
    assert result.disabled_teams == []  # only one agent died, not the team
    assert any("system failed" in e.payload for e in result.chat_log)
    assert result.scores["red"] > 0  # the surviving teammate keeps scoring


@pytest.fixture
def worlds(monkeypatch):
    """Every world ``run_episode`` makes, reached as perfbench does."""
    made = []
    real = tb_runner.new_world

    def capture(layout, seed):
        made.append(real(layout, seed))
        return made[-1]

    monkeypatch.setattr(tb_runner, "new_world", capture)
    return made


@pytest.fixture
def step_ticks(monkeypatch):
    calls = []
    real = WorldState.step_tick

    def counting(self):
        calls.append(self.tick)
        real(self)

    monkeypatch.setattr(WorldState, "step_tick", counting)
    return calls


def test_pre_game_failure_disables_the_team_without_pinning_the_clock(worlds, step_ticks):
    config = get_scenario("mushroom_war")
    red = _FaultySystem(BuiltinTeamSystem(builtin("passive", "mushroom_war")), "pre_game")
    blue = BuiltinTeamSystem(builtin("do_nothing", "mushroom_war"))
    result = tb_runner.run_episode(config, {"red": red, "blue": blue}, seed=4)
    assert result.disabled_teams == ["red"]
    assert "team red system failed: pre_game crashed" in [e.payload for e in result.chat_log]
    assert not red.polls and result.scores["red"] == 0
    assert worlds[-1].tick == config.duration_ticks
    # the idle blue side acts every 20 ticks; red's never-busy agents are skipped
    assert len(step_ticks) < config.duration_ticks // 4


def test_on_result_failure_sidelines_only_that_agent():
    config = get_scenario("mushroom_war")
    red = _FaultySystem(BuiltinTeamSystem(builtin("passive", "mushroom_war")), "on_result")
    blue = BuiltinTeamSystem(builtin("do_nothing", "mushroom_war"))
    result = tb_runner.run_episode(config, {"red": red, "blue": blue}, seed=4)
    assert result.disabled_teams == []
    failed = [e for e in result.chat_log if e.payload == f"agent {red.broken} system failed: on_result crashed"]
    assert len(failed) == 1
    assert red.polls[red.broken] == 1  # sidelined after its first outcome
    (mate,) = [name for name in red.polls if name != red.broken]
    assert red.polls[mate] > 10 and result.scores["red"] > 0


class _SignalledWaiter:
    """Ryn waits for a signal from Raze and its ``on_result`` fails at once;
    Raze idles, signals Ryn on its second turn, then idles again."""

    def __init__(self):
        self.polls = Counter()

    def pre_game(self, meta, team, observations):
        pass

    def next_request(self, agent_name, view):
        self.polls[agent_name] += 1
        if agent_name == "Ryn":
            args = ["wait", "Raze", 200]
        elif self.polls[agent_name] == 2:
            args = ["send", "Ryn"]
        else:
            return WaitRequest(20)
        return PrimitiveRequest("signal", args, Call("signal", args))

    def on_result(self, agent_name, outcome):
        if agent_name == "Ryn":
            raise RuntimeError("on_result crashed while waiting")

    def post_game(self, score):
        pass


def test_a_sidelined_waiter_is_not_woken_by_a_signal():
    config = get_scenario("mushroom_war", duration_ticks=200)
    red = _SignalledWaiter()
    blue = BuiltinTeamSystem(builtin("do_nothing", "mushroom_war"))
    result = tb_runner.run_episode(config, {"red": red, "blue": blue}, seed=0)
    chat = [(e.tick, e.sender, e.payload) for e in result.chat_log]
    assert (0, "environment", "agent Ryn system failed: on_result crashed while waiting") in chat
    assert (20, "Raze", "Signal sent to Ryn") in chat
    assert red.polls["Ryn"] == 1 and red.polls["Raze"] > 2
    assert not [line for line in chat if line[1] == "Ryn" and line[0] > 0]


def test_post_game_failure_is_broadcast_and_the_result_returned():
    config = get_scenario("mushroom_war", duration_ticks=300)
    red = _FaultySystem(BuiltinTeamSystem(builtin("passive", "mushroom_war")), "post_game")
    blue = _FaultySystem(BuiltinTeamSystem(builtin("slimy", "mushroom_war")), None)
    ended = []
    blue.inner.post_game = ended.append
    result = tb_runner.run_episode(config, {"red": red, "blue": blue}, seed=4)
    assert result.ticks == 300 and set(result.scores) == {"red", "blue"}
    assert result.chat_log[-1].payload == "team red post_game failed: post_game crashed"
    assert [score.team for score in ended] == ["blue"]  # the other team still learns


def test_failed_matchup_is_recorded_and_the_others_complete(tmp_path, monkeypatch):
    real = bench.run_episode
    played = []

    def crashing(config, systems, seed):
        # only the benchmark's red side plays balanced; calibration's is do_nothing
        if systems["red"].name == "balanced" and systems["blue"].name == "passive":
            played.append(seed)
            if len(played) == 2:
                raise RuntimeError("blue crashed")
        return real(config, systems, seed)

    monkeypatch.setattr(bench, "run_episode", crashing)
    config = RunConfig(scenarios=["mushroom_war"], opponents=["passive", "do_nothing"],
                       episodes=2, repeats=1, seed=2, red_system="builtin:balanced",
                       output_dir=str(tmp_path))
    output = run_benchmark(config, folder_name="faulty")
    expected = ["mushroom_war/builtin:balanced-vs-passive: blue crashed"]
    assert output.failed_matchups == expected
    assert json.loads((output.run_dir / "failed_matchups.json").read_text()) == expected
    # the failed matchup keeps the episode it finished
    assert [(m.blue, m.values.n_episodes) for m in output.report.matchups] == [
        ("passive", 1), ("do_nothing", 2)
    ]
    assert [row["blue"] for row in output.episodes] == ["passive", "do_nothing", "do_nothing"]
    assert len(list((output.run_dir / "episodes").glob("*.json"))) == 3
    before = _top_level_files(output.run_dir)
    export_run(output.run_dir)
    assert _top_level_files(output.run_dir) == before


# -- runner: next-event clock and on-demand views -------------------------------------


class _SidelinedWaiter(_FaultySystem):
    """Random play whose ``on_result`` fails after a signal wait starts, so an
    agent is sidelined while it waits."""

    def __init__(self, seed):
        super().__init__(RandomTeamSystem(seed), None)

    def on_result(self, agent_name, outcome):
        if outcome.message == "waiting":
            raise RuntimeError("on_result crashed while waiting")
        self.inner.on_result(agent_name, outcome)


def _episode_digest(result, world, systems):
    return (
        [(e.tick, e.sender, e.payload) for e in result.chat_log],
        systems["red"].polls,
        systems["blue"].polls,
        result.scores,
        result.timelines,
        world.state_hash(),
    )


def _assert_chat_delivered(result, systems):
    """Each agent is handed the chat in broadcast order, each line once: its
    ``new_events`` joined over the episode are a prefix of the chat log."""
    chat = [(e.tick, e.sender, e.payload) for e in result.chat_log]
    for probe in systems.values():
        handed = {}
        for _tick, agent, events, *_seen in probe.polls:
            handed.setdefault(agent, []).extend(events)
        for agent, events in handed.items():
            assert events == chat[: len(events)], agent


JUMP_CASES = [
    (scenario, red, opponent, seed)
    for scenario in ("mushroom_war", "dash_and_dine")
    for opponent in list_builtin(scenario)
    for red, seed in ((RandomTeamSystem, 0), (RandomTeamSystem, 1), (RandomTeamSystem, 3), (_SidelinedWaiter, 2))
]


def test_skipping_idle_ticks_changes_nothing(worlds, step_ticks, monkeypatch):
    """Oracle: with every mover reported due at the next tick, the runner
    serves at every tick, as a loop without jumps or timer-only steps does."""
    def play(scenario, red, opponent, seed):
        config = get_scenario(scenario, duration_ticks=600)
        systems = {"red": _ViewProbe(red(seed), record=True),
                   "blue": _ViewProbe(BuiltinTeamSystem(builtin(opponent, scenario)), record=True)}
        result = tb_runner.run_episode(config, systems, seed)
        _assert_chat_delivered(result, systems)
        return result, _episode_digest(result, worlds[-1], systems)

    jumped, every_tick, chats = [], [], []
    for case in JUMP_CASES:
        result, digest = play(*case)
        jumped.append(digest)
        chats.extend(e.payload for e in result.chat_log)
    visited = len(step_ticks)
    with monkeypatch.context() as patch:
        patch.setattr(tb_runner, "next_due", lambda world, movers: world.tick + 1)
        for case in JUMP_CASES:
            every_tick.append(play(*case)[1])
    assert len(step_ticks) - visited == 600 * len(JUMP_CASES)
    assert visited < 600 * len(JUMP_CASES)
    for case, a, b in zip(JUMP_CASES, jumped, every_tick):
        assert a == b, case
    # the cases reach signal wakes, wait timeouts and sidelined waiters
    assert any(c.startswith("Signal received from") for c in chats)
    assert any(c == "Stopped waiting for signal (timeout)" for c in chats)
    assert any(c.endswith("on_result crashed while waiting") for c in chats)


def test_idle_mirror_visits_few_ticks(worlds, step_ticks):
    config = get_scenario("mushroom_war")
    systems = {team: BuiltinTeamSystem(builtin("do_nothing", "mushroom_war")) for team in ("red", "blue")}
    result = tb_runner.run_episode(config, systems, seed=0)
    assert result.scores == {"red": 0, "blue": 0}
    assert worlds[-1].tick == config.duration_ticks
    assert len(step_ticks) < config.duration_ticks // 4


class _ViewProbe:
    """Wraps a system; keeps every view and the inventory it held when
    handed out, then scribbles on that inventory after the inner system
    has decided.  With ``record`` it instead logs, per poll, the tick, the
    agent, the ``new_events``, the inventory and what the observation shows."""

    def __init__(self, inner, read_observation=False, record=False):
        self.inner = inner
        self.read_observation = read_observation
        self.record = record
        self.views = []
        self.polls = []

    def pre_game(self, meta, team, observations):
        self.inner.pre_game(meta, team, observations)

    def next_request(self, agent_name, view):
        if self.record:
            obs = view.observation
            self.polls.append((
                view.tick,
                agent_name,
                [(e.tick, e.sender, e.payload) for e in view.new_events],
                view.inventory.as_dict(),
                obs.nearby_blocks,
                obs.nearby_mobs,
                obs.self_status["position"],
            ))
            return self.inner.next_request(agent_name, view)
        if self.read_observation:
            assert view.observation.self_status["time"] == view.tick
        req = self.inner.next_request(agent_name, view)
        self.views.append((view, view.inventory.as_dict()))
        view.inventory.add("diamond", 64)
        return req

    def on_result(self, agent_name, outcome):
        self.inner.on_result(agent_name, outcome)

    def post_game(self, score):
        self.inner.post_game(score)


def test_observe_runs_only_for_pre_game(monkeypatch):
    config = get_scenario("mushroom_war")
    calls, polls = [], []
    real_observe, real_next = WorldState.observe, BuiltinTeamSystem.next_request

    def observing(self, *args, **kwargs):
        calls.append(len(polls))
        return real_observe(self, *args, **kwargs)

    def polling(self, agent_name, view):
        polls.append(agent_name)
        return real_next(self, agent_name, view)

    monkeypatch.setattr(WorldState, "observe", observing)
    monkeypatch.setattr(BuiltinTeamSystem, "next_request", polling)
    systems = {"red": BuiltinTeamSystem(builtin("passive", "mushroom_war")),
               "blue": BuiltinTeamSystem(builtin("slimy", "mushroom_war"))}
    tb_runner.run_episode(config, systems, seed=5)
    players = sum(len(names) for names in build_metadata(config).teams.values())
    assert len(polls) > 100 and calls == [0] * players


def test_view_inventory_is_a_snapshot(worlds):
    config = get_scenario("mushroom_war")

    def play(probe):
        systems = {"red": BuiltinTeamSystem(builtin("passive", "mushroom_war")),
                   "blue": BuiltinTeamSystem(builtin("slimy", "mushroom_war"))}
        if probe:
            systems["red"] = _ViewProbe(systems["red"])
        return tb_runner.run_episode(config, systems, seed=6), systems["red"]

    plain, _ = play(False)
    probed, probe = play(True)
    assert probed.scores == plain.scores
    assert [(e.tick, e.payload) for e in probed.chat_log] == [(e.tick, e.payload) for e in plain.chat_log]
    assert all(agent.inventory.count("diamond") == 0 for agent in worlds[-1].agents)
    assert any(held for _, held in probe.views)  # the agents did pick things up
    for view, held in probe.views:
        # later primitives never reached an inventory already handed out
        assert view.inventory.as_dict() == {**held, "diamond": 64}


def test_view_observation_is_read_on_demand_and_closes():
    config = get_scenario("dash_and_dine", duration_ticks=300)
    probe = _ViewProbe(RandomTeamSystem(3), read_observation=True)
    tb_runner.run_episode(config, {"red": probe, "blue": BuiltinTeamSystem(builtin("berries", "dash_and_dine"))}, 3)
    assert probe.views
    for view, _ in probe.views:
        with pytest.raises(RuntimeError, match="closed"):
            view.observation
        assert view.inventory.count("diamond") == 64  # the snapshot stays readable


# -- CLI ------------------------------------------------------------------------------


def test_cli_lists_opponents(capsys):
    assert cli_main(["opponents"]) == 0
    out = capsys.readouterr().out
    assert "mushroom_war:" in out and "passive" in out
    assert "dash_and_dine:" in out and "berries" in out


def test_cli_calibrate(tmp_path, capsys):
    cache = tmp_path / "c.json"
    code = cli_main(["calibrate", "mushroom_war", "do_nothing", "--cache", str(cache)])
    assert code == 0
    assert "sigma(mushroom_war, do_nothing) = 0.0000" in capsys.readouterr().out


def test_cli_replay_verifies_an_episode(mini_run, capsys):
    output, _ = mini_run
    episode = sorted((output.run_dir / "episodes").glob("*_e1.json"))[0]
    assert cli_main(["replay", str(episode)]) == 0
    assert "verified: scores match" in capsys.readouterr().out


def test_cli_replay_reports_an_edited_chat_line(mini_run, tmp_path, capsys):
    output, _ = mini_run
    episode = sorted((output.run_dir / "episodes").glob("*_e1.json"))[0]
    row = json.loads(episode.read_text())
    assert row["chat"]
    row["chat"][0][2] += "!"
    (tmp_path / "episodes").mkdir()
    (tmp_path / "config.json").write_text((output.run_dir / "config.json").read_text())
    edited = tmp_path / "episodes" / episode.name
    edited.write_text(json.dumps(row))
    assert cli_main(["replay", str(edited)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "chat" in out
