"""Benchmark orchestration: metrics, seeding, calibration, run folders,
exports, and the CLI surface."""
from __future__ import annotations

import csv
import json
from pathlib import Path
from random import Random

import pytest

import tacticbench.bench as bench
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
from tacticbench.agents import CoTTeamSystem, TactiCrafterSystem
from tacticbench.opponents import BuiltinTeamSystem, RandomTeamSystem


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
    with pytest.raises(ValueError):
        RunConfig(episodes=0)
    with pytest.raises(ValueError):
        RunConfig(scenarios=["atlantis"])


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
    assert (run_dir / "metrics_summary.csv").exists()
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


def test_export_is_reproducible(mini_run):
    output, _ = mini_run
    matrix = output.run_dir / "matchup_matrix.csv"
    before = matrix.read_bytes()
    export_run(output.run_dir)
    assert matrix.read_bytes() == before


def test_mirror_match_metrics_are_balanced(mini_run):
    output, _ = mini_run
    mirror = [m for m in output.report.matchups if m.blue == "passive"][0]
    # same opponent on both sides with different seeds: zero-sum structure
    assert mirror.values.D == -mirror.blue_values.D
    assert mirror.values.W + mirror.blue_values.W == pytest.approx(1.0)


# -- runner fault isolation -------------------------------------------------------------


class _HalfBrokenSystem:
    """Wraps a working system but raises whenever one agent is polled."""

    def __init__(self, inner):
        self.inner = inner
        self.broken = None

    def pre_game(self, meta, team, observations):
        self.inner.pre_game(meta, team, observations)
        self.broken = meta.teams[team][0]

    def next_request(self, agent_name, view):
        if agent_name == self.broken:
            raise RuntimeError("controller crashed")
        return self.inner.next_request(agent_name, view)

    def on_result(self, agent_name, outcome):
        self.inner.on_result(agent_name, outcome)

    def post_game(self, score):
        self.inner.post_game(score)


def test_agent_exception_sidelines_only_that_agent():
    from tacticbench.opponents import builtin
    from tacticbench.runner import run_episode
    from tacticbench.scenarios import get_scenario

    config = get_scenario("mushroom_war")
    systems = {
        "red": _HalfBrokenSystem(BuiltinTeamSystem(builtin("passive", "mushroom_war"))),
        "blue": BuiltinTeamSystem(builtin("do_nothing", "mushroom_war")),
    }
    result = run_episode(config, systems, seed=4)
    assert result.disabled_teams == []  # only one agent died, not the team
    assert any("system failed" in e.payload for e in result.chat_log if e.kind == "chat")
    assert result.scores["red"] > 0  # the surviving teammate keeps scoring


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
