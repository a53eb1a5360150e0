"""Acceptance gate: fourteen end-to-end criteria, one per test, each
printing a single PASS/FAIL line.  These are deliberately heavier than the
unit suites; expect a few minutes of wall time."""
from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

import pytest

from test_actionlang import MALFORMED, _golden_corpus

from tacticbench.actionlang import ParseError, parse_source, pretty_print
from tacticbench.actionlang.interp import PrimitiveRequest
from tacticbench.actionlang.parse import Call
from tacticbench.agents import CausalGraph, CausalRelation, dedup_events
from tacticbench.bench import (
    CALIBRATION_EPISODES,
    RunConfig,
    calibrate_sigma,
    episode_seed,
    run_benchmark,
    adaptation_protocol,
    self_play_protocol,
)
import tacticbench.bench as bench
from tacticbench.metrics import latency_stats, metric_values
from tacticbench.opponents import BuiltinTeamSystem, builtin, list_builtin
from tacticbench.primitives import Durations, execute
from tacticbench.runner import run_episode
from tacticbench.scenarios import (
    SLIME_ELIGIBILITY_MAX,
    SMELT_TICKS,
    MushroomWarRules,
    get_scenario,
    make_rules,
    mushroom_yield,
)
from tacticbench.world import Event, Position, WorldState, new_world

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL [criterion {number:02d}] {description}")
        raise
    print(f"PASS [criterion {number:02d}] {description}")


def play(scenario: str, red: str, blue: str, seed: int):
    config = get_scenario(scenario)
    systems = {
        "red": BuiltinTeamSystem(builtin(red, scenario)),
        "blue": BuiltinTeamSystem(builtin(blue, scenario)),
    }
    return run_episode(config, systems, seed)


def round_robin(scenario: str, episodes: int, base_seed: int) -> dict:
    """Every builtin vs every builtin; per matchup the per-episode raw and
    reported scores plus first-score ticks."""
    names = list_builtin(scenario)
    out = {}
    for red in names:
        for blue in names:
            rows = []
            for episode in range(episodes):
                seed = episode_seed(base_seed, scenario, f"{red}-vs-{blue}", 0, episode)
                result = play(scenario, red, blue, seed)
                rows.append(result)
            out[(red, blue)] = rows
    return out


@pytest.fixture(scope="module")
def mw_round_robins():
    # three independently seeded repeats of the full 20-episode round-robin
    return [round_robin("mushroom_war", 20, base_seed) for base_seed in (101, 202, 303)]


@pytest.fixture(scope="module")
def dd_round_robin():
    return round_robin("dash_and_dine", 20, 404)


# -- 1: determinism and speed ---------------------------------------------------


def test_criterion_01_determinism_and_speed():
    with criterion(1, "episodes replay bit-identically and finish in under 1s"):
        for scenario, red, blue in [
            ("mushroom_war", "aggressive", "passive"),
            ("dash_and_dine", "cake_beetroot", "potato_cookie"),
        ]:
            runs = []
            for _ in range(2):
                start = time.perf_counter()
                result = play(scenario, red, blue, seed=77)
                assert time.perf_counter() - start < 1.0
                runs.append(result)
            a, b = runs
            assert a.scores == b.scores and a.winner == b.winner
            assert [(e.tick, e.sender, e.payload) for e in a.chat_log] == [
                (e.tick, e.sender, e.payload) for e in b.chat_log
            ]
            assert a.score_log == b.score_log


# -- 2: zero-sum identities -------------------------------------------------------


def test_criterion_02_zero_sum_identities(mw_round_robins, dd_round_robin):
    with criterion(2, "D_red = -D_blue and W_red + W_blue = 1 for every matchup"):
        for robin in [mw_round_robins[0], dd_round_robin]:
            for (red, blue), results in robin.items():
                s_red = [r.reported["red"] for r in results]
                s_blue = [r.reported["blue"] for r in results]
                from_red = metric_values(s_red, s_blue, 0.0)
                from_blue = metric_values(s_blue, s_red, 0.0)
                assert from_red.D == -from_blue.D
                assert from_red.W + from_blue.W == 1.0


# -- 3: core mechanics ---------------------------------------------------------------


def test_criterion_03a_regrow_timers_respect_slime_threshold():
    with criterion(3, "a) no mushroom timer coexists with >7 slime, 100 episodes"):
        original = WorldState.step_tick

        def checked(self):
            original(self)
            rules = self.rules
            if isinstance(rules, MushroomWarRules):
                for team in self.layout.areas:
                    if rules.slime_count(self, team) > SLIME_ELIGIBILITY_MAX:
                        for pos in rules.mushroom_cells[team]:
                            ev = rules.mushroom_timers.get(pos)
                            assert ev is None or ev.cancelled, (team, pos, self.tick)

        pairs = [
            ("aggressive", "slimy"), ("balanced", "aggressive"),
            ("slimy", "balanced"), ("passive", "aggressive"),
        ]
        WorldState.step_tick = checked
        try:
            for seed in range(100):
                red, blue = pairs[seed % len(pairs)]
                play("mushroom_war", red, blue, seed)
        finally:
            WorldState.step_tick = original


def test_criterion_03b_mushroom_yield_mean():
    with criterion(3, "b) mushroom yield mean within 1.0 +/- 0.05 over 10^4 draws"):
        rng = Random(12345)
        n = 10_000
        mean = sum(mushroom_yield(rng) for _ in range(n)) / n
        assert abs(mean - 1.0) <= 0.05


def test_criterion_03c_idle_mirror_is_scoreless(mw_round_robins):
    with criterion(3, "c) do_nothing vs do_nothing ends 0-0"):
        for result in mw_round_robins[0][("do_nothing", "do_nothing")]:
            assert result.scores == {"red": 0, "blue": 0}
            assert result.winner == "draw"


# -- 4: qualitative matchup structure --------------------------------------------------


def test_criterion_04_passive_leads_own_points(mw_round_robins):
    with criterion(4, "passive has highest mean own-points in >=2 of 3 repeats"):
        active = [n for n in list_builtin("mushroom_war") if n != "do_nothing"]
        wins = 0
        for robin in mw_round_robins:
            means = {}
            for name in active:
                points = []
                for (red, blue), results in robin.items():
                    for r in results:
                        if red == name:
                            points.append(r.scores["red"])
                        if blue == name:
                            points.append(r.scores["blue"])
                means[name] = sum(points) / len(points)
            top = max(means, key=means.get)
            if top == "passive":
                wins += 1
        assert wins >= 2, wins


# -- 5: first-score delay ----------------------------------------------------------------


def test_criterion_05_first_score_comes_later_in_dash_and_dine(mw_round_robins, dd_round_robin):
    with criterion(5, "mean first-score tick: dash_and_dine > mushroom_war"):
        def mean_first(robin):
            ticks = [
                r.first_score_tick
                for results in robin.values()
                for r in results
                if r.first_score_tick is not None
            ]
            assert len(ticks) >= 20
            return sum(ticks) / len(ticks)

        assert mean_first(dd_round_robin) > mean_first(mw_round_robins[0])


# -- 6 and 7: scripted rule checks ----------------------------------------------------------


def _exec(world, config, agent, name, *args):
    request = PrimitiveRequest(name, list(args), Call(name, list(args)))
    return execute(world, config, world.agent(agent), request, Durations())


def test_criterion_06_unique_three_food_types():
    with criterion(6, "a fourth submitted food type adds exactly 0 points"):
        config = get_scenario("dash_and_dine")
        world = new_world(config.layout, seed=0)
        rules = make_rules(config)
        rules.setup(world)
        agent = world.agent("Ryn")
        for item in ("sweet_berries", "bread", "cookie", "cake"):
            agent.inventory.add(item, 1)
        for item in ("sweet_berries", "bread", "cookie"):
            _exec(world, config, "Ryn", "giveToPlayer", item, "Red_Server", 1)
        assert rules.scores["red"].points == 8
        _exec(world, config, "Ryn", "giveToPlayer", "cake", "Red_Server", 1)
        assert rules.scores["red"].points == 8


def test_criterion_07_smelting_completes_at_exactly_plus_200():
    with criterion(7, "smelting queued at tick t finishes at exactly t + 200"):
        config = get_scenario("dash_and_dine")
        world = new_world(config.layout, seed=0)
        rules = make_rules(config)
        rules.setup(world)
        agent = world.agent("Ryn")
        agent.position = Position(18, 0, 6)
        agent.inventory.add("potato", 1)
        res = _exec(world, config, "Ryn", "smeltItem", "potato", "coal", 1)
        assert res.ok
        for _ in range(SMELT_TICKS - 1):
            world.step_tick()
        assert agent.inventory.count("baked_potato") == 0
        world.step_tick()
        assert agent.inventory.count("baked_potato") == 1
        assert world.tick == SMELT_TICKS


# -- 8: metric formula oracles ------------------------------------------------------------


def test_criterion_08_metric_worked_examples():
    with criterion(8, "metric and latency formulas match hand-computed oracles"):
        v = metric_values([10, 5], [8, 5], sigma_blue=9)
        assert (v.P, v.S, v.D, v.W) == (7.5, 2.5, 1.0, 0.75)
        stats = latency_stats([(2.0, 100), (4.0, 100)])
        assert stats.t_resp == 3.0 and stats.n_out == 100 and stats.r_tps == 37.5
        one_iteration = latency_stats([(2.0, 100)], iteration_counts=[1])
        assert one_iteration.idle_seconds == 0.0
        empty = latency_stats([])
        assert empty.n_llm == 0 and empty.t_resp is None and empty.r_tps is None


# -- 9: sigma calibration --------------------------------------------------------------------


def test_criterion_09_sigma_calibration(monkeypatch):
    with criterion(9, "sigma uses exactly 20 do_nothing-red episodes; idle sigma is 0"):
        count = [0]
        real = bench.run_episode

        def counting(config, systems, seed, *args, **kwargs):
            count[0] += 1
            return real(config, systems, seed, *args, **kwargs)

        monkeypatch.setattr(bench, "run_episode", counting)
        sigma = calibrate_sigma("mushroom_war", "do_nothing", run_seed=9)
        assert count[0] == CALIBRATION_EPISODES == 20
        assert sigma == 0.0
        assert calibrate_sigma("dash_and_dine", "do_nothing", run_seed=9) == 0.0


# -- 10: dedup properties -----------------------------------------------------------------------


def _is_subsequence(short, long):
    it = iter(long)
    return all(item in it for item in short)


def _fuzz_log(rng: Random) -> list[Event]:
    messages = ["a", "b", "c", "d", "e"]
    events = []
    tick = 0
    target = rng.randint(0, 50)
    while len(events) < target:
        if rng.random() < 0.4 and events:
            # inject a repeated block to give the collapser work
            block = events[-rng.randint(1, min(4, len(events))):]
            for ev in block * rng.randint(1, 3):
                events.append(Event(tick, ev.sender, ev.payload))
                tick += 1
        else:
            events.append(Event(tick, rng.choice("AB"), rng.choice(messages)))
            tick += 1
    return events


def test_criterion_10_dedup_properties():
    with criterion(10, "dedup: idempotent order-preserving subsequence; loop log halves"):
        rng = Random(777)
        for _ in range(1000):
            events = _fuzz_log(rng)
            out = dedup_events(events)
            keys_in = [(e.sender, e.payload) for e in events]
            keys_out = [(e.sender, e.payload) for e in out]
            assert _is_subsequence(keys_out, keys_in)
            assert [(e.sender, e.payload) for e in dedup_events(out)] == keys_out
            assert len(out) <= len(events)
        # 60 loop iterations of two chat lines at drifting ticks: collapses heavily
        loop_log = []
        for i in range(60):
            loop_log.append(Event(i * 41, "Ryn", "Mined 1 slime_block, got 1 slime_block"))
            loop_log.append(Event(i * 41 + 1 + i % 7, "Ryn", "Waiting for signal from Raze"))
        compact = dedup_events(loop_log)
        assert len(compact) <= len(loop_log) * 0.5


# -- 11: causal graph ------------------------------------------------------------------------------


def test_criterion_11_causal_union_and_fixtures():
    with criterion(11, "causal union is monotone; fixture graphs parse and round-trip"):
        rng = Random(31)

        def random_graph():
            g = CausalGraph()
            for _ in range(rng.randint(0, 8)):
                g.add(
                    CausalRelation(
                        rng.choice(["a()", "b()", "c()", "d()"]),
                        tuple(rng.sample(["p", "q", "r"], rng.randint(0, 3))),
                        tuple(rng.sample(["x", "y", "z"], rng.randint(0, 3))),
                    )
                )
            return g

        for _ in range(300):
            a, b = random_graph(), random_graph()
            u = a.union(b)
            assert u.covers(a) and u.covers(b)
        for name, expected in [("causal_small.txt", 23), ("causal_large.txt", 87)]:
            graph = CausalGraph.parse((FIXTURES / name).read_text())
            assert len(graph) == expected
            assert CausalGraph.parse(graph.serialize()).relations == graph.relations


# -- 12: end-to-end mock benchmark ------------------------------------------------------------------


def test_criterion_12_end_to_end_mock_benchmark(tmp_path):
    with criterion(12, "full mock benchmark (2x5x5x1) under 10 minutes, folder complete"):
        config = RunConfig(
            episodes=5,
            repeats=1,
            seed=11,
            red_system="tacticrafter",
            output_dir=str(tmp_path),
        )
        start = time.perf_counter()
        output = run_benchmark(config, folder_name="e2e")
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"{elapsed:.0f}s"
        assert output.failed_matchups == []
        run_dir = output.run_dir
        assert (run_dir / "config.json").exists()
        assert (run_dir / "transcripts.jsonl").exists()
        assert (run_dir / "metrics_summary.json").exists()
        assert (run_dir / "metrics_summary.csv").exists()
        assert (run_dir / "matchup_matrix.csv").exists()
        for scenario in ("mushroom_war", "dash_and_dine"):
            assert (run_dir / f"timeline_{scenario}.csv").exists()
        episodes = list((run_dir / "episodes").glob("*.json"))
        assert len(episodes) == 2 * 5 * 5 * 1
        assert len(output.report.matchups) == 10


# -- 13: protocol shapes ------------------------------------------------------------------------------


def test_criterion_13_protocol_shapes():
    with criterion(13, "adaptation table and self-play series have the expected shapes"):
        config = RunConfig(episodes=1, repeats=1, seed=21, red_system="tacticrafter")
        table = adaptation_protocol(config, episodes_per_opponent=1)
        assert set(table) == {"mushroom_war", "dash_and_dine", "Avg"}
        for row in table.values():
            assert set(row) == {"Same", "Different"}
            for cell in row.values():
                assert set(cell) == {"P", "S", "D", "W"}

        solo = RunConfig(scenarios=["mushroom_war"], episodes=1, repeats=1,
                         seed=22, red_system="tacticrafter")
        out = self_play_protocol(solo, total_episodes=20, checkpoint_every=5)
        series = out["mushroom_war"]
        assert len(series["scores"]["red"]) == 20
        assert len(series["scores"]["blue"]) == 20
        assert [e["after_episode"] for e in series["evaluations"]] == [5, 10, 15, 20]
        for evaluation in series["evaluations"]:
            assert len(evaluation["results"]) == len(list_builtin("mushroom_war"))
            for entry in evaluation["results"]:
                assert {"opponent", "P", "S", "D", "W"} <= set(entry)


# -- 14: parser robustness ------------------------------------------------------------------------------


def test_criterion_14_parser_round_trip_and_fuzz():
    with criterion(14, ">=50 golden round-trips, 10 exact error positions, 10^5 fuzz"):
        corpus = _golden_corpus()
        assert len(corpus) >= 50
        for source in corpus:
            program = parse_source(source)
            assert parse_source(pretty_print(program)) == program
        assert len(MALFORMED) == 10
        for source, line, col in MALFORMED:
            with pytest.raises(ParseError) as exc:
                parse_source(source)
            assert (exc.value.line, exc.value.column) == (line, col)
        rng = Random(99)
        alphabet = 'abwxyz(){}"#,0123456789 \n\t'
        for _ in range(100_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            try:
                parse_source(text)
            except ParseError:
                pass
