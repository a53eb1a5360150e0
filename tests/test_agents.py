"""Model-driven pipeline: log dedup, causal graphs, tactics, clients,
checkpoints, and the baselines."""
from __future__ import annotations

from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from tacticbench.actionlang import parse_source
from tacticbench.agents import tacticrafter
from tacticbench.agents import (
    CausalGraph,
    CausalParseError,
    CausalRelation,
    Checkpoint,
    ChatCompletionRequest,
    ChatMessage,
    CoTTeamSystem,
    FALLBACK_TACTICS_LINE,
    HttpChatClient,
    MAX_TACTICS_LINES,
    MockChatClient,
    OpponentTactics,
    PromptTemplates,
    TactiCrafterSystem,
    Tactics,
    TagParseError,
    TeamLog,
    TransportError,
    checkpoint_load,
    checkpoint_save,
    compile_program,
    cot_baseline,
    dedup_events,
    default_mock_responder,
    ensure_primitive_coverage,
    extract_tagged,
    make_mock_client,
    opponent_chat_lines,
    parse_relation_line,
    render_events,
    tactics_init,
)
from tacticbench.opponents import BuiltinTeamSystem, builtin
from tacticbench.runner import run_episode
from tacticbench.scenarios import get_scenario
from tacticbench.world import Event

FIXTURES = Path(__file__).parent / "fixtures"


def chat(sender: str, text: str, tick: int = 0) -> Event:
    return Event(tick, sender, text)


def keys(events: list[Event]) -> list[tuple]:
    return [(e.sender, e.payload) for e in events]


# -- dedup ---------------------------------------------------------------------


def test_dedup_collapses_alternating_pair():
    events = [chat("A", m, tick=i) for i, m in enumerate(["a", "b"] * 3)]
    assert [e.payload for e in dedup_events(events)] == ["a", "b"]


def test_dedup_keeps_non_repeating_logs():
    events = [chat("A", m, tick=i) for i, m in enumerate(["a", "b", "c", "a", "c"])]
    assert keys(dedup_events(events)) == keys(events)


chat_logs = st.lists(
    st.sampled_from(["a", "b", "c", "d"]).map(lambda m: chat("A", m)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(chat_logs)
def test_dedup_is_idempotent(events):
    once = dedup_events(events)
    assert keys(dedup_events(once)) == keys(once)


@settings(max_examples=200, deadline=None)
@given(chat_logs)
def test_dedup_output_is_a_subsequence(events):
    out = iter(keys(events))
    for k in keys(dedup_events(events)):
        assert k in out  # consumes the iterator: order-preserving subsequence


@settings(max_examples=200, deadline=None)
@given(chat_logs)
def test_dedup_never_grows_the_log(events):
    assert len(dedup_events(events)) <= len(events)


# -- team log --------------------------------------------------------------------


@st.composite
def team_deliveries(draw):
    """An episode log, each agent's deliveries of it (consecutive slices
    from its start, some empty) and one interleaving of those deliveries."""
    log = [chat("A", f"m{i}", tick=i) for i in range(draw(st.integers(0, 30)))]
    agents = ["Ryn", "Kai", "Zed"][: draw(st.integers(1, 3))]
    slices = {}
    for name in agents:
        bounds = [0, *sorted(draw(st.lists(st.integers(0, len(log)), max_size=8)))]
        slices[name] = [log[a:b] for a, b in zip(bounds, bounds[1:])]
    order = draw(st.permutations([name for name in agents for _ in slices[name]]))
    return log, slices, order


@settings(max_examples=200, deadline=None)
@given(team_deliveries())
def test_team_log_keeps_the_longest_prefix_once(case):
    log, slices, order = case
    team = TeamLog(slices)
    pending = {name: iter(parts) for name, parts in slices.items()}
    for name in order:
        team.extend(name, next(pending[name]))
    handed = {name: [ev for part in parts for ev in part] for name, parts in slices.items()}
    assert team.events == log[: max(len(events) for events in handed.values())]
    for name, events in handed.items():
        assert team.view(name) == events


# -- causal graph ----------------------------------------------------------------


def test_relation_line_round_trips():
    rel = CausalRelation('mineBlock("slime_block", 1)', ("near slime",), ("slime_block",))
    assert parse_relation_line(rel.to_line()) == rel


def test_relation_line_accepts_effect_colon_variant():
    rel = parse_relation_line("Action: craft(); Cause: ['wood']; Effect: ['planks']")
    assert rel.effects == ("planks",)


def test_malformed_relation_lines_raise():
    for bad in ["", "Action: x", "Action: x; Cause: nope; Effect []",
                "Action: x; Cause: [1]; Effect []"]:
        with pytest.raises(CausalParseError):
            parse_relation_line(bad)


@pytest.mark.parametrize("name,expected", [("causal_small.txt", 23), ("causal_large.txt", 87)])
def test_fixture_graphs_parse_with_expected_sizes(name, expected):
    text = (FIXTURES / name).read_text()
    graph = CausalGraph.parse(text)
    assert len(graph) == expected
    again = CausalGraph.parse(graph.serialize())
    assert again.relations == graph.relations


def test_lenient_parse_skips_noise_and_reads_json():
    graph = CausalGraph.parse_lenient(
        "Here are the relations:\nAction: a(); Cause: []; Effect ['x']\nthanks!"
    )
    assert len(graph) == 1
    graph = CausalGraph.parse_lenient('[{"action": "b()", "effects": ["y"]}]')
    assert graph.relations["b()"].effects == ("y",)


relations = st.builds(
    CausalRelation,
    action=st.sampled_from(["a()", "b()", "c()", "d()"]),
    causes=st.lists(st.sampled_from(["p", "q", "r"]), max_size=3).map(tuple),
    effects=st.lists(st.sampled_from(["x", "y", "z"]), max_size=3).map(tuple),
)
def _build_graph(rels):
    g = CausalGraph()
    for r in rels:
        g.add(r)
    return g


graphs = st.lists(relations, max_size=8).map(_build_graph)


@settings(max_examples=200, deadline=None)
@given(graphs, graphs)
def test_union_is_monotone(a, b):
    u = a.union(b)
    assert u.covers(a) and u.covers(b)
    # union never loses what was already known
    assert a.union(b).union(b).covers(u)


def test_graph_json_round_trip():
    g = _build_graph([CausalRelation("a()", ("p",), ("x", "y"))])
    assert CausalGraph.from_json(g.to_json()).relations == g.relations


# -- tactics and tags --------------------------------------------------------------


def test_extract_tagged_finds_all_blocks():
    blocks = extract_tagged("x <p>one</p> y <p>two</p>", "<p>", "</p>")
    assert blocks == ["one", "two"]
    with pytest.raises(TagParseError):
        extract_tagged("nothing here", "<p>", "</p>")


def test_tactics_parse_and_truncate():
    t = Tactics.parse("<tactics>\nline one\nline two\n</tactics>")
    assert t.lines == ["line one", "line two"]
    over = Tactics([f"line {i}" for i in range(MAX_TACTICS_LINES + 3)])
    assert len(over.lines) == MAX_TACTICS_LINES
    with pytest.raises(TagParseError):
        Tactics.parse("<tactics>\n\n</tactics>")


def test_opponent_tactics_unknown_sentinel():
    assert OpponentTactics().to_text() == "unknown"
    assert OpponentTactics(["rushes berries"]).to_text() == "rushes berries"


def test_tactics_init_falls_back_after_bad_responses():
    client = MockChatClient(scripted_responses={"tactics": ["garbage", "more garbage"]})
    from tacticbench.agents.tacticrafter import GameDescription

    desc = GameDescription("red", "win", "a test scenario", ["Ryn"], "docs")
    t = tactics_init(client, PromptTemplates(), desc, CausalGraph())
    assert t.lines == [FALLBACK_TACTICS_LINE]
    assert len(client.calls) == 2  # one retry, then give up


def test_opponent_chat_lines_excludes_own_team():
    events = [chat("Ryn", "ours"), chat("Byte", "theirs"), chat("environment", "sys")]
    text = opponent_chat_lines(events, ["Byte", "Blink"])
    assert "theirs" in text and "ours" not in text and "sys" not in text


def test_render_events_handles_empty_and_caps():
    assert render_events([]) == "(nothing)"
    events = [chat("A", f"m{i}", tick=i) for i in range(300)]
    assert len(render_events(events, cap=10).splitlines()) == 10


# -- prompt templates ----------------------------------------------------------------


def test_all_templates_load_and_demand_their_slots():
    templates = PromptTemplates()
    assert set(templates.texts) == set(PromptTemplates.NAMES)
    with pytest.raises(KeyError):
        templates.fill("p_a", team_name="red")  # most slots missing


def test_fill_interpolates_values():
    templates = PromptTemplates()
    out = templates.fill(
        "p_c", team_name="red", scenario="test scenario", primitives="docs here"
    )
    assert "test scenario" in out and "docs here" in out


# -- clients ------------------------------------------------------------------------


def test_mock_client_records_latency_and_tokens():
    client = MockChatClient(responder=lambda p, t: "four words right here",
                            latency=2.0, token_count=100)
    resp = client.chat(ChatCompletionRequest([ChatMessage("user", "hi")], purpose="x"))
    assert resp.latency == 2.0 and resp.token_count == 100
    assert client.calls[0].t_resp == 2.0 and client.calls[0].n_out == 100
    assert client.calls[0].purpose == "x"


def test_mock_client_scripted_queue_per_purpose():
    client = MockChatClient(scripted_responses={"a": ["one", "two"]})
    req = ChatCompletionRequest([ChatMessage("user", "")], purpose="a")
    assert client.chat(req).text == "one"
    assert client.chat(req).text == "two"
    assert client.chat(req).text == ""


def _ok_body(text="hello", tokens=7):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"completion_tokens": tokens},
    }


def test_http_client_sends_standard_payload():
    seen = {}

    def transport(url, payload, headers, timeout):
        seen.update(url=url, payload=payload, headers=headers)
        return _ok_body()

    client = HttpChatClient("http://example/v1/", "m1", api_key="k", transport=transport)
    resp = client.chat(ChatCompletionRequest([ChatMessage("user", "hi")], temperature=0.3))
    assert seen["url"] == "http://example/v1/chat/completions"
    assert seen["payload"]["model"] == "m1"
    assert seen["payload"]["messages"] == [{"role": "user", "content": "hi"}]
    assert seen["payload"]["temperature"] == 0.3
    assert seen["headers"]["Authorization"] == "Bearer k"
    assert resp.text == "hello" and resp.token_count == 7


def test_http_client_retries_then_succeeds():
    attempts = []
    naps = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        if len(attempts) == 1:
            raise ConnectionError("boom")
        return _ok_body()

    client = HttpChatClient(
        "http://x", "m", api_key="", transport=transport, sleep=naps.append
    )
    resp = client.chat(ChatCompletionRequest([ChatMessage("user", "q")]))
    assert resp.text == "hello"
    assert len(attempts) == 2 and naps == [1.0]
    assert len(client.calls) == 1  # only the success is recorded


def test_http_client_gives_up_after_retries():
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        raise ConnectionError("down")

    client = HttpChatClient(
        "http://x", "m", api_key="", transport=transport, sleep=lambda s: None
    )
    with pytest.raises(TransportError):
        client.chat(ChatCompletionRequest([ChatMessage("user", "q")]))
    assert len(attempts) == 1 + HttpChatClient.MAX_RETRIES
    assert client.calls == []


def _http_error(status: int) -> requests.HTTPError:
    response = requests.Response()
    response.status_code = status
    return requests.HTTPError(f"{status} error", response=response)


@pytest.mark.parametrize(
    "status, attempts_made",
    [(400, 1), (401, 1), (429, 1 + HttpChatClient.MAX_RETRIES), (503, 1 + HttpChatClient.MAX_RETRIES)],
)
def test_http_client_retries_only_transient_statuses(status, attempts_made):
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        raise _http_error(status)

    client = HttpChatClient(
        "http://x", "m", api_key="", transport=transport, sleep=lambda s: None
    )
    with pytest.raises(TransportError):
        client.chat(ChatCompletionRequest([ChatMessage("user", "q")]))
    assert len(attempts) == attempts_made


@pytest.mark.parametrize("body", [{}, {"choices": []}, {"choices": [{"text": "hi"}]}])
def test_http_client_does_not_retry_malformed_bodies(body):
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        return body

    client = HttpChatClient(
        "http://x", "m", api_key="", transport=transport, sleep=lambda s: None
    )
    with pytest.raises(TransportError):
        client.chat(ChatCompletionRequest([ChatMessage("user", "q")]))
    assert len(attempts) == 1
    assert client.calls == []


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_save_load_save_is_lossless():
    client = make_mock_client()
    system = TactiCrafterSystem(client)
    system.tactics = Tactics(["harvest fast", "guard the slime"])
    system.graph = _build_graph([CausalRelation("a()", ("p",), ("x",))])
    system.opponent_tactics = OpponentTactics(["they rush"])
    system.episode_counter = 4
    blob = checkpoint_save(system).to_json()
    restored = checkpoint_load(Checkpoint.from_json(blob), client)
    assert checkpoint_save(restored).to_json() == blob
    assert restored.tactics.lines == system.tactics.lines
    assert restored.graph.relations == system.graph.relations


def test_checkpoint_version_mismatch_rejected():
    blob = checkpoint_save(TactiCrafterSystem(make_mock_client())).to_json()
    tampered = blob.replace('"version": 1', '"version": 2')
    with pytest.raises(ValueError):
        Checkpoint.from_json(tampered)


# -- pipeline odds and ends -------------------------------------------------------------


def test_compile_program_returns_the_parsed_program():
    table = get_scenario("mushroom_war").primitive_table
    source = 'loop { mineBlock("slime_block", 1) }'
    assert compile_program(source, table) == parse_source(source)


def test_compile_program_rejects_unparsable_text():
    table = get_scenario("mushroom_war").primitive_table
    assert compile_program("broken(", table) is None


def test_compile_program_rejects_primitives_the_scenario_lacks():
    source = 'craftItem("bread", 1)'
    assert compile_program(source, get_scenario("mushroom_war").primitive_table) is None
    assert compile_program(source, get_scenario("dash_and_dine").primitive_table) is not None


def test_ensure_primitive_coverage_stubs_missing_actions():
    table = get_scenario("mushroom_war").primitive_table
    graph = ensure_primitive_coverage(CausalGraph(), table)
    heads = {a.split("(")[0] for a in graph.relations}
    assert heads == set(table.available)


def test_cot_baseline_pads_missing_programs_with_none():
    table = get_scenario("mushroom_war").primitive_table
    client = MockChatClient(
        responder=lambda p, t: '<program>\nmineBlock("slime_block", 1)\n</program>'
    )
    programs = cot_baseline(client, "prompt", 2, table)
    assert programs[0] is not None and programs[1] is None


def test_cot_baseline_rejects_invalid_programs():
    table = get_scenario("mushroom_war").primitive_table
    client = MockChatClient(
        responder=lambda p, t: "<program>\ncraftItem(\"bread\", 1)\n</program>"
        "<program>\nbroken(\n</program>"
    )
    programs = cot_baseline(client, "prompt", 2, table)
    assert programs == [None, None]


# -- full-system integration --------------------------------------------------------------


def _short_episode(system, scenario="mushroom_war", ticks=600, seed=2):
    config = get_scenario(scenario, duration_ticks=ticks)
    systems = {
        "red": system,
        "blue": BuiltinTeamSystem(builtin("do_nothing", scenario)),
    }
    return run_episode(config, systems, seed)


def test_tacticrafter_scores_with_the_mock_client():
    client = make_mock_client()
    system = TactiCrafterSystem(client)
    result = _short_episode(system, ticks=1200)
    assert result.scores["red"] > 0
    assert result.disabled_teams == []
    purposes = {c.purpose for c in client.calls}
    assert {"causal", "tactics", "program"} <= purposes


def test_tacticrafter_memo_dedup_returns_what_a_fresh_dedup_returns(monkeypatch):
    real = tacticrafter.dedup_events
    lengths = []

    def compare(events, memo=None):
        out = real(events, memo)
        if memo is not None:
            fresh = real(events)
            assert len(out) == len(fresh) and all(a is b for a, b in zip(out, fresh))
            lengths.append(len(events))
        return out

    monkeypatch.setattr(tacticrafter, "dedup_events", compare)
    systems = {
        "red": TactiCrafterSystem(make_mock_client()),
        "blue": BuiltinTeamSystem(builtin("slimy", "mushroom_war")),
    }
    run_episode(get_scenario("mushroom_war", duration_ticks=2400), systems, 2)
    # logs long enough that later regenerations reuse part of the last scan
    assert len(lengths) > 100 and max(lengths) > 300


def test_tacticrafter_charges_idle_for_midgame_regenerations():
    client = make_mock_client(latency=0.5)  # 10 ticks per regeneration
    system = TactiCrafterSystem(client)
    _short_episode(system, ticks=1200)
    assert system.idle_ticks_charged > 0
    assert system.idle_ticks_charged % 10 == 0
    assert any(n > 1 for n in system.iteration_counts.values())


@pytest.mark.parametrize(
    "response",
    [
        "no tags at all",
        "<program>\nbroken(\n</program>",
        '<program>\ncraftItem("bread", 1)\n</program>',  # not a mushroom_war primitive
    ],
    ids=["no-tags", "unparsable", "invalid"],
)
def test_tacticrafter_benches_agents_after_repeated_parse_failures(response):
    client = MockChatClient(responder=lambda p, t: response)
    system = TactiCrafterSystem(client)
    result = _short_episode(system, ticks=200)
    assert all(a.benched for a in system._agents.values())
    assert result.scores["red"] == 0  # wait-loop team cannot score


def test_tacticrafter_regenerates_once_per_poll_when_programs_end_without_a_request(
    monkeypatch,
):
    """A valid program that ends without a request costs one regeneration
    per poll, and the agent idles ``wait_ticks`` until the next poll."""
    program = '<program>\nif has("diamond", 1) { wait(5) }\n</program>'
    client = MockChatClient(
        responder=lambda p, t: program if p == "program" else default_mock_responder(p, t)
    )
    system = TactiCrafterSystem(client)
    polls: dict[str, list[int]] = {}
    regenerations: dict[str, int] = {}
    real_next_request = TactiCrafterSystem.next_request
    real_generate = TactiCrafterSystem._generate_program

    def polled(self, agent_name, view):
        polls.setdefault(agent_name, []).append(view.tick)
        req = real_next_request(self, agent_name, view)
        assert req is None
        return req

    def generate(self, agent, charge_latency):
        if charge_latency:
            regenerations[agent.name] = regenerations.get(agent.name, 0) + 1
        return real_generate(self, agent, charge_latency)

    monkeypatch.setattr(TactiCrafterSystem, "next_request", polled)
    monkeypatch.setattr(TactiCrafterSystem, "_generate_program", generate)
    config = get_scenario("mushroom_war", duration_ticks=400)
    _short_episode(system, ticks=config.duration_ticks)
    wait = config.wait_ticks
    assert set(polls) == set(system._agents)
    for name, ticks in polls.items():
        assert ticks == list(range(0, config.duration_ticks, wait))
        assert regenerations[name] == len(ticks)
        assert system.iteration_counts[name] == len(ticks) + 1  # plus the pre-game one


def test_tacticrafter_second_episode_runs_the_update_path():
    client = make_mock_client()
    system = TactiCrafterSystem(client)
    _short_episode(system, ticks=600, seed=2)
    n_before = len(client.calls)
    _short_episode(system, ticks=600, seed=3)
    purposes = [c.purpose for c in client.calls[n_before:]]
    assert "opponent" in purposes and "causal" in purposes and "tactics" in purposes
    assert system.episode_counter == 2


def test_cot_system_plays_and_scores():
    client = make_mock_client()
    system = CoTTeamSystem(client)
    result = _short_episode(system, ticks=1200)
    assert result.scores["red"] > 0
    assert [c.purpose for c in client.calls] == ["cot"]


def test_cot_remembers_each_chat_line_once():
    system = CoTTeamSystem(make_mock_client())
    systems = {"red": system, "blue": BuiltinTeamSystem(builtin("berries", "dash_and_dine"))}
    result = run_episode(get_scenario("dash_and_dine", duration_ticks=600), systems, 2)
    remembered = system._memory.log.events
    # lines broadcast after the team's last turn are never shown to it
    assert remembered and remembered == result.chat_log[: len(remembered)]


def test_tacticrafter_remembers_the_episode_as_one_prefix_of_the_chat_log():
    system = TactiCrafterSystem(make_mock_client())
    result = _short_episode(system, scenario="dash_and_dine", ticks=600)
    remembered = system._log.events
    assert remembered and remembered == result.chat_log[: len(remembered)]
    assert max(system._log.seen.values()) == len(remembered)


def test_mock_responder_adapts_to_scenario_keywords():
    mw = default_mock_responder("program", "agent index: 0\nmine the slime_block patches")
    assert "slime_block" in mw
    dd = default_mock_responder("program", "agent index: 0\nOWN_SERVER = Red_Server\nserve and cook")
    assert "Red_Server" in dd
