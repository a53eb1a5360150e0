"""Tokenizer, parser, validator, and interpreter for the action language."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tacticbench.actionlang import (
    ActionProgram,
    Call,
    ExecState,
    IfHas,
    Loop,
    ParseError,
    PrimitiveRequest,
    Repeat,
    Say,
    SayRequest,
    Wait,
    WaitRequest,
    parse_source,
    pretty_print,
    step,
    tokenize,
    validate,
)
from tacticbench.actionlang.parse import MAX_NESTING
from tacticbench.actionlang.table import (
    CATALOG,
    DASH_AND_DINE_PRIMITIVES,
    MUSHROOM_WAR_PRIMITIVES,
    PrimitiveTable,
)
from tacticbench.world import Inventory


class FakeSession:
    """Stand-in for the episode clock + inventory holder used by step()."""

    def __init__(self, duration: int = 10_000, items: dict | None = None) -> None:
        self.tick = 0
        self.duration = duration
        self.inventory = Inventory(items or {})


MW_TABLE = PrimitiveTable("mushroom_war", MUSHROOM_WAR_PRIMITIVES)
DD_TABLE = PrimitiveTable("dash_and_dine", DASH_AND_DINE_PRIMITIVES)


# -- tokenizer ----------------------------------------------------------------


def test_tokenize_positions_are_one_based():
    toks = tokenize('wait(5)\nsay("hi")')
    assert toks[0].line == 1 and toks[0].col == 1
    say = [t for t in toks if t.text == "say"][0]
    assert say.line == 2 and say.col == 1


def test_tokenize_skips_comments():
    toks = tokenize("# a comment\nwait(1) # trailing\n")
    kinds = [t.kind for t in toks if t.kind != "eof"]
    assert kinds == ["keyword", "lparen", "int", "rparen"]


def test_tokenize_flags_unterminated_string():
    toks = tokenize('say("oops')
    assert any(t.kind == "error" for t in toks)


# -- parser golden corpus -----------------------------------------------------


def _golden_corpus() -> list[str]:
    """>= 50 programs exercising every construct; all must round-trip."""
    corpus = [
        "",
        "wait(0)\n",
        "wait(100)\n",
        'say("hello team")\n',
        'mineBlock("slime_block", 4)\n',
        'mineBlock("slime_block", 4, "own")\n',
        'craftItem("bread", 2)\n',
        'placeItem("slime_block", 10, 12)\n',
        'smeltItem("potato", "coal", 8)\n',
        'farm("harvest", "wheat")\n',
        'killMob("pig", 300)\n',
        'giveToPlayer("cake", "Red_Server", -1)\n',
        'useChest("get", 9, 17, "bowl", 1)\n',
        'useChest("check", 9, 17)\n',
        'signal("send", "Raze")\n',
        'signal("wait", "Ryn", 200)\n',
        'transformFarm("carrots", "wheat")\n',
        "loop {\n  wait(20)\n}\n",
        "repeat 3 {\n  wait(1)\n}\n",
        "repeat 0 {\n  wait(1)\n}\n",
        'if has("wheat", 3) {\n  craftItem("bread", 1)\n}\n',
        'if has("wheat", 3) {\n  craftItem("bread", 1)\n} else {\n  farm("harvest", "wheat")\n}\n',
        'if has("egg", 1) {\n} else {\n  useChest("get", 10, 17, "egg", 1)\n}\n',
        'loop {\n  mineBlock("slime_block", 12, "own")\n}\n',
        'loop {\n  farm("harvest", "melon")\n  if has("melon_slice", 1) {\n    giveToPlayer("melon_slice", "Blue_Server", -1)\n  }\n}\n',
        "loop {\n  repeat 4 {\n    placeItem(\"slime_block\", 7, 7)\n  }\n}\n",
        'say("a")\nsay("b")\nsay("c")\n',
        "wait(1)\nwait(2)\nwait(3)\n",
        'repeat 2 {\n  repeat 2 {\n    repeat 2 {\n      say("deep")\n    }\n  }\n}\n',
        'loop {\n  signal("wait", "Ryn", 100)\n  say("woke")\n}\n',
    ]
    rng = random.Random(1234)
    kinds = ["slime_block", "red_mushroom_block", "wheat", "melon", "potatoes"]
    while len(corpus) < 55:
        kind = rng.choice(kinds)
        n = rng.randint(1, 12)
        body = f'  mineBlock("{kind}", {n})\n  wait({rng.randint(1, 50)})\n'
        corpus.append(f"loop {{\n{body}}}\n")
    return corpus


def test_golden_corpus_round_trips():
    corpus = _golden_corpus()
    assert len(corpus) >= 50
    for source in corpus:
        program = parse_source(source)
        printed = pretty_print(program)
        assert parse_source(printed) == program
        # fixpoint: printing is canonical
        assert pretty_print(parse_source(printed)) == printed


MALFORMED = [
    ("wait(", 1, 6),
    ("wait(-)", 1, 6),
    ('say(hello)', 1, 5),
    ("repeat x { }", 1, 8),
    ("loop { wait(1) ", 1, 16),
    ("mineBlock(\n  'bad quote', 1)", 2, 3),
    ('if has("wheat") { }', 1, 15),
    ("} loop { }", 1, 1),
    ("loop { wait(1) } }", 1, 18),
    ('mineBlock("slime_block" 2)', 1, 25),
]


@pytest.mark.parametrize("source,line,col", MALFORMED)
def test_malformed_inputs_report_positions(source, line, col):
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert exc.value.line == line
    assert exc.value.column == col
    assert exc.value.message


def test_parse_error_carries_expected_set():
    with pytest.raises(ParseError) as exc:
        parse_source("repeat x { }")
    assert isinstance(exc.value.expected, frozenset)
    assert exc.value.expected


def test_nesting_limit_is_a_parse_error():
    source = ""
    for _ in range(MAX_NESTING + 1):
        source += "loop {\n"
    source += "wait(1)\n" + "}\n" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert "nesting" in exc.value.message


def test_nesting_at_limit_parses():
    source = ""
    for _ in range(MAX_NESTING):
        source += "loop {\n"
    source += "wait(1)\n" + "}\n" * MAX_NESTING
    parse_source(source)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_fuzzed_text_never_crashes(source):
    try:
        parse_source(source)
    except ParseError:
        pass


# -- validation ---------------------------------------------------------------


def test_validate_rejects_unknown_primitive():
    issues = validate(parse_source('dance("fast", 1)\n'), MW_TABLE)
    assert issues and "unknown" in issues[0].message


def test_validate_rejects_unavailable_primitive_per_scenario():
    program = parse_source('craftItem("bread", 1)\n')
    assert validate(program, MW_TABLE)
    assert not validate(program, DD_TABLE)


def test_validate_rejects_bad_arity_and_kinds():
    assert validate(parse_source('mineBlock("slime_block")\n'), MW_TABLE)
    assert validate(parse_source('mineBlock(3, "slime_block")\n'), MW_TABLE)
    assert validate(parse_source('mineBlock("a", 1, "own", 9)\n'), MW_TABLE)


def test_validate_descends_into_blocks():
    program = parse_source('loop {\n  if has("x", 1) {\n    bogus("y", 1)\n  }\n}\n')
    assert validate(program, DD_TABLE)


def test_catalog_scenario_split():
    assert "craftItem" not in MUSHROOM_WAR_PRIMITIVES
    assert "farm" not in MUSHROOM_WAR_PRIMITIVES
    assert MUSHROOM_WAR_PRIMITIVES < DASH_AND_DINE_PRIMITIVES
    assert set(CATALOG) == set(DASH_AND_DINE_PRIMITIVES)


# -- interpreter --------------------------------------------------------------


def _drain(source: str, session: FakeSession, limit: int = 50):
    state = ExecState(parse_source(source))
    out = []
    for _ in range(limit):
        req = step(state, session, session)
        if req is None:
            break
        out.append(req)
    return state, out


def test_step_sequences_statements():
    session = FakeSession()
    state, reqs = _drain('wait(5)\nsay("hi")\nmineBlock("slime_block", 1)\n', session)
    assert isinstance(reqs[0], WaitRequest) and reqs[0].ticks == 5
    assert isinstance(reqs[1], SayRequest) and reqs[1].text == "hi"
    assert isinstance(reqs[2], PrimitiveRequest) and reqs[2].name == "mineBlock"
    assert state.status == "done"


def test_repeat_runs_exact_count():
    session = FakeSession()
    _, reqs = _drain("repeat 3 {\n  wait(1)\n}\n", session)
    assert len(reqs) == 3


def test_empty_loop_yields_implicit_waits():
    session = FakeSession()
    state = ExecState(parse_source("loop {\n}\n"))
    for _ in range(5):
        req = step(state, session, session)
        assert isinstance(req, WaitRequest) and req.ticks == 1
    assert state.status == "running"


def test_cached_program_steps_independently_in_two_exec_states():
    source = 'repeat 2 {\n  wait(1)\n  say("hi")\n}\nmineBlock("slime_block", 1)\n'
    program = parse_source(source)
    assert parse_source(source) is program  # cached: one shared program
    session = FakeSession()
    first, second = ExecState(program), ExecState(parse_source(source))
    a = [step(first, session, session) for _ in range(3)]
    b = [step(second, session, session) for _ in range(5)]
    assert [type(r).__name__ for r in a] == ["WaitRequest", "SayRequest", "WaitRequest"]
    assert isinstance(b[4], PrimitiveRequest) and b[4].name == "mineBlock"
    assert isinstance(step(first, session, session), SayRequest)  # unmoved by second
    b[4].args.append(1)  # a request's args are its own copy
    assert program == parse_source.__wrapped__(source)


def test_bad_source_raises_an_equal_parse_error_on_every_call():
    errors = []
    for _ in range(3):
        with pytest.raises(ParseError) as info:
            parse_source('wait(5\nsay("x")\n')
        errors.append(info.value)
    assert errors[0] == errors[1] == errors[2]
    assert len({str(e) for e in errors}) == 1


def test_if_has_checks_inventory():
    session = FakeSession(items={"wheat": 3})
    _, reqs = _drain('if has("wheat", 3) {\n  say("yes")\n} else {\n  say("no")\n}\n', session)
    assert reqs[0].text == "yes"
    session = FakeSession(items={"wheat": 2})
    _, reqs = _drain('if has("wheat", 3) {\n  say("yes")\n} else {\n  say("no")\n}\n', session)
    assert reqs[0].text == "no"


def test_if_has_malformed_item_is_runtime_error():
    session = FakeSession()
    state = ExecState(parse_source('if has("NOT AN ID", 1) {\n  wait(1)\n}\n'))
    assert step(state, session, session) is None
    assert state.status == "error"


def test_error_report_aborts_program():
    session = FakeSession()
    state = ExecState(parse_source('loop {\n  mineBlock("slime_block", 1)\n}\n'))
    req = step(state, session, session)
    assert isinstance(req, PrimitiveRequest)
    state.report_error("No slime_block nearby")
    assert step(state, session, session) is None
    assert state.status == "error"
    assert state.error_message == "No slime_block nearby"


def test_episode_end_marks_done():
    session = FakeSession(duration=100)
    session.tick = 100
    state = ExecState(parse_source("loop {\n  wait(1)\n}\n"))
    assert step(state, session, session) is None
    assert state.status == "done"


def test_ast_equality_ignores_positions():
    a = parse_source('mineBlock("x", 1)\n')
    b = parse_source('\n\n   mineBlock("x", 1)\n')
    assert a == b


def test_program_nodes_constructible_directly():
    program = ActionProgram(
        [
            Repeat(2, [Wait(1)]),
            Loop([Call("mineBlock", ["slime_block", 1])]),
            IfHas("wheat", 3, [Say("ok")], []),
        ]
    )
    text = pretty_print(program)
    assert parse_source(text) == program
