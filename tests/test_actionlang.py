"""Tokenizer, parser, validator, and interpreter for the action language."""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

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
    assert issues and "Unknown primitive" in issues[0].message


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
        req = step(state, session)
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
        req = step(state, session)
        assert isinstance(req, WaitRequest) and req.ticks == 1
    assert state.status == "running"


def test_cached_program_steps_independently_in_two_exec_states():
    source = 'repeat 2 {\n  wait(1)\n  say("hi")\n}\nmineBlock("slime_block", 1)\n'
    program = parse_source(source)
    assert parse_source(source) is program  # cached: one shared program
    session = FakeSession()
    first, second = ExecState(program), ExecState(parse_source(source))
    a = [step(first, session) for _ in range(3)]
    b = [step(second, session) for _ in range(5)]
    assert [type(r).__name__ for r in a] == ["WaitRequest", "SayRequest", "WaitRequest"]
    assert isinstance(b[4], PrimitiveRequest) and b[4].name == "mineBlock"
    assert isinstance(step(first, session), SayRequest)  # unmoved by second
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
    assert step(state, session) is None
    assert state.status == "error"


def test_error_report_aborts_program():
    session = FakeSession()
    state = ExecState(parse_source('loop {\n  mineBlock("slime_block", 1)\n}\n'))
    req = step(state, session)
    assert isinstance(req, PrimitiveRequest)
    state.report_error("No slime_block nearby")
    assert step(state, session) is None
    assert state.status == "error"
    assert state.error_message == "No slime_block nearby"


def test_episode_end_marks_done():
    session = FakeSession(duration=100)
    session.tick = 100
    state = ExecState(parse_source("loop {\n  wait(1)\n}\n"))
    assert step(state, session) is None
    assert state.status == "done"


def test_an_empty_state_is_done_until_a_program_is_loaded():
    session = FakeSession()
    state = ExecState()
    assert (state.status, state.error_message, state.pending_idle) == ("done", None, 0)
    assert step(state, session) is None
    state.load(parse_source('if has("BAD ID", 1) {\n}\n'))
    assert step(state, session) is None and state.status == "error"
    state.load(parse_source("wait(3)\n"))  # a new program clears the old error
    assert (state.status, state.error_message) == ("running", None)
    assert step(state, session) == WaitRequest(3)
    state.charge_idle(0)
    state.charge_idle(4)
    state.charge_idle(5)
    assert state.pending_idle == 9


# -- the frame-stack interpreter the generator replaced, kept as an oracle ----


class _OracleFrame:
    def __init__(self, body, kind="block", remaining=0):
        self.body = body
        self.idx = 0
        self.kind = kind  # block | loop | repeat
        self.remaining = remaining  # repeat iterations left (current one included)
        self.produced = False  # did this loop pass produce a request?


class _OracleState:
    def __init__(self, program: ActionProgram) -> None:
        self.frames = [_OracleFrame(program.statements)]
        self.status = "running"
        self.error_message = None

    def report_error(self, message: str) -> None:
        self.status = "error"
        self.error_message = message


def _oracle_step(exec_state: _OracleState, world, agent):
    if exec_state.status != "running":
        return None
    if world.tick >= world.duration:
        exec_state.status = "done"
        return None
    frames = exec_state.frames
    while True:
        if not frames:
            exec_state.status = "done"
            return None
        frame = frames[-1]
        if frame.idx >= len(frame.body):
            if frame.kind == "loop":
                if world.tick >= world.duration:
                    exec_state.status = "done"
                    return None
                if not frame.produced:
                    frame.idx = 0
                    return WaitRequest(1)
                frame.produced = False
                frame.idx = 0
                continue
            if frame.kind == "repeat":
                frame.remaining -= 1
                if frame.remaining > 0:
                    frame.idx = 0
                    continue
            frames.pop()
            continue
        stmt = frame.body[frame.idx]
        frame.idx += 1
        if isinstance(stmt, (Call, Wait, Say)):
            for f in frames:
                if f.kind == "loop":
                    f.produced = True
            if isinstance(stmt, Call):
                return PrimitiveRequest(stmt.name, list(stmt.args))
            if isinstance(stmt, Wait):
                return WaitRequest(stmt.ticks)
            return SayRequest(stmt.text)
        if isinstance(stmt, Repeat):
            if stmt.count > 0 and stmt.body:
                frames.append(_OracleFrame(stmt.body, kind="repeat", remaining=stmt.count))
            continue
        if isinstance(stmt, Loop):
            frames.append(_OracleFrame(stmt.body, kind="loop"))
            continue
        if isinstance(stmt, IfHas):
            if not re.match(r"^[a-z_][a-z0-9_]*$", stmt.item):
                exec_state.report_error(f"has() called with malformed item id {stmt.item!r}")
                return None
            branch = stmt.then if agent.inventory.count(stmt.item) >= stmt.count else stmt.otherwise
            if branch:
                frames.append(_OracleFrame(branch))
            continue
        exec_state.report_error(f"unknown statement {stmt!r}")
        return None


@dataclass
class Dance:
    """A statement the interpreter does not know."""

    steps: int


_HAS_ITEMS = ("wheat", "egg")
_leaf = st.one_of(
    st.builds(
        Call,
        st.sampled_from(["mineBlock", "farm"]),
        st.lists(st.one_of(st.integers(0, 3), st.sampled_from(_HAS_ITEMS)), max_size=2),
    ),
    st.builds(Wait, st.integers(0, 3)),
    st.builds(Say, st.sampled_from(["a", "b"])),
)
# one leaf in twenty is a statement the interpreter does not know
_statement_leaf = st.integers(0, 19).flatmap(
    lambda i: st.builds(Dance, st.integers(0, 2)) if i == 0 else _leaf
)


# one id in five is malformed
_has_ids = st.sampled_from(["wheat", "egg", "wheat", "egg", "NOT AN ID"])


def _compound(children):
    bodies = st.lists(children, max_size=3)  # empty bodies included
    return st.one_of(
        st.builds(Repeat, st.integers(0, 3), bodies),  # repeat 0 included
        st.builds(Loop, bodies),
        st.builds(IfHas, _has_ids, st.integers(0, 2), bodies, bodies),
    )


_statements = st.recursive(_statement_leaf, _compound, max_leaves=12)
# a loop whose requests all come from its ifs: "produced" must propagate
_loop_of_ifs = st.builds(
    Loop,
    st.lists(
        st.builds(
            IfHas,
            _has_ids,
            st.integers(0, 2),
            st.lists(_statements, max_size=2),
            st.lists(_statements, max_size=2),
        ),
        min_size=1,
        max_size=2,
    ),
)
_programs = st.builds(ActionProgram, st.lists(st.one_of(_statements, _loop_of_ifs), max_size=4))


@settings(max_examples=400, deadline=None)
@given(program=_programs, data=st.data())
def test_generator_runtime_matches_the_frame_stack_oracle(program, data):
    session = FakeSession(duration=data.draw(st.integers(1, 80), label="duration"))
    oracle, state = _OracleState(program), ExecState(program)
    for _ in range(60):
        session.inventory = Inventory(
            data.draw(st.dictionaries(st.sampled_from(_HAS_ITEMS), st.integers(1, 3)))
        )
        expected = _oracle_step(oracle, session, session)
        got = step(state, session)
        assert got == expected
        assert (state.status, state.error_message) == (oracle.status, oracle.error_message)
        if state.status != "running":
            assert step(state, session) is None
            return
        # one primitive in eight fails
        if isinstance(got, PrimitiveRequest) and data.draw(st.integers(0, 7), label="fails") == 0:
            oracle.report_error(f"{got.name} failed")
            state.report_error(f"{got.name} failed")
        session.tick += data.draw(st.integers(0, 3), label="ticks")


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
