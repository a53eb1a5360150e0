"""Recursive-descent parser and pretty-printer for ActScript.

Every input yields either an :class:`ActionProgram` or a :class:`ParseError`
raised with the position of the first offending token and the set of token
kinds that would have been accepted there.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

from .tokens import Token, tokenize

MAX_NESTING = 8

Arg = Union[str, int]


@dataclass
class ParseError(Exception):
    line: int
    column: int
    message: str
    expected: frozenset[str] = frozenset()

    def __str__(self) -> str:
        exp = f" (expected one of: {', '.join(sorted(self.expected))})" if self.expected else ""
        return f"{self.line}:{self.column}: {self.message}{exp}"


@dataclass(eq=True)
class Call:
    name: str
    args: list[Arg]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(eq=True)
class Repeat:
    count: int
    body: list["Statement"]


@dataclass(eq=True)
class Loop:
    body: list["Statement"]


@dataclass(eq=True)
class IfHas:
    item: str
    count: int
    then: list["Statement"]
    otherwise: list["Statement"] = field(default_factory=list)


@dataclass(eq=True)
class Wait:
    ticks: int


@dataclass(eq=True)
class Say:
    text: str


Statement = Union[Call, Repeat, Loop, IfHas, Wait, Say]


@dataclass(eq=True)
class ActionProgram:
    statements: list[Statement]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, expected: set[str] = frozenset()) -> ParseError:
        tok = self.peek()
        return ParseError(tok.line, tok.col, message, frozenset(expected))

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "error":
            raise self.error(f"invalid token {tok.text!r}", {kind})
        if tok.kind != kind:
            raise self.error(f"expected {what}, found {tok.kind} {tok.text!r}", {kind})
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "keyword" or tok.text != word:
            raise self.error(f"expected {word!r}", {word})
        return self.advance()

    def parse_program(self) -> ActionProgram:
        stmts = self.parse_statements(depth=0, until="eof")
        return ActionProgram(stmts)

    def parse_statements(self, depth: int, until: str) -> list[Statement]:
        stmts: list[Statement] = []
        while self.peek().kind != until:
            if self.peek().kind == "eof":
                raise self.error("unexpected end of input", {until})
            stmts.append(self.parse_statement(depth))
        return stmts

    def parse_statement(self, depth: int) -> Statement:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.text == "repeat":
                return self.parse_repeat(depth)
            if tok.text == "loop":
                return self.parse_loop(depth)
            if tok.text == "if":
                return self.parse_if(depth)
            if tok.text == "wait":
                return self.parse_wait()
            if tok.text == "say":
                return self.parse_say()
            raise self.error(
                f"unexpected keyword {tok.text!r}",
                {"repeat", "loop", "if", "wait", "say", "ident"},
            )
        if tok.kind == "ident":
            return self.parse_call()
        if tok.kind == "error":
            raise self.error(f"invalid token {tok.text!r}", {"statement"})
        raise self.error(
            f"expected a statement, found {tok.kind} {tok.text!r}",
            {"repeat", "loop", "if", "wait", "say", "ident"},
        )

    def parse_block(self, depth: int) -> list[Statement]:
        if depth >= MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.expect("lbrace", "'{'")
        stmts = self.parse_statements(depth + 1, until="rbrace")
        self.expect("rbrace", "'}'")
        return stmts

    def parse_repeat(self, depth: int) -> Repeat:
        self.expect_keyword("repeat")
        count = self.expect("int", "repeat count")
        n = int(count.text)
        if n < 0:
            raise ParseError(count.line, count.col, "repeat count must be >= 0")
        return Repeat(n, self.parse_block(depth))

    def parse_loop(self, depth: int) -> Loop:
        self.expect_keyword("loop")
        return Loop(self.parse_block(depth))

    def parse_if(self, depth: int) -> IfHas:
        self.expect_keyword("if")
        self.expect_keyword("has")
        self.expect("lparen", "'('")
        item = self.expect("string", "item id string")
        self.expect("comma", "','")
        count = self.expect("int", "item count")
        self.expect("rparen", "')'")
        then = self.parse_block(depth)
        otherwise: list[Statement] = []
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "else":
            self.advance()
            otherwise = self.parse_block(depth)
        return IfHas(item.text, int(count.text), then, otherwise)

    def parse_wait(self) -> Wait:
        self.expect_keyword("wait")
        self.expect("lparen", "'('")
        ticks = self.expect("int", "tick count")
        self.expect("rparen", "')'")
        n = int(ticks.text)
        if n < 0:
            raise ParseError(ticks.line, ticks.col, "wait ticks must be >= 0")
        return Wait(n)

    def parse_say(self) -> Say:
        self.expect_keyword("say")
        self.expect("lparen", "'('")
        text = self.expect("string", "message string")
        self.expect("rparen", "')'")
        return Say(text.text)

    def parse_call(self) -> Call:
        name = self.expect("ident", "primitive name")
        self.expect("lparen", "'('")
        args: list[Arg] = []
        if self.peek().kind != "rparen":
            args.append(self.parse_arg())
            while self.peek().kind == "comma":
                self.advance()
                args.append(self.parse_arg())
        self.expect("rparen", "')'")
        return Call(name.text, args, name.line, name.col)

    def parse_arg(self) -> Arg:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return tok.text
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        raise self.error(
            f"expected argument, found {tok.kind or 'eof'} {tok.text!r}",
            {"string", "int"},
        )


def parse(tokens: list[Token]) -> ActionProgram:
    """Parse a token list; raises :class:`ParseError` on the first error."""
    return _Parser(tokens).parse_program()


@functools.lru_cache(maxsize=256)
def parse_source(source: str) -> ActionProgram:
    """Parse ActScript text; raises :class:`ParseError` on the first error.

    Results are cached by text, so every call with the same text returns
    the same program object: callers share it and must never mutate it
    (``ExecState`` only reads its program).  Errors are not cached; a bad
    text raises an equal ``ParseError`` on every call."""
    return parse(tokenize(source))


def _quote(s: str) -> str:
    return '"' + s + '"'


def _fmt_arg(a: Arg) -> str:
    return _quote(a) if isinstance(a, str) else str(a)


def _print_stmt(stmt: Statement, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, Call):
        out.append(f"{pad}{stmt.name}({', '.join(_fmt_arg(a) for a in stmt.args)})")
    elif isinstance(stmt, Wait):
        out.append(f"{pad}wait({stmt.ticks})")
    elif isinstance(stmt, Say):
        out.append(f"{pad}say({_quote(stmt.text)})")
    elif isinstance(stmt, Repeat):
        out.append(f"{pad}repeat {stmt.count} {{")
        for s in stmt.body:
            _print_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, Loop):
        out.append(f"{pad}loop {{")
        for s in stmt.body:
            _print_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, IfHas):
        out.append(f"{pad}if has({_quote(stmt.item)}, {stmt.count}) {{")
        for s in stmt.then:
            _print_stmt(s, indent + 1, out)
        if stmt.otherwise:
            out.append(f"{pad}}} else {{")
            for s in stmt.otherwise:
                _print_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement {stmt!r}")


def pretty_print(program: ActionProgram) -> str:
    out: list[str] = []
    for stmt in program.statements:
        _print_stmt(stmt, 0, out)
    return "\n".join(out) + ("\n" if out else "")
