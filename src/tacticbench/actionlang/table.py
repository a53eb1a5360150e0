"""Primitive signature catalog and per-scenario availability tables."""
from __future__ import annotations

from dataclasses import dataclass

from .parse import ActionProgram, Call, IfHas, Loop, Repeat, Statement


@dataclass(frozen=True)
class PrimitiveSpec:
    name: str
    arg_kinds: tuple[str, ...]  # "str" / "int" per position, optionals last
    min_args: int
    description: str = ""

    @property
    def max_args(self) -> int:
        return len(self.arg_kinds)


def _spec(name: str, kinds: str, min_args: int, description: str) -> PrimitiveSpec:
    return PrimitiveSpec(name, tuple(kinds.split()), min_args, description)


# Full catalog of control primitives across both scenarios.
CATALOG: dict[str, PrimitiveSpec] = {
    s.name: s
    for s in [
        _spec("mineBlock", "str int str", 2, "break matching blocks and pick up drops"),
        _spec("craftItem", "str int", 2, "craft items from raw materials"),
        _spec("placeItem", "str int int", 3, "place a block near the given cell"),
        _spec("smeltItem", "str str int", 3, "queue items in the nearest free furnace"),
        _spec("farm", "str str", 2, "plant, harvest, or destroy crops"),
        _spec("killMob", "str int int", 2, "slay the nearest matching mob"),
        _spec("giveToPlayer", "str str int", 3, "walk to a player and hand over items"),
        _spec("useChest", "str int int str int", 3, "get/deposit/check chest contents"),
        _spec("signal", "str str int", 2, "send or wait for a teammate signal"),
        _spec("transformFarm", "str str", 2, "convert a crop farm into another crop"),
    ]
}

MUSHROOM_WAR_PRIMITIVES = frozenset(
    {"mineBlock", "placeItem", "signal", "killMob", "giveToPlayer"}
)
DASH_AND_DINE_PRIMITIVES = frozenset(CATALOG)


@dataclass
class PrimitiveTable:
    scenario: str
    available: frozenset[str]

    def spec(self, name: str) -> PrimitiveSpec | None:
        return CATALOG.get(name)

    def check(self, name: str, args: list) -> str | None:
        """The first reason a call cannot run in this scenario (unknown
        name, unavailable here, arity, argument kind), or None: the one
        message both ``validate`` and ``primitives.execute`` report."""
        spec = CATALOG.get(name)
        if spec is None:
            return f"Unknown primitive {name}"
        if name not in self.available:
            return f"Primitive {name} is not available in {self.scenario}"
        if not (spec.min_args <= len(args) <= spec.max_args):
            return f"{name} takes {spec.min_args}..{spec.max_args} args, got {len(args)}"
        for arg, kind in zip(args, spec.arg_kinds):
            if not isinstance(arg, str if kind == "str" else int):
                return f"{name}: bad argument {arg!r}"
        return None


@dataclass(frozen=True)
class ValidationIssue:
    message: str
    line: int = 0
    col: int = 0


def _walk_calls(statements: list[Statement]):
    for stmt in statements:
        if isinstance(stmt, Call):
            yield stmt
        elif isinstance(stmt, (Repeat, Loop)):
            yield from _walk_calls(stmt.body)
        elif isinstance(stmt, IfHas):
            yield from _walk_calls(stmt.then)
            yield from _walk_calls(stmt.otherwise)


def validate(program: ActionProgram, table: PrimitiveTable) -> list[ValidationIssue]:
    """One issue per call that ``table.check`` rejects, in program order."""
    issues: list[ValidationIssue] = []
    for call in _walk_calls(program.statements):
        message = table.check(call.name, call.args)
        if message is not None:
            issues.append(ValidationIssue(message, call.line, call.col))
    return issues
