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

    def is_available(self, name: str) -> bool:
        return name in self.available


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
    """Static checks: known primitives, scenario availability, arity, arg kinds."""
    issues: list[ValidationIssue] = []
    for call in _walk_calls(program.statements):
        spec = table.spec(call.name)
        if spec is None:
            issues.append(
                ValidationIssue(f"unknown primitive {call.name!r}", call.line, call.col)
            )
            continue
        if not table.is_available(call.name):
            issues.append(
                ValidationIssue(
                    f"primitive {call.name!r} unavailable in scenario {table.scenario!r}",
                    call.line,
                    call.col,
                )
            )
            continue
        if not (spec.min_args <= len(call.args) <= spec.max_args):
            issues.append(
                ValidationIssue(
                    f"{call.name} takes {spec.min_args}..{spec.max_args} args, got {len(call.args)}",
                    call.line,
                    call.col,
                )
            )
            continue
        for i, (arg, kind) in enumerate(zip(call.args, spec.arg_kinds)):
            want = str if kind == "str" else int
            if not isinstance(arg, want):
                issues.append(
                    ValidationIssue(
                        f"{call.name} argument {i + 1} must be {kind}", call.line, call.col
                    )
                )
    return issues
