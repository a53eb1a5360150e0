"""Scenario rulebooks: arena layouts, regrowth and yield rules, recipes,
scoring, and sabotage transforms for the two built-in scenarios.

Rule objects attach to a world as ``world.rules`` and receive hooks from the
primitive engine (block removed/placed/regrown, crop advance, growth
scheduling) so scenario behavior stays out of the simulation kernel.  The
primitives call the hooks unguarded, so a world must have its rules set up
before it executes one.  A cell changes kind only through
``WorldState.set_block``, which also resets its growth stage, and is deleted
only through ``WorldState.clear_block``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Optional

from .actionlang.table import (
    DASH_AND_DINE_PRIMITIVES,
    MUSHROOM_WAR_PRIMITIVES,
    PrimitiveTable,
)
from .layout import load_builtin_layout
from .world import DEFAULT_EPISODE_TICKS, Layout, ScheduledEvent, WorldState

MUSHROOM_WAR = "mushroom_war"
DASH_AND_DINE = "dash_and_dine"
SCENARIO_NAMES = (MUSHROOM_WAR, DASH_AND_DINE)

SLIME_ELIGIBILITY_MAX = 7  # mushrooms regrow only at <= this many slime blocks


@dataclass(frozen=True)
class Recipe:
    output: str
    output_count: int
    inputs: dict[str, int]
    needs_table: bool = False
    needs_mob: Optional[str] = None  # crafting requires this mob within reach
    returns: dict[str, int] = field(default_factory=dict)


# Default recipe table for Dash & Dine.  Quantities are artifact defaults;
# the item dependency structure mirrors the scenario's crafting chains.
DEFAULT_RECIPES: dict[str, Recipe] = {
    r.output: r
    for r in [
        Recipe("sugar", 1, {"sugar_cane": 1}),
        Recipe("bread", 1, {"wheat": 3}),
        Recipe("cookie", 4, {"wheat": 2, "cocoa_beans": 1}),
        Recipe("beetroot_soup", 1, {"beetroot": 3, "bowl": 1}, needs_table=True),
        Recipe("pumpkin_pie", 1, {"pumpkin": 1, "sugar": 1, "egg": 1}, needs_table=True),
        Recipe(
            "golden_carrot", 1, {"carrot": 1, "gold_nugget": 8}, needs_table=True
        ),
        Recipe(
            "cake",
            1,
            {"milk_bucket": 1, "sugar": 2, "wheat": 3, "egg": 1},
            needs_table=True,
            returns={"bucket": 1},
        ),
        Recipe("milk_bucket", 1, {"bucket": 1}, needs_mob="cow"),
    ]
}

SMELT_MAP: dict[str, str] = {
    "potato": "baked_potato",
    "beef": "cooked_beef",
    "chicken": "cooked_chicken",
}
SMELT_TICKS = 200  # 10 seconds per item at 20 ticks/s

# Points monotone in recipe complexity.
DEFAULT_FOOD_POINTS: dict[str, int] = {
    "sweet_berries": 1,
    "melon_slice": 1,
    "cookie": 1,
    "carrot": 1,
    "bread": 6,
    "baked_potato": 6,
    "beetroot_soup": 7,
    "cooked_chicken": 7,
    "pumpkin_pie": 10,
    "cooked_beef": 12,
    "cake": 14,
    "golden_carrot": 14,
}

MAX_UNIQUE_FOOD_TYPES = 3

MOB_DROPS: dict[str, dict[str, int]] = {
    "cow": {"beef": 2, "leather": 1},
    "chicken": {"chicken": 1, "feather": 1},
    "pig": {"raw_porkchop": 1},
}


@dataclass(frozen=True)
class CropKind:
    name: str
    max_stage: int
    harvest_yield: dict[str, int]
    seed: str  # item consumed to (re)plant
    replant_consumes_seed: bool  # False: plant regrows in place (bush/stem)
    destroy_drops: dict[str, int]


CROPS: dict[str, CropKind] = {
    c.name: c
    for c in [
        CropKind("wheat", 3, {"wheat": 1, "wheat_seeds": 1}, "wheat_seeds", True,
                 {"wheat": 1, "wheat_seeds": 1}),
        CropKind("carrots", 3, {"carrot": 2}, "carrot", True, {"carrot": 1}),
        CropKind("potatoes", 3, {"potato": 2}, "potato", True, {"potato": 1}),
        CropKind("beetroots", 3, {"beetroot": 1, "beetroot_seeds": 1},
                 "beetroot_seeds", True, {"beetroot": 1, "beetroot_seeds": 1}),
        CropKind("melon", 3, {"melon_slice": 3}, "melon_seeds", False,
                 {"melon_slice": 1, "melon_seeds": 1}),
        CropKind("pumpkin", 3, {"pumpkin": 1}, "pumpkin_seeds", False,
                 {"pumpkin": 1, "pumpkin_seeds": 1}),
        CropKind("sweet_berry_bush", 3, {"sweet_berries": 2}, "sweet_berries", False,
                 {"sweet_berries": 1}),
        CropKind("cocoa", 3, {"cocoa_beans": 2}, "cocoa_beans", False,
                 {"cocoa_beans": 1}),
        CropKind("sugar_cane", 3, {"sugar_cane": 1}, "sugar_cane", False,
                 {"sugar_cane": 1}),
    ]
}


@dataclass
class RegrowConfig:
    slime_delay: tuple[int, int] = (40, 120)
    mushroom_delay: tuple[int, int] = (60, 200)
    crop_advance_p: float = 0.05  # per-tick stage-advance probability
    mob_respawn_delay: tuple[int, int] = (300, 600)


@dataclass
class ScenarioConfig:
    name: str
    layout: Layout
    primitive_table: PrimitiveTable
    duration_ticks: int = DEFAULT_EPISODE_TICKS
    wait_ticks: int = 80
    recipes: dict[str, Recipe] = field(default_factory=dict)
    smelt_map: dict[str, str] = field(default_factory=dict)
    food_points: dict[str, int] = field(default_factory=dict)
    regrow: RegrowConfig = field(default_factory=RegrowConfig)
    report_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.report_scale <= 0:
            raise ValueError("report_scale must be > 0")
        if self.duration_ticks <= 0:
            raise ValueError("duration_ticks must be > 0")


@dataclass
class TeamScore:
    team: str
    points: int = 0
    submitted_types: set[str] = field(default_factory=set)
    timeline: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class ScoreEvent:
    tick: int
    team: str
    points: int
    agent: str
    reason: str


class ScenarioRules:
    """Base rulebook: scoring plumbing and no-op hooks."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.scores: dict[str, TeamScore] = {
            team: TeamScore(team) for team in config.layout.areas
        }
        self.score_log: list[ScoreEvent] = []

    def setup(self, world: WorldState) -> None:
        world.rules = self

    def award(self, world: WorldState, team: str, points: int, agent: str, reason: str) -> int:
        if points <= 0:
            return 0
        score = self.scores[team]
        score.points += points
        score.timeline.append((world.tick, score.points))
        self.score_log.append(ScoreEvent(world.tick, team, points, agent, reason))
        return points

    # hooks, overridden per scenario
    def on_block_removed(self, world: WorldState, pos: tuple[int, int], kind: str, agent) -> None:
        pass

    def on_block_placed(self, world: WorldState, pos: tuple[int, int], kind: str, agent) -> None:
        pass

    def on_block_regrown(self, world: WorldState, pos: tuple[int, int], kind: str) -> None:
        pass

    def on_crop_advance(self, world: WorldState, pos: tuple[int, int], cell) -> None:
        pass

    def ensure_growth(self, world: WorldState, pos: tuple[int, int]) -> None:
        """Schedule the growth of a young crop at ``pos``, if the scenario grows crops."""

    def mine_drops(self, world: WorldState, pos: tuple[int, int], kind: str, agent) -> dict[str, int]:
        """Items yielded by breaking a block of ``kind`` at ``pos``."""
        return {kind: 1}

    def hand_in(self, world: WorldState, server, agent, item: str, count: int) -> int:
        """Points awarded for handing ``count`` of ``item`` to a team server."""
        return 0


# -- Mushroom War ---------------------------------------------------------


def mushroom_yield(rng: Random) -> int:
    """Mushrooms dropped per harvested mushroom block: uniform over {0, 1, 2}."""
    return rng.randint(0, 2)


class MushroomWarRules(ScenarioRules):
    def __init__(self, config: ScenarioConfig) -> None:
        super().__init__(config)
        self.slime_cells: dict[str, set[tuple[int, int]]] = {}
        # each team's original mushroom cells in position order, the order
        # the regrow and cancel loops walk them in
        self.mushroom_cells: dict[str, dict[tuple[int, int], None]] = {}
        self.mushroom_timers: dict[tuple[int, int], ScheduledEvent] = {}

    def setup(self, world: WorldState) -> None:
        super().setup(world)
        self.mushroom_timers = {}
        mushrooms: dict[str, list[tuple[int, int]]] = {}
        for team in world.layout.areas:
            self.slime_cells[team] = set()
            mushrooms[team] = []
        for (x, z), cell in world.cells.items():
            team = world.area_of(x, z)
            if team == "neutral":
                continue
            if cell.kind == "slime_block":
                self.slime_cells[team].add((x, z))
            elif cell.kind == "red_mushroom_block":
                mushrooms[team].append((x, z))
        self.mushroom_cells = {team: dict.fromkeys(sorted(cells)) for team, cells in mushrooms.items()}

    def slime_count(self, world: WorldState, team: str) -> int:
        return len(world.cell_index.get("slime_block", {}).get(team, ()))

    def regrow_eligible(self, world: WorldState, team: str) -> bool:
        return self.slime_count(world, team) <= SLIME_ELIGIBILITY_MAX

    def _schedule_missing_mushrooms(self, world: WorldState, team: str) -> None:
        for pos in self.mushroom_cells[team]:
            cell = world.cells.get(pos)
            if cell is not None and cell.kind == "air" and pos not in self.mushroom_timers:
                ev = world.schedule(
                    "regrow-block", (pos, "red_mushroom_block"), self.config.regrow.mushroom_delay
                )
                self.mushroom_timers[pos] = ev

    def _cancel_mushroom_timers(self, world: WorldState, team: str) -> None:
        for pos in self.mushroom_cells[team]:
            ev = self.mushroom_timers.pop(pos, None)
            if ev is not None:
                world.cancel(ev)

    def on_block_removed(self, world, pos, kind, agent) -> None:
        team = world.area_of(*pos)
        if kind == "slime_block":
            # only original patch cells regrow; sabotage-placed slime is gone for good
            if team != "neutral" and pos in self.slime_cells[team]:
                world.schedule("regrow-block", (pos, "slime_block"), self.config.regrow.slime_delay)
            if team != "neutral" and self.regrow_eligible(world, team):
                self._schedule_missing_mushrooms(world, team)
        elif kind == "red_mushroom_block":
            if team != "neutral" and pos in self.mushroom_cells[team]:
                if self.regrow_eligible(world, team):
                    ev = world.schedule(
                        "regrow-block", (pos, "red_mushroom_block"), self.config.regrow.mushroom_delay
                    )
                    self.mushroom_timers[pos] = ev

    def on_block_placed(self, world, pos, kind, agent) -> None:
        if kind != "slime_block":
            return
        team = world.area_of(*pos)
        if team != "neutral" and not self.regrow_eligible(world, team):
            self._cancel_mushroom_timers(world, team)

    def on_block_regrown(self, world, pos, kind) -> None:
        if kind == "red_mushroom_block":
            self.mushroom_timers.pop(pos, None)
        elif kind == "slime_block":
            team = world.area_of(*pos)
            if team != "neutral" and not self.regrow_eligible(world, team):
                self._cancel_mushroom_timers(world, team)

    def mine_drops(self, world, pos, kind, agent) -> dict[str, int]:
        if kind == "red_mushroom_block":
            n = mushroom_yield(world.rng)
            team = world.area_of(*pos)
            if team == agent.team:
                self.award(world, agent.team, n, agent.name, f"mushrooms at {pos}")
            return {"red_mushroom": n} if n else {}
        return {kind: 1}


# -- Dash & Dine ----------------------------------------------------------


class DashAndDineRules(ScenarioRules):
    def __init__(self, config: ScenarioConfig) -> None:
        super().__init__(config)
        self.crop_timers: dict[tuple[int, int], ScheduledEvent] = {}

    def setup(self, world: WorldState) -> None:
        super().setup(world)
        self.crop_timers = {}
        for pos in sorted(world.cells):
            self.ensure_growth(world, pos)

    def ensure_growth(self, world: WorldState, pos: tuple[int, int]) -> None:
        cell = world.cells.get(pos)
        if cell is None:
            return
        crop = CROPS.get(cell.kind)
        if crop is None or cell.growth_stage >= crop.max_stage:
            return
        if pos in self.crop_timers and not self.crop_timers[pos].cancelled:
            return
        self.crop_timers[pos] = world.schedule(
            "crop-advance", pos, ("geometric", self.config.regrow.crop_advance_p)
        )

    def on_crop_advance(self, world, pos, cell) -> None:
        self.crop_timers.pop(pos, None)
        crop = CROPS.get(cell.kind)
        if crop is None:
            return
        if cell.growth_stage < crop.max_stage:
            cell.growth_stage += 1
        if cell.growth_stage < crop.max_stage:
            self.ensure_growth(world, pos)

    def mine_drops(self, world, pos, kind, agent) -> dict[str, int]:
        crop = CROPS.get(kind)
        if crop is not None:
            cell = world.cells.get(pos)
            mature = cell is not None and cell.growth_stage >= crop.max_stage
            return dict(crop.destroy_drops) if mature else {}
        return {kind: 1}

    def hand_in(self, world, server, agent, item: str, count: int) -> int:
        if agent.team != server.team:
            return 0
        if item not in self.config.food_points:
            return 0
        score = self.scores[server.team]
        if item not in score.submitted_types:
            if len(score.submitted_types) >= MAX_UNIQUE_FOOD_TYPES:
                return 0
            score.submitted_types.add(item)
        points = count * self.config.food_points[item]
        return self.award(world, server.team, points, agent.name, f"hand-in {count} {item}")


def sabotage_transform(
    world: WorldState, source: str, target: str, agent, needs_hoe: bool = False
) -> int:
    """Destroy every ``source`` crop cell and plant ``target`` in its place.

    Drops from the destruction enter the world as ground items at each cell.
    Returns the number of converted cells; raises ValueError when the agent
    lacks a required hoe or there is nothing to convert.
    """
    if needs_hoe and agent.inventory.count("hoe") == 0 and agent.equipment != "hoe":
        raise ValueError(f"converting {source} to {target} requires a hoe")
    src = CROPS.get(source)
    if src is None or target not in CROPS:
        raise ValueError(f"unknown crop in transform {source!r} -> {target!r}")
    converted = 0
    for pos in sorted(p for group in world.cell_index.get(source, {}).values() for p in group):
        cell = world.cells[pos]
        drops = dict(src.destroy_drops) if cell.growth_stage >= src.max_stage else {}
        if drops:
            ground = world.ground_items.setdefault(pos, type(agent.inventory)())
            for item, n in drops.items():
                ground.add(item, n)
        world.set_block(pos, target)
        converted += 1
        world.rules.ensure_growth(world, pos)
    if converted == 0:
        raise ValueError(f"no {source} cells to convert")
    return converted


# -- Config constructors ----------------------------------------------------


def mushroom_war_config(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name=MUSHROOM_WAR,
        layout=load_builtin_layout(MUSHROOM_WAR),
        primitive_table=PrimitiveTable(MUSHROOM_WAR, MUSHROOM_WAR_PRIMITIVES),
        report_scale=1.0,
    )
    return _apply_overrides(cfg, overrides)


def dash_and_dine_config(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name=DASH_AND_DINE,
        layout=load_builtin_layout(DASH_AND_DINE),
        primitive_table=PrimitiveTable(DASH_AND_DINE, DASH_AND_DINE_PRIMITIVES),
        recipes=dict(DEFAULT_RECIPES),
        smelt_map=dict(SMELT_MAP),
        food_points=dict(DEFAULT_FOOD_POINTS),
        report_scale=0.1,
    )
    return _apply_overrides(cfg, overrides)


def _apply_overrides(cfg: ScenarioConfig, overrides: dict) -> ScenarioConfig:
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown scenario config key {key!r}")
        setattr(cfg, key, value)
    cfg.__post_init__()  # re-check value constraints after overrides
    return cfg


def get_scenario(name: str, **overrides) -> ScenarioConfig:
    if name == MUSHROOM_WAR:
        return mushroom_war_config(**overrides)
    if name == DASH_AND_DINE:
        return dash_and_dine_config(**overrides)
    raise ValueError(f"unknown scenario {name!r}")


def make_rules(config: ScenarioConfig) -> ScenarioRules:
    if config.name == MUSHROOM_WAR:
        return MushroomWarRules(config)
    if config.name == DASH_AND_DINE:
        return DashAndDineRules(config)
    return ScenarioRules(config)
