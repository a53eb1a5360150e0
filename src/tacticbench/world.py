"""Deterministic tick-based simulation kernel.

The world is a flat bounded grid of block cells plus agent bodies, mobs,
containers, and a queue of scheduled delayed effects.  All randomness is
drawn from a single seeded generator in simulation order, so a fixed seed
and a fixed action sequence replay bit-identically.

A cell changes only through ``WorldState.set_block`` and
``WorldState.clear_block`` (its growth stage aside), because those two keep
the world's index of cells by kind and owning area in step with ``cells``.

Time is measured in ticks, 20 ticks per simulated second.  A standard
episode lasts 2400 ticks (2 minutes).
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from random import Random
from typing import Any, Optional

TICKS_PER_SECOND = 20
DEFAULT_EPISODE_TICKS = 2400
OBSERVE_RADIUS = 8

NEUTRAL = "neutral"


class WorldError(Exception):
    """Base error for world-level failures."""


class LayoutError(WorldError):
    """Raised when a scenario layout is malformed."""


class ReferenceError_(WorldError):
    """Raised when an operation targets a nonexistent cell/agent/container."""


@dataclass(frozen=True, order=True)
class Position:
    x: int
    y: int = 0
    z: int = 0

    def chebyshev(self, other: "Position") -> int:
        return max(abs(self.x - other.x), abs(self.y - other.y), abs(self.z - other.z))


@dataclass
class BlockCell:
    kind: str
    growth_stage: int = 0


class Inventory:
    """Item stacks keyed by item id.  Zero-count keys are removed."""

    def __init__(self, stacks: Optional[dict[str, int]] = None) -> None:
        self.stacks: dict[str, int] = {}
        if stacks:
            for item, n in stacks.items():
                self.add(item, n)

    def count(self, item: str) -> int:
        return self.stacks.get(item, 0)

    def add(self, item: str, n: int) -> None:
        if n < 0:
            raise ValueError(f"cannot add negative count {n} of {item}")
        if n == 0:
            return
        self.stacks[item] = self.stacks.get(item, 0) + n

    def remove(self, item: str, n: int) -> int:
        """Remove up to ``n`` of ``item``; returns the amount actually removed."""
        if n < 0:
            raise ValueError(f"cannot remove negative count {n} of {item}")
        have = self.stacks.get(item, 0)
        taken = min(have, n)
        if taken:
            left = have - taken
            if left:
                self.stacks[item] = left
            else:
                del self.stacks[item]
        return taken

    def items(self):
        return self.stacks.items()

    def copy(self) -> "Inventory":
        inv = Inventory()
        inv.stacks = dict(self.stacks)
        return inv

    def as_dict(self) -> dict[str, int]:
        return dict(self.stacks)

    def __contains__(self, item: str) -> bool:
        return item in self.stacks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Inventory) and self.stacks == other.stacks

    def __repr__(self) -> str:
        return f"Inventory({self.stacks!r})"


@dataclass
class AgentBody:
    name: str
    team: str
    position: Position
    health: int = 20
    hunger: int = 20
    inventory: Inventory = field(default_factory=Inventory)
    equipment: Optional[str] = None
    busy_until: Optional[int] = None
    # stationary special agents (team servers) never move or act
    stationary: bool = False
    # signal plumbing for the multi-agent primitive
    pending_signals: list[str] = field(default_factory=list)
    waiting_for: Optional[str] = None  # sender name or "any"
    wait_deadline: Optional[int] = None


@dataclass
class Mob:
    kind: str
    position: Position
    alive: bool = True


@dataclass(slots=True)
class ScheduledEvent:
    fire_tick: int
    effect: str  # regrow-block | crop-advance | smelt-complete | mob-respawn
    target: Any
    seq: int = 0
    cancelled: bool = False


@dataclass
class Event:
    """One chat line: the tick it was broadcast at, who sent it, the text."""

    tick: int
    sender: str  # agent name or "environment"
    payload: str

    @functools.cached_property
    def line(self) -> str:
        """``[tick] sender: payload``, as history prompts show it; rendered
        at most once, since nothing changes an event once broadcast."""
        return f"[{self.tick}] {self.sender}: {self.payload}"


@dataclass
class Observation:
    nearby_blocks: list[tuple[str, Position]]
    nearby_mobs: list[tuple[str, float]]
    inventory: Inventory
    self_status: dict[str, Any]


@dataclass
class Furnace:
    position: Position
    # tick at which the last queued item finishes; new items start after it
    busy_until: int = 0
    queued: int = 0


def area_of(areas: dict[str, tuple[int, int, int, int]], x: int, z: int) -> str:
    """The team whose (inclusive) area rectangle holds (x, z), else neutral."""
    for team, (x0, z0, x1, z1) in areas.items():
        if x0 <= x <= x1 and z0 <= z <= z1:
            return team
    return NEUTRAL


@dataclass
class Layout:
    """Validated scenario layout: grid extent, team areas, initial contents."""

    name: str
    width: int
    depth: int
    areas: dict[str, tuple[int, int, int, int]]  # team -> (x0, z0, x1, z1) inclusive
    cells: dict[tuple[int, int], BlockCell]
    agent_starts: list[tuple[str, str, Position]]  # (name, team, start)
    servers: list[tuple[str, str, Position]]  # (name, team, position)
    mobs: list[tuple[str, Position]]
    containers: dict[tuple[int, int], dict[str, int]]
    furnaces: list[Position]

    @functools.cached_property
    def owners(self) -> dict[tuple[int, int], str]:
        """``area_of`` of every in-bounds (x, z), computed on first use; the
        extent and ``areas`` must not change after it."""
        return {
            (x, z): area_of(self.areas, x, z)
            for x in range(self.width)
            for z in range(self.depth)
        }

    @functools.cached_property
    def positions(self) -> dict[tuple[int, int], Position]:
        """The one ``Position(x, 0, z)`` of every in-bounds (x, z), built on
        first use and shared by every world on this layout (``Position`` is
        frozen)."""
        return {
            (x, z): Position(x, 0, z)
            for x in range(self.width)
            for z in range(self.depth)
        }


class WorldState:
    """The complete tick-indexed simulation state."""

    def __init__(self, layout: Layout, seed: int) -> None:
        validate_layout(layout)
        self.layout = layout
        self.tick: int = 0
        self.duration: int = DEFAULT_EPISODE_TICKS
        self.rng = Random(seed)
        self._owners = layout.owners
        self.cells: dict[tuple[int, int], BlockCell] = {}
        # kind -> owning area -> positions, no group empty; kept by set_block
        # and clear_block
        self.cell_index: dict[str, dict[str, set[tuple[int, int]]]] = {}
        for pos, c in layout.cells.items():
            self.set_block(pos, c.kind)
            self.cells[pos].growth_stage = c.growth_stage
        self.agents: list[AgentBody] = [
            AgentBody(name=n, team=t, position=p) for n, t, p in layout.agent_starts
        ]
        for n, t, p in layout.servers:
            self.agents.append(AgentBody(name=n, team=t, position=p, stationary=True))
        self.mobs: list[Mob] = [Mob(kind=k, position=p) for k, p in layout.mobs]
        self.containers: dict[tuple[int, int], Inventory] = {
            pos: Inventory(dict(stacks)) for pos, stacks in layout.containers.items()
        }
        self.furnaces: list[Furnace] = [Furnace(position=p) for p in layout.furnaces]
        self.ground_items: dict[tuple[int, int], Inventory] = {}
        self.chat_log: list[Event] = []
        self._timer_heap: list[tuple[int, int, ScheduledEvent]] = []
        self._timer_seq = 0
        # p -> math.log(1.0 - p), the divisor of a ("geometric", p) delay draw
        self._log_miss: dict[float, float] = {}
        # scenario rulebook hooks, attached by the scenarios module
        self.rules: Any = None

    # -- agents ---------------------------------------------------------

    def agent(self, name: str) -> AgentBody:
        for a in self.agents:
            if a.name == name:
                return a
        raise ReferenceError_(f"unknown agent {name!r}")

    def team_agents(self, team: str) -> list[AgentBody]:
        return [a for a in self.agents if a.team == team and not a.stationary]

    # -- cells ----------------------------------------------------------

    def in_bounds(self, x: int, z: int) -> bool:
        return 0 <= x < self.layout.width and 0 <= z < self.layout.depth

    def area_of(self, x: int, z: int) -> str:
        # validate_layout keeps every area in bounds, so outside is neutral
        return self._owners.get((x, z), NEUTRAL)

    def set_block(self, pos: tuple[int, int], kind: str) -> None:
        """Make the cell at ``pos`` a ``kind`` block at growth stage 0.  The
        one way a cell is created or changes kind; replacing a cell keeps its
        place in the cell order.  Raises ``WorldError`` for a ``pos`` off
        the grid, so every cell has an owner and a ``Layout.positions``
        entry."""
        try:
            owner = self._owners[pos]
        except KeyError:
            raise WorldError(f"cell {pos} is off the grid") from None
        old = self.cells.get(pos)
        if old is not None:
            self._unindex(pos, old.kind, owner)
        self.cells[pos] = BlockCell(kind)
        # setdefault spelt out: it would build an empty dict and set per call
        owners = self.cell_index.get(kind)
        if owners is None:
            self.cell_index[kind] = {owner: {pos}}
        else:
            group = owners.get(owner)
            if group is None:
                owners[owner] = {pos}
            else:
                group.add(pos)

    def clear_block(self, pos: tuple[int, int]) -> None:
        """Delete the cell at ``pos``, if there is one."""
        old = self.cells.pop(pos, None)
        if old is not None:
            self._unindex(pos, old.kind, self._owners[pos])

    def _unindex(self, pos: tuple[int, int], kind: str, owner: str) -> None:
        owners = self.cell_index[kind]
        group = owners[owner]
        group.remove(pos)
        if not group:
            del owners[owner]
            if not owners:
                del self.cell_index[kind]

    # -- chat -----------------------------------------------------------

    def broadcast(self, sender: str, text: str) -> Event:
        ev = Event(self.tick, sender, text)
        self.chat_log.append(ev)
        return ev

    # -- timers ---------------------------------------------------------

    def schedule(self, effect: str, target: Any, delay: Any) -> ScheduledEvent:
        """Enqueue a delayed effect.

        ``delay`` is an int, a ``(lo, hi)`` inclusive uniform-integer range,
        or ``("geometric", p)`` for a per-tick success probability.  Samples
        are drawn from the world rng, so the fire tick is seed-deterministic.
        """
        if isinstance(delay, int):
            ticks = delay
        elif delay[0] == "geometric":
            p = delay[1]
            u = self.rng.random()
            log_miss = self._log_miss.get(p)
            if log_miss is None:
                log_miss = self._log_miss[p] = math.log(1.0 - p)
            ticks = 1 + int(math.log(max(1.0 - u, 1e-12)) / log_miss)
        else:
            lo, hi = delay
            ticks = self.rng.randint(lo, hi)
        if ticks < 1:
            ticks = 1
        seq = self._timer_seq
        self._timer_seq = seq + 1
        ev = ScheduledEvent(self.tick + ticks, effect, target, seq)
        heappush(self._timer_heap, (ev.fire_tick, seq, ev))
        return ev

    def cancel(self, ev: ScheduledEvent) -> None:
        ev.cancelled = True

    def pending_timers(self) -> list[ScheduledEvent]:
        return [ev for _, _, ev in self._timer_heap if not ev.cancelled]

    def advance_to(self, until: int) -> None:
        """Move the clock to ``until``, entering through ``step_tick`` each
        tick before it at which a queued timer (possibly a cancelled one)
        fires, then ``until`` itself.  The ticks in between are skipped: no
        timer fires on them, so they would draw nothing from the rng and
        change nothing.  Raises ``WorldError`` unless ``until`` is after the
        current tick."""
        if until <= self.tick:
            raise WorldError(f"cannot advance from tick {self.tick} to {until}")
        heap = self._timer_heap
        while heap and heap[0][0] < until:
            # every queued timer fires after the current tick
            self.tick = heap[0][0] - 1
            self.step_tick()
        self.tick = until - 1
        self.step_tick()

    def step_tick(self) -> None:
        """Advance one tick and apply every timer due at the new tick."""
        tick = self.tick = self.tick + 1
        heap = self._timer_heap
        while heap and heap[0][0] <= tick:
            ev = heappop(heap)[2]
            if not ev.cancelled:
                self._apply_effect(ev)

    def _apply_effect(self, ev: ScheduledEvent) -> None:
        # crop-advance first: in Dash & Dine it is most of the effects
        effect = ev.effect
        if effect == "crop-advance":
            pos = ev.target
            cell = self.cells.get(pos)
            if cell is not None and self.rules is not None:
                self.rules.on_crop_advance(self, pos, cell)
        elif effect == "regrow-block":
            pos, kind = ev.target
            cell = self.cells.get(pos)
            if cell is not None and cell.kind == "air":
                self.set_block(pos, kind)
                if self.rules is not None:
                    self.rules.on_block_regrown(self, pos, kind)
        elif effect == "smelt-complete":
            agent_name, out_item = ev.target
            self.agent(agent_name).inventory.add(out_item, 1)
            self.broadcast("environment", f"Smelting finished: 1 {out_item} for {agent_name}")
        elif effect == "mob-respawn":
            mob = ev.target
            mob.alive = True
        else:
            raise WorldError(f"unknown scheduled effect {ev.effect!r}")

    # -- observation ----------------------------------------------------

    def nearby_cell_keys(self, x: int, z: int, radius: int) -> list[tuple[int, int]]:
        """Keys of the non-air cells within Chebyshev distance ``radius`` of
        (x, z), sorted by ``(x, z)``."""
        x0, x1, z0, z1 = x - radius, x + radius, z - radius, z + radius
        near = [
            key
            for key, cell in self.cells.items()
            if x0 <= key[0] <= x1 and z0 <= key[1] <= z1 and cell.kind != "air"
        ]
        near.sort()  # keys are unique, so sorting them alone gives the (x, z) order
        return near

    def nearby_mobs(self, x: int, z: int, radius: int) -> list[tuple[str, float]]:
        """``(kind, distance)`` of every live mob within Euclidean ``radius``
        of (x, z), in mob order; distances are not rounded."""
        out = []
        for mob in self.mobs:
            if mob.alive:
                d = math.dist((mob.position.x, mob.position.z), (x, z))
                if d <= radius:
                    out.append((mob.kind, d))
        return out

    def observe(self, agent_name: str, radius: int = OBSERVE_RADIUS) -> Observation:
        """What the agent sees: every non-air cell within Chebyshev distance
        ``radius`` of it as ``(kind, Position(x, 0, z))``, sorted by
        ``(x, z)``; every live mob within Euclidean ``radius`` with its
        distance; its inventory and status."""
        agent = self.agent(agent_name)
        ax, az = agent.position.x, agent.position.z
        cells = self.cells
        positions = self.layout.positions
        blocks = [
            (cells[key].kind, positions[key]) for key in self.nearby_cell_keys(ax, az, radius)
        ]
        mobs = [(kind, round(d, 3)) for kind, d in self.nearby_mobs(ax, az, radius)]
        velocity = (0, 0, 0)
        status = {
            "health": agent.health,
            "hunger": agent.hunger,
            "position": agent.position,
            "velocity": velocity,
            "direction": (1, 0, 0),
            "equipment": agent.equipment,
            "biome": "plains",
            "time": self.tick,
            "inventory_slots_used": len(agent.inventory.stacks),
            "elapsed_seconds": self.tick / TICKS_PER_SECOND,
        }
        return Observation(
            nearby_blocks=blocks,
            nearby_mobs=mobs,
            inventory=agent.inventory.copy(),
            self_status=status,
        )

    # -- hashing --------------------------------------------------------

    def state_hash(self) -> str:
        """Stable digest of all mutable state, for purity/determinism checks."""
        h = hashlib.sha256()
        h.update(str(self.tick).encode())
        for pos in sorted(self.cells):
            c = self.cells[pos]
            h.update(f"{pos}:{c.kind}:{c.growth_stage}:{self.area_of(*pos)}".encode())
        for a in self.agents:
            h.update(
                f"{a.name}:{a.position}:{a.health}:{a.hunger}:{sorted(a.inventory.items())}:{a.equipment}:{a.busy_until}".encode()
            )
        for m in self.mobs:
            h.update(f"{m.kind}:{m.position}:{m.alive}".encode())
        for pos in sorted(self.containers):
            h.update(f"{pos}:{sorted(self.containers[pos].items())}".encode())
        for f in self.furnaces:
            h.update(f"{f.position}:{f.busy_until}:{f.queued}".encode())
        for pos in sorted(self.ground_items):
            h.update(f"{pos}:{sorted(self.ground_items[pos].items())}".encode())
        h.update(str(self.rng.getstate()).encode())
        h.update(str(len(self.chat_log)).encode())
        for _, _, ev in sorted(self._timer_heap, key=lambda t: (t[0], t[1])):
            if not ev.cancelled:
                h.update(f"{ev.fire_tick}:{ev.effect}".encode())
        return h.hexdigest()


def validate_layout(layout: Layout) -> None:
    if layout.width <= 0 or layout.depth <= 0:
        raise LayoutError(f"non-positive grid extent {layout.width}x{layout.depth}")
    if len(layout.areas) < 2:
        raise LayoutError("layout must define both team areas")
    for team, (x0, z0, x1, z1) in layout.areas.items():
        if not (0 <= x0 <= x1 < layout.width and 0 <= z0 <= z1 < layout.depth):
            raise LayoutError(f"area for {team!r} out of bounds: {(x0, z0, x1, z1)}")
    # a cell has one owner only if no two areas share a cell
    rects = list(layout.areas.items())
    for i, (team, (x0, z0, x1, z1)) in enumerate(rects):
        for other, (u0, w0, u1, w1) in rects[i + 1:]:
            if x0 <= u1 and u0 <= x1 and z0 <= w1 and w0 <= z1:
                raise LayoutError(f"areas for {team!r} and {other!r} overlap")
    for (x, z) in layout.cells:
        if not (0 <= x < layout.width and 0 <= z < layout.depth):
            raise LayoutError(f"cell out of bounds at ({x}, {z})")
    for name, _team, pos in layout.agent_starts + layout.servers:
        if not (0 <= pos.x < layout.width and 0 <= pos.z < layout.depth):
            raise LayoutError(f"agent {name!r} starts out of bounds at {pos}")
    for kind, pos in layout.mobs:
        if not (0 <= pos.x < layout.width and 0 <= pos.z < layout.depth):
            raise LayoutError(f"mob {kind!r} out of bounds at {pos}")
    seen: set[str] = set()
    for name, _, _ in layout.agent_starts + layout.servers:
        if name in seen:
            raise LayoutError(f"duplicate agent name {name!r}")
        seen.add(name)


def new_world(layout: Layout, seed: int) -> WorldState:
    return WorldState(layout, seed)
