"""Control-primitive execution engine.

Executes one primitive request against the world for one agent, returning
the outcome, the environment feedback string, and the tick cost.  Every
execution (success or failure) broadcasts at least one chat event
attributed to the executing agent, so teammates and opponents can observe
behavior through the chat log.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .actionlang.interp import PrimitiveRequest
from .scenarios import CROPS, MOB_DROPS, SMELT_TICKS, ScenarioConfig, sabotage_transform
from .world import NEUTRAL, AgentBody, WorldState

SEARCH_RADIUS = 64  # arenas are smaller than this; effectively whole-map search
FAIL_TICKS = 10  # time lost on a failed primitive
# tick costs of the work itself; ``_walk`` adds the travel
MINE_TICKS_PER_BLOCK = 20
CRAFT_TICKS_PER_ITEM = 10
PLACE_TICKS = 10
GIVE_TICKS = 5
CHEST_TICKS = 10  # also the cost of loading a furnace
KILL_TICKS = 40
FARM_TICKS_PER_CELL = 15

# blocks that cannot be mined away
UNMINABLE = {"chest", "furnace", "crafting_table", "air", "farmland"}


@dataclass
class PrimResult:
    ok: bool
    message: str
    duration: int = 1
    value: Any = None
    blocking: bool = False  # waiting on a signal; runner resolves the wake-up

    def __post_init__(self) -> None:
        if self.duration < 1 and not self.blocking:
            self.duration = 1


FARM_CELLS_PER_CALL = 9


def execute(
    world: WorldState,
    config: ScenarioConfig,
    agent: AgentBody,
    request: PrimitiveRequest,
) -> PrimResult:
    """Execute one primitive; broadcasts the outcome as chat."""
    name = request.name
    message = config.primitive_table.check(name, request.args)
    if message is not None:
        return _fail(world, agent, message)
    handler = _HANDLERS[name]
    try:
        return handler(world, config, agent, request.args)
    except ValueError as exc:
        return _fail(world, agent, str(exc))


def _fail(world: WorldState, agent: AgentBody, message: str, duration: int = FAIL_TICKS) -> PrimResult:
    world.broadcast(agent.name, message)
    return PrimResult(ok=False, message=message, duration=duration)


def _ok(
    world: WorldState,
    agent: AgentBody,
    message: str,
    duration: int,
    value: Any = None,
) -> PrimResult:
    world.broadcast(agent.name, message)
    return PrimResult(ok=True, message=message, duration=duration, value=value)


# -- movement helpers -------------------------------------------------------


def _walk(world: WorldState, agent: AgentBody, x: int, z: int) -> int:
    """Move the agent within one cell of (x, z); returns travel ticks, one
    per cell.  Agent and target are on the grid, so the cell it stops on is
    too."""
    ax, az = agent.position.x, agent.position.z
    # max(-1, min(1, ...)) and max(abs(), abs()) spelt out: builtin calls
    # cost more than the walk
    nx = x + 1 if ax > x else x - 1 if ax < x else x
    nz = z + 1 if az > z else z - 1 if az < z else z
    dx = ax - nx if ax >= nx else nx - ax
    dz = az - nz if az >= nz else nz - az
    agent.position = world.layout.positions[nx, nz]
    if world.ground_items:
        _pickup_ground_items(world, agent)
    return dx if dx >= dz else dz


def _pickup_ground_items(world: WorldState, agent: AgentBody) -> None:
    """Pick up every ground stack within reach 1, in ground-item order."""
    ground = world.ground_items
    if not ground:
        return
    ax, az = agent.position.x, agent.position.z
    near = [(x, z) for x in (ax - 1, ax, ax + 1) for z in (az - 1, az, az + 1) if (x, z) in ground]
    if len(near) > 1:
        # the order stacks enter the inventory in is the ground-item order
        near = [p for p in ground if max(abs(p[0] - ax), abs(p[1] - az)) <= 1]
    for pos in near:
        for item, n in list(ground[pos].items()):
            agent.inventory.add(item, n)
        del ground[pos]


def _nearest_cell(
    world: WorldState,
    agent: AgentBody,
    kind: str,
    area: str = "any",
    min_stage: int = 0,
) -> Optional[tuple[int, int]]:
    """The ``kind`` cell at growth stage ``min_stage`` or later nearest the
    agent (Chebyshev, within ``SEARCH_RADIUS``), ties broken by the smaller
    ``(x, z)``; None if none.  Reads only the index groups ``area`` allows;
    the ``(distance, key)`` minimum does not depend on their order."""
    owners = world.cell_index.get(kind)
    if owners is None:
        return None
    if area == "own":
        groups = [owners.get(agent.team, ())]
    elif area == "opponent":
        groups = [g for owner, g in owners.items() if owner != agent.team and owner != NEUTRAL]
    else:
        groups = owners.values()
    cells = world.cells
    ax, az = agent.position.x, agent.position.z
    best_d, best = SEARCH_RADIUS, None
    for group in groups:
        for key in group:
            if min_stage and cells[key].growth_stage < min_stage:
                continue
            x, z = key
            # max(abs(), abs()) spelt out: builtin calls cost more than the search
            dx = x - ax if x >= ax else ax - x
            dz = z - az if z >= az else az - z
            d = dx if dx >= dz else dz
            if d < best_d or (d == best_d and (best is None or key < best)):
                best_d, best = d, key
    return best


# -- primitive handlers ------------------------------------------------------


def _prim_mine_block(world, config, agent, args) -> PrimResult:
    kind = args[0]
    max_count = args[1]
    area = args[2] if len(args) > 2 else "any"
    if max_count < 1:
        raise ValueError(f"mineBlock count must be >= 1, got {max_count}")
    if area not in ("any", "own", "opponent"):
        raise ValueError(f"mineBlock area must be any/own/opponent, got {area!r}")
    if kind in UNMINABLE:
        raise ValueError(f"{kind} cannot be mined")
    mined = 0
    total_ticks = 0
    collected: dict[str, int] = {}
    while mined < max_count:
        pos = _nearest_cell(world, agent, kind, area)
        if pos is None:
            break
        total_ticks += _walk(world, agent, *pos)
        drops = world.rules.mine_drops(world, pos, kind, agent)
        for item, n in drops.items():
            agent.inventory.add(item, n)
            collected[item] = collected.get(item, 0) + n
        world.set_block(pos, "farmland" if kind in CROPS else "air")
        world.rules.on_block_removed(world, pos, kind, agent)
        mined += 1
        total_ticks += MINE_TICKS_PER_BLOCK
    if mined == 0:
        return _fail(world, agent, f"No {kind} nearby")
    got = ", ".join(f"{n} {item}" for item, n in sorted(collected.items())) or "nothing"
    return _ok(world, agent, f"Mined {mined} {kind}, got {got}", total_ticks, value=mined)


def _prim_craft_item(world, config, agent, args) -> PrimResult:
    item, count = args[0], args[1]
    if count < 1:
        raise ValueError(f"craftItem count must be >= 1, got {count}")
    recipe = config.recipes.get(item)
    if recipe is None:
        raise ValueError(f"I cannot make {item} because I do not know how")
    travel = 0
    if recipe.needs_table:
        table = _nearest_cell(world, agent, "crafting_table")
        if table is None:
            raise ValueError(f"I cannot make {item} because there is no crafting table nearby")
        travel += _walk(world, agent, *table)
    if recipe.needs_mob:
        mob = _nearest_mob(world, agent, recipe.needs_mob)
        if mob is None:
            raise ValueError(f"I cannot make {item} because there is no {recipe.needs_mob} nearby")
        travel += _walk(world, agent, mob.position.x, mob.position.z)
    can_make = min(
        count, min(agent.inventory.count(ing) // n for ing, n in recipe.inputs.items())
    )
    if can_make == 0:
        missing = []
        for ing, n in sorted(recipe.inputs.items()):
            short = n - agent.inventory.count(ing)
            if short > 0:
                missing.append(f"{short} more {ing}")
        raise ValueError(f"I cannot make {item} because I need: {', '.join(missing)}")
    for ing, n in recipe.inputs.items():
        agent.inventory.remove(ing, n * can_make)
    made = recipe.output_count * can_make
    agent.inventory.add(item, made)
    for ret, n in recipe.returns.items():
        agent.inventory.add(ret, n * can_make)
    ticks = travel + CRAFT_TICKS_PER_ITEM * can_make
    return _ok(world, agent, f"Crafted {made} {item}", ticks, value=made)


def _prim_place_item(world, config, agent, args) -> PrimResult:
    item, x, z = args[0], args[1], args[2]
    if agent.inventory.count(item) == 0:
        raise ValueError(f"I have no {item} to place")
    target = _free_cell_near(world, x, z)
    if target is None:
        raise ValueError(f"No free cell near ({x}, {z}) to place {item}")
    travel = _walk(world, agent, *target)
    agent.inventory.remove(item, 1)
    world.set_block(target, item)
    world.rules.on_block_placed(world, target, item, agent)
    return _ok(
        world, agent, f"Placed {item} at ({target[0]}, {target[1]})",
        travel + PLACE_TICKS, value=target,
    )


def _prim_smelt_item(world, config, agent, args) -> PrimResult:
    item, _fuel, count = args[0], args[1], args[2]
    if count <= 0:
        return _ok(world, agent, f"Nothing to smelt ({count} {item})", 1, value=0)
    out_item = config.smelt_map.get(item)
    if out_item is None:
        raise ValueError(f"{item} cannot be smelted")
    held = agent.inventory.count(item)
    if held == 0:
        raise ValueError(f"I have no {item} to smelt")
    free = [f for f in world.furnaces if f.busy_until <= world.tick]
    if not world.furnaces:
        raise ValueError("There is no furnace nearby")
    if not free:
        raise ValueError("All furnaces are busy")
    free.sort(key=lambda f: agent.position.chebyshev(f.position))
    furnace = free[0]
    travel = _walk(world, agent, furnace.position.x, furnace.position.z)
    k = min(count, held)
    agent.inventory.remove(item, k)
    for i in range(1, k + 1):
        ev = world.schedule("smelt-complete", (agent.name, out_item), travel + SMELT_TICKS * i)
        furnace.busy_until = ev.fire_tick
    furnace.queued += k
    return _ok(
        world, agent, f"Queued {k} {item} for smelting into {out_item}",
        travel + CHEST_TICKS, value=k,
    )


def _prim_farm(world, config, agent, args) -> PrimResult:
    mode, crop_name = args[0], args[1]
    crop = CROPS.get(crop_name)
    if crop is None:
        raise ValueError(f"Unknown crop {crop_name}")
    if mode == "harvest":
        return _farm_harvest(world, agent, crop)
    if mode == "destroy":
        return _farm_destroy(world, agent, crop)
    if mode == "plant":
        return _farm_plant(world, agent, crop)
    raise ValueError(f"farm mode must be plant/harvest/destroy, got {mode!r}")


def _farm_harvest(world, agent, crop) -> PrimResult:
    done = 0
    ticks = 0
    collected: dict[str, int] = {}
    while done < FARM_CELLS_PER_CALL:
        pos = _nearest_cell(world, agent, crop.name, min_stage=crop.max_stage)
        if pos is None:
            break
        ticks += _walk(world, agent, *pos)
        for item, n in crop.harvest_yield.items():
            agent.inventory.add(item, n)
            collected[item] = collected.get(item, 0) + n
        if crop.replant_consumes_seed and agent.inventory.remove(crop.seed, 1) == 0:
            world.set_block(pos, "farmland")
        else:
            world.set_block(pos, crop.name)
        world.rules.ensure_growth(world, pos)
        done += 1
        ticks += FARM_TICKS_PER_CELL
    if done == 0:
        raise ValueError(f"No mature {crop.name} to harvest")
    got = ", ".join(f"{n} {item}" for item, n in sorted(collected.items()))
    return _ok(world, agent, f"Harvested {done} {crop.name}, got {got}", ticks, value=done)


def _farm_destroy(world, agent, crop) -> PrimResult:
    done = 0
    ticks = 0
    while done < FARM_CELLS_PER_CALL:
        pos = _nearest_cell(world, agent, crop.name)
        if pos is None:
            break
        ticks += _walk(world, agent, *pos)
        if world.cells[pos].growth_stage >= crop.max_stage:
            drops = dict(crop.destroy_drops)
        elif crop.replant_consumes_seed:
            drops = {crop.seed: 1}
        else:
            drops = {}
        for item, n in drops.items():
            agent.inventory.add(item, n)
        world.set_block(pos, "farmland")
        done += 1
        ticks += FARM_TICKS_PER_CELL
    if done == 0:
        raise ValueError(f"No {crop.name} to destroy")
    return _ok(world, agent, f"Destroyed {done} {crop.name}", ticks, value=done)


def _farm_plant(world, agent, crop) -> PrimResult:
    if agent.inventory.count(crop.seed) == 0:
        raise ValueError(f"I cannot plant {crop.name} because I have no {crop.seed}")
    done = 0
    ticks = 0
    while done < FARM_CELLS_PER_CALL and agent.inventory.count(crop.seed) > 0:
        pos = _nearest_cell(world, agent, "farmland")
        if pos is None:
            break
        ticks += _walk(world, agent, *pos)
        agent.inventory.remove(crop.seed, 1)
        world.set_block(pos, crop.name)
        world.rules.ensure_growth(world, pos)
        done += 1
        ticks += FARM_TICKS_PER_CELL
    if done == 0:
        raise ValueError(f"No tilled soil to plant {crop.name}")
    return _ok(world, agent, f"Planted {done} {crop.name}", ticks, value=done)


def _prim_kill_mob(world, config, agent, args) -> PrimResult:
    kind = args[0]
    timeout = args[1] if len(args) > 1 else 300
    mob = _nearest_mob(world, agent, kind)
    if mob is None:
        return _fail(world, agent, f"No {kind} found within timeout", duration=max(1, timeout))
    travel = _walk(world, agent, mob.position.x, mob.position.z)
    mob.alive = False
    drops = MOB_DROPS.get(kind, {})
    for item, n in drops.items():
        agent.inventory.add(item, n)
    world.schedule("mob-respawn", mob, config.regrow.mob_respawn_delay)
    got = ", ".join(f"{n} {item}" for item, n in sorted(drops.items())) or "nothing"
    return _ok(world, agent, f"Killed {kind}, got {got}", travel + KILL_TICKS, value=drops)


def _prim_give_to_player(world, config, agent, args) -> PrimResult:
    item, player, count = args[0], args[1], args[2]
    try:
        recipient = world.agent(player)
    except Exception:
        raise ValueError(f"Unknown player {player}")
    if count == 0:
        return _ok(world, agent, f"Gave 0 {item} to {player}", 1, value=0)
    held = agent.inventory.count(item)
    if held == 0:
        raise ValueError(f"I have no {item} to give")
    k = held if count < 0 else min(count, held)
    travel = _walk(world, agent, recipient.position.x, recipient.position.z)
    agent.inventory.remove(item, k)
    recipient.inventory.add(item, k)
    points = 0
    if recipient.stationary:
        points = world.rules.hand_in(world, recipient, agent, item, k)
    msg = f"Gave {k} {item} to {player}"
    if points:
        msg += f" (+{points} points)"
    return _ok(world, agent, msg, travel + GIVE_TICKS, value=k)


def _prim_use_chest(world, config, agent, args) -> PrimResult:
    mode, x, z = args[0], args[1], args[2]
    item = args[3] if len(args) > 3 else None
    count = args[4] if len(args) > 4 else 0
    pos = (x, z)
    cell = world.cells.get(pos)
    if cell is None or cell.kind != "chest" or pos not in world.containers:
        raise ValueError(f"There is no chest at ({x}, {z})")
    chest = world.containers[pos]
    travel = _walk(world, agent, x, z)
    ticks = travel + CHEST_TICKS
    if mode == "check":
        return _ok(world, agent, f"Checked chest at ({x}, {z})", ticks, value=chest.as_dict())
    if item is None:
        raise ValueError(f"useChest {mode} requires an item and count")
    if mode == "get":
        k = min(count, chest.count(item))
        chest.remove(item, k)
        agent.inventory.add(item, k)
        return _ok(world, agent, f"Took {k} {item} from chest at ({x}, {z})", ticks, value={item: k})
    if mode == "deposit":
        held = agent.inventory.count(item)
        if held == 0:
            raise ValueError(f"I have no {item} to deposit")
        k = min(count, held)
        agent.inventory.remove(item, k)
        chest.add(item, k)
        return _ok(world, agent, f"Deposited {k} {item} into chest at ({x}, {z})", ticks, value={item: k})
    raise ValueError(f"useChest mode must be get/deposit/check, got {mode!r}")


def _prim_signal(world, config, agent, args) -> PrimResult:
    mode = args[0]
    peer = args[1] if len(args) > 1 else "any"
    timeout = args[2] if len(args) > 2 else 30000
    if mode == "send":
        try:
            target = world.agent(peer)
        except Exception:
            raise ValueError(f"Unknown player {peer}")
        if target.team != agent.team or target.stationary:
            raise ValueError(f"Cannot signal {peer}: not a teammate")
        if target.waiting_for in ("any", agent.name):
            # wake a blocked waiter the same tick
            target.waiting_for = None
            target.wait_deadline = None
            target.busy_until = world.tick
            world.broadcast(target.name, f"Signal received from {agent.name}")
        else:
            target.pending_signals.append(agent.name)
        return _ok(world, agent, f"Signal sent to {peer}", 1)
    if mode == "wait":
        match = None
        for i, sender in enumerate(agent.pending_signals):
            if peer == "any" or sender == peer:
                match = i
                break
        if match is not None:
            sender = agent.pending_signals.pop(match)
            return _ok(world, agent, f"Signal received from {sender}", 1, value="ok")
        agent.waiting_for = peer
        agent.wait_deadline = min(world.tick + max(1, timeout), world.duration)
        world.broadcast(agent.name, f"Waiting for signal from {peer}")
        return PrimResult(ok=True, message="waiting", duration=1, blocking=True)
    raise ValueError(f"signal mode must be send/wait, got {mode!r}")


def _prim_transform_farm(world, config, agent, args) -> PrimResult:
    source, target = args[0], args[1]
    nearest = _nearest_cell(world, agent, source)
    if nearest is None:
        raise ValueError(f"No {source} cells to convert")
    travel = _walk(world, agent, *nearest)
    converted = sabotage_transform(world, source, target, agent)
    return _ok(
        world, agent, f"Converted {converted} {source} into {target}",
        travel + FARM_TICKS_PER_CELL * converted, value=converted,
    )


def _nearest_mob(world: WorldState, agent: AgentBody, kind: str):
    best = None
    best_d = None
    for mob in world.mobs:
        if not mob.alive or mob.kind != kind:
            continue
        d = agent.position.chebyshev(mob.position)
        if best_d is None or d < best_d:
            best, best_d = mob, d
    return best


def _free_cell_near(world: WorldState, x: int, z: int) -> Optional[tuple[int, int]]:
    for radius in range(0, 3):
        for dz in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                if max(abs(dx), abs(dz)) != radius:
                    continue
                cx, cz = x + dx, z + dz
                if not world.in_bounds(cx, cz):
                    continue
                cell = world.cells.get((cx, cz))
                if cell is None or cell.kind == "air":
                    # drops the cell even when an agent stands here, so a
                    # regrow timer can no longer find it; sparing it moves
                    # the golden episode digests
                    world.clear_block((cx, cz))
                    if any(a.position.x == cx and a.position.z == cz for a in world.agents):
                        continue
                    return (cx, cz)
    return None


_HANDLERS = {
    "mineBlock": _prim_mine_block,
    "craftItem": _prim_craft_item,
    "placeItem": _prim_place_item,
    "smeltItem": _prim_smelt_item,
    "farm": _prim_farm,
    "killMob": _prim_kill_mob,
    "giveToPlayer": _prim_give_to_player,
    "useChest": _prim_use_chest,
    "signal": _prim_signal,
    "transformFarm": _prim_transform_farm,
}
