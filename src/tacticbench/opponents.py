"""Built-in scripted opponents and the random-policy baseline.

Opponent behavior ships as ActScript text assets (``opponents_data/*.act``)
with ``$CONSTANT`` slots bound per team at game start: own server name, own
chest coordinates, and the opponent area center.  Both systems here are
``ScriptTeam``s and only pick each agent's next program: a
``BuiltinTeamSystem`` sequences its scripts (restarting the primary when it
ends or errors out), and a ``RandomTeamSystem`` draws one random call.
"""
from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from importlib import resources
from random import Random
from typing import Generator, Optional

from .actionlang import (
    ActionProgram,
    Call,
    ExecState,
    PrimitiveTable,
    parse_source,
)
from .scenarios import CROPS, DASH_AND_DINE, MUSHROOM_WAR
from .systems import AgentView, ScenarioMetadata, ScriptTeam
from .world import Layout, Observation

FALLBACK_RETRY_TICKS = 40  # min delay before retrying an errored primary
RANDOM_MAX_ATTEMPTS = 32


@dataclass(frozen=True)
class AgentScript:
    primary: str  # looping script asset, restarted on error
    prologues: tuple[str, ...] = ()  # one-shot scripts run first, errors skipped
    fallback: Optional[str] = None  # one-shot script run after a primary error


@dataclass(frozen=True)
class OpponentSpec:
    name: str
    scenario: str
    scripts: tuple[AgentScript, AgentScript]


_MW_REMOVER = AgentScript("mw_slime_remover.act")
_MW_HARVESTER = AgentScript("mw_harvester.act", fallback="mw_harvester_fallback.act")

_BUILTINS: dict[tuple[str, str], OpponentSpec] = {
    (spec.scenario, spec.name): spec
    for spec in [
        OpponentSpec(
            "do_nothing",
            MUSHROOM_WAR,
            (AgentScript("do_nothing.act"), AgentScript("do_nothing.act")),
        ),
        OpponentSpec("passive", MUSHROOM_WAR, (_MW_REMOVER, _MW_HARVESTER)),
        OpponentSpec(
            "balanced",
            MUSHROOM_WAR,
            (AgentScript("mw_destroy_cycle.act"), _MW_HARVESTER),
        ),
        OpponentSpec(
            "slimy",
            MUSHROOM_WAR,
            (AgentScript("mw_slimy_cycle.act"), _MW_HARVESTER),
        ),
        OpponentSpec(
            "aggressive",
            MUSHROOM_WAR,
            (AgentScript("mw_aggressive_cycle.act"), _MW_HARVESTER),
        ),
        OpponentSpec(
            "do_nothing",
            DASH_AND_DINE,
            (AgentScript("do_nothing.act"), AgentScript("do_nothing.act")),
        ),
        OpponentSpec(
            "berries",
            DASH_AND_DINE,
            (
                AgentScript(
                    "dd_berries.act",
                    prologues=("dd_berries_sabotage_a.act", "dd_berries_sabotage_b.act"),
                ),
                AgentScript("dd_berries.act"),
            ),
        ),
        OpponentSpec(
            "cake_beetroot",
            DASH_AND_DINE,
            (
                AgentScript(
                    "dd_cake.act",
                    prologues=(
                        "dd_cake_beetroot_sabotage_a.act",
                        "dd_cake_beetroot_sabotage_b.act",
                    ),
                ),
                AgentScript("dd_beetroot_soup.act"),
            ),
        ),
        OpponentSpec(
            "melon_pumpkin",
            DASH_AND_DINE,
            (AgentScript("dd_melon.act"), AgentScript("dd_pumpkin_pie.act")),
        ),
        OpponentSpec(
            "potato_cookie",
            DASH_AND_DINE,
            (
                AgentScript(
                    "dd_baked_potato.act",
                    prologues=(
                        "dd_potato_cookie_sabotage_a.act",
                        "dd_potato_cookie_sabotage_b.act",
                    ),
                ),
                AgentScript("dd_cookie.act"),
            ),
        ),
    ]
}


def list_builtin(scenario: str) -> tuple[str, ...]:
    names = [n for (s, n) in _BUILTINS if s == scenario]
    # stable presentation order: idle baseline first, then alphabetical
    return tuple(sorted(names, key=lambda n: (n != "do_nothing", n)))


def builtin(name: str, scenario: str) -> OpponentSpec:
    try:
        return _BUILTINS[(scenario, name)]
    except KeyError:
        raise ValueError(f"no builtin opponent {name!r} for scenario {scenario!r}") from None


@functools.cache  # package files do not change under a running process
def script_text(asset: str) -> str:
    return (resources.files("tacticbench") / "opponents_data" / asset).read_text()


def render_script(asset: str, constants: dict[str, object]) -> str:
    return string.Template(script_text(asset)).substitute(
        {k: str(v) for k, v in constants.items()}
    )


# -- per-team template constants ---------------------------------------------

_CHEST_SLOTS = {"bowl": "BOWL", "egg": "EGG", "gold_nugget": "NUGGET", "bucket": "UTIL"}


def team_constants(layout: Layout, team: str) -> dict[str, object]:
    """Template bindings for one team: server name, chest coords, opponent
    area center."""
    consts: dict[str, object] = {}
    for name, server_team, _pos in layout.servers:
        if server_team == team:
            consts["OWN_SERVER"] = name
    others = [t for t in layout.areas if t != team]
    if others:
        opp = others[0]
        x0, z0, x1, z1 = layout.areas[opp]
        consts["OPP_AREA_X"] = (x0 + x1) // 2
        consts["OPP_AREA_Z"] = (z0 + z1) // 2
        ox0, oz0, ox1, oz1 = layout.areas[team]
        own_center = ((ox0 + ox1) / 2, (oz0 + oz1) / 2)
    else:
        own_center = (0.0, 0.0)
    for (x, z), stacks in layout.containers.items():
        for item, slot in _CHEST_SLOTS.items():
            if item not in stacks:
                continue
            key_x, key_z = f"{slot}_X", f"{slot}_Z"
            if key_x in consts:
                # keep the chest nearest the team's own side
                px, pz = consts[key_x], consts[key_z]
                old = max(abs(px - own_center[0]), abs(pz - own_center[1]))
                new = max(abs(x - own_center[0]), abs(z - own_center[1]))
                if new >= old:
                    continue
            consts[key_x] = x
            consts[key_z] = z
    return consts


# -- builtin script driver ----------------------------------------------------


class _AgentPolicy:
    """Sequencer for one agent: prologues once, then the primary forever,
    with an optional fallback pass after each primary error."""

    def __init__(
        self, script: AgentScript, constants: dict[str, object], driver: ExecState
    ) -> None:
        self.script = script
        self.constants = constants
        self.driver = driver
        # parsed once per asset: ExecState never mutates its program
        self._programs: dict[str, ActionProgram] = {}
        self._sequence = self._run()
        next(self._sequence)  # up to the first ``send(tick)``

    def _load(self, asset: str) -> ActionProgram:
        program = self._programs.get(asset)
        if program is None:
            program = parse_source(render_script(asset, self.constants))
            self._programs[asset] = program
        return program

    def advance(self, tick: int) -> ActionProgram:
        """The next program, once the loaded one has ended or errored (or
        none is loaded yet)."""
        return self._sequence.send(tick)

    def _run(self) -> Generator[ActionProgram, int, None]:
        """The sequence, receiving the tick of each ``advance``: the
        prologues once, errors skipped; then the primary, and after a
        primary error the fallback once, then idle until
        ``FALLBACK_RETRY_TICKS`` have passed since the primary last
        started."""
        script = self.script
        tick = yield
        for asset in script.prologues:
            tick = yield self._load(asset)
        while True:
            started = tick
            tick = yield self._load(script.primary)
            if self.driver.status == "error" and script.fallback:
                tick = yield self._load(script.fallback)
                self.driver.charge_idle(started + FALLBACK_RETRY_TICKS - tick)


class BuiltinTeamSystem(ScriptTeam):
    """Drives a scripted opponent for one team; persists across episodes."""

    def __init__(self, spec: OpponentSpec) -> None:
        super().__init__()
        self.spec = spec
        self._policies: dict[str, _AgentPolicy] = {}

    def pre_game(self, metadata: ScenarioMetadata, team_id: str, initial_obs) -> None:
        constants = metadata.constants.get(team_id, {})
        scripts = self.spec.scripts
        self.drivers = {agent: ExecState() for agent in metadata.teams[team_id]}
        self._policies = {
            agent: _AgentPolicy(scripts[min(i, len(scripts) - 1)], constants, driver)
            for i, (agent, driver) in enumerate(self.drivers.items())
        }

    # a class attribute so that perfbench/layers.py can trace this class's polls
    next_request = ScriptTeam.next_request

    def next_program(self, agent_name: str, view: AgentView) -> ActionProgram:
        return self._policies[agent_name].advance(view.tick)


# -- random baseline ----------------------------------------------------------

_NON_TARGET_BLOCKS = frozenset({"chest", "furnace", "crafting_table", "farmland", "air"})


def _pools(view: AgentView, metadata: ScenarioMetadata) -> dict[str, list]:
    obs: Observation = view.observation
    blocks = sorted({kind for kind, _ in obs.nearby_blocks if kind not in _NON_TARGET_BLOCKS})
    crops = [k for k in blocks if k in CROPS]
    chests = sorted(
        {(p.x, p.z) for kind, p in obs.nearby_blocks if kind == "chest"}
    )
    mobs = sorted({kind for kind, _ in obs.nearby_mobs})
    items = sorted(obs.inventory.stacks)
    players = sorted(
        {n for team in metadata.teams.values() for n in team}
        | set(metadata.servers.values())
    )
    return {
        "blocks": blocks,
        "crops": crops,
        "chests": chests,
        "mobs": mobs,
        "items": items,
        "players": players,
    }


def random_call(
    rng: Random, table: PrimitiveTable, view: AgentView, metadata: ScenarioMetadata
) -> Optional[Call]:
    """One random primitive call with arguments drawn from what the agent can
    currently see or holds; None if no valid call was found in the budget."""
    pools = _pools(view, metadata)
    pos = view.observation.self_status["position"]
    names = sorted(table.available)
    for _ in range(RANDOM_MAX_ATTEMPTS):
        name = rng.choice(names)
        args = _random_args(rng, name, pools, (pos.x, pos.z))
        if args is None:
            continue
        if table.check(name, args) is None:
            return Call(name, args, 1, 1)
    return None


def _random_args(rng: Random, name: str, pools: dict[str, list], at: tuple[int, int]):
    def pick(pool: str):
        return rng.choice(pools[pool]) if pools[pool] else None

    if name == "mineBlock":
        kind = pick("blocks")
        if kind is None:
            return None
        args = [kind, rng.randint(1, 4)]
        if rng.random() < 0.5:
            args.append(rng.choice(["any", "own", "opponent"]))
        return args
    if name == "craftItem":
        item = pick("items")
        return None if item is None else [item, 1]
    if name == "placeItem":
        item = pick("items")
        if item is None:
            return None
        return [item, at[0] + rng.randint(-3, 3), at[1] + rng.randint(-3, 3)]
    if name == "smeltItem":
        item = pick("items")
        return None if item is None else [item, "coal", 1]
    if name == "farm":
        crop = pick("crops")
        if crop is None:
            return None
        return [rng.choice(["harvest", "plant", "destroy"]), crop]
    if name == "killMob":
        mob = pick("mobs")
        return None if mob is None else [mob, rng.randint(40, 200)]
    if name == "giveToPlayer":
        item, player = pick("items"), pick("players")
        if item is None or player is None:
            return None
        return [item, player, 1]
    if name == "useChest":
        chest = pick("chests")
        if chest is None:
            return None
        mode = rng.choice(["get", "deposit", "check"])
        if mode == "check":
            return [mode, chest[0], chest[1]]
        item = pick("items")
        if item is None:
            return None
        return [mode, chest[0], chest[1], item, 1]
    if name == "signal":
        peer = pick("players")
        if peer is None:
            return None
        return [rng.choice(["send", "wait"]), peer, 100]
    if name == "transformFarm":
        src, dst = pick("crops"), pick("crops")
        if src is None or dst is None or src == dst:
            return None
        return [src, dst]
    return None


class RandomTeamSystem(ScriptTeam):
    """Baseline that emits one random validated call at a time per agent."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = Random(seed)
        self._metadata: Optional[ScenarioMetadata] = None

    def pre_game(self, metadata: ScenarioMetadata, team_id: str, initial_obs) -> None:
        self._metadata = metadata
        self.drivers = {name: ExecState() for name in metadata.teams[team_id]}

    def next_program(self, agent_name: str, view: AgentView) -> ActionProgram:
        call = random_call(self._rng, self._metadata.primitive_table, view, self._metadata)
        return parse_source("wait(20)") if call is None else ActionProgram([call])
