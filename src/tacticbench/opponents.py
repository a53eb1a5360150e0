"""Built-in scripted opponents and the random-policy baseline.

Opponent behavior ships as ActScript text assets (``opponents_data/*.act``)
with ``$CONSTANT`` slots bound per team at game start: own server name, own
chest coordinates, and the opponent area center.  A ``BuiltinTeamSystem``
drives the scripts, restarting a program whenever it errors out.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources
from random import Random
from typing import Optional

from .actionlang import (
    ActionProgram,
    Call,
    PrimitiveTable,
    parse_source,
    validate,
)
from .scenarios import CROPS, DASH_AND_DINE, MUSHROOM_WAR
from .systems import AgentView, Request, ScenarioMetadata, ScriptDriver, ScriptTeam
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
    sabotage_destroy: bool = False
    sabotage_place: bool = False


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
            sabotage_destroy=True,
        ),
        OpponentSpec(
            "slimy",
            MUSHROOM_WAR,
            (AgentScript("mw_slimy_cycle.act"), _MW_HARVESTER),
            sabotage_place=True,
        ),
        OpponentSpec(
            "aggressive",
            MUSHROOM_WAR,
            (AgentScript("mw_aggressive_cycle.act"), _MW_HARVESTER),
            sabotage_destroy=True,
            sabotage_place=True,
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
            sabotage_place=True,
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
            sabotage_place=True,
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
            sabotage_place=True,
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

    def __init__(self, script: AgentScript, constants: dict[str, object]) -> None:
        self.script = script
        self.constants = constants
        self.driver = ScriptDriver()
        # parsed once per asset: ExecState never mutates its program
        self._programs: dict[str, ActionProgram] = {}
        self.stage = "prologue"
        self.prologue_idx = 0
        self.primary_started_at = 0
        self._advance(tick=0)

    def _load(self, asset: str) -> None:
        program = self._programs.get(asset)
        if program is None:
            program = parse_source(render_script(asset, self.constants))
            self._programs[asset] = program
        self.driver.load(program)

    def _advance(self, tick: int) -> None:
        """Pick the next program after the current one ends or errors."""
        if self.stage == "prologue":
            while self.prologue_idx < len(self.script.prologues):
                asset = self.script.prologues[self.prologue_idx]
                self.prologue_idx += 1
                self._load(asset)
                return
            self.stage = "primary"
            self.primary_started_at = tick
            self._load(self.script.primary)
            return
        if self.stage == "primary":
            if self.driver.status == "error" and self.script.fallback:
                self.stage = "fallback"
                self._load(self.script.fallback)
                return
            self.primary_started_at = tick
            self._load(self.script.primary)
            return
        # fallback finished (or errored): retry the primary, but not faster
        # than the retry interval since the primary last started
        self.stage = "primary"
        remaining = self.primary_started_at + FALLBACK_RETRY_TICKS - tick
        self.primary_started_at = tick
        self._load(self.script.primary)
        self.driver.charge_idle(max(0, remaining))

    def next_request(self, view: AgentView) -> Optional[Request]:
        for _ in range(8):  # programs always emit within a couple of reloads
            req = self.driver.next_request(view)
            if req is not None:
                return req
            if view.tick >= view.duration:
                return None
            self._advance(view.tick)
        return None


class BuiltinTeamSystem(ScriptTeam):
    """Drives a scripted opponent for one team; persists across episodes."""

    def __init__(self, spec: OpponentSpec) -> None:
        super().__init__()
        self.spec = spec
        self._policies: dict[str, _AgentPolicy] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def pre_game(self, metadata: ScenarioMetadata, team_id: str, initial_obs) -> None:
        constants = metadata.constants.get(team_id, {})
        agents = metadata.teams[team_id]
        self._policies = {
            agent: _AgentPolicy(self.spec.scripts[min(i, len(self.spec.scripts) - 1)], constants)
            for i, agent in enumerate(agents)
        }
        self.drivers = {agent: policy.driver for agent, policy in self._policies.items()}

    def next_request(self, agent_name: str, view: AgentView) -> Optional[Request]:
        return self._policies[agent_name].next_request(view)


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
        call = Call(name, args, 1, 1)
        if not validate(ActionProgram([call]), table):
            return call
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
        self.seed = seed
        self._rng = Random(seed)
        self._metadata: Optional[ScenarioMetadata] = None

    def pre_game(self, metadata: ScenarioMetadata, team_id: str, initial_obs) -> None:
        self._metadata = metadata
        self.drivers = {name: ScriptDriver() for name in metadata.teams[team_id]}

    def next_request(self, agent_name: str, view: AgentView) -> Optional[Request]:
        driver = self.drivers[agent_name]
        req = driver.next_request(view)
        if req is not None:
            return req
        call = random_call(self._rng, self._metadata.primitive_table, view, self._metadata)
        if call is None:
            driver.load_source("wait(20)")
        else:
            driver.load(ActionProgram([call]))
        return driver.next_request(view)
