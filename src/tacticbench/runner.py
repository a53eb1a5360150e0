"""Episode runner: wires team systems to the simulation through the
three-phase API and produces a complete, replayable episode record."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .actionlang import PrimitiveRequest, SayRequest, WaitRequest
from .opponents import team_constants
from .primitives import Durations, execute
from .scenarios import (
    DASH_AND_DINE,
    MUSHROOM_WAR,
    ScenarioConfig,
    make_rules,
)
from .systems import (
    AgentView,
    EpisodeScore,
    ExecOutcome,
    ScenarioMetadata,
    TeamSystem,
)
from .world import OBSERVE_RADIUS, Event, WorldState, new_world

SCENARIO_BLURBS = {
    MUSHROOM_WAR: (
        "Two teams each tend an area with slime patches and mushroom patches. "
        "Mining a mushroom in your own area scores its yield. Mushrooms only "
        "regrow while your area holds at most 7 slime blocks; slime regrows on "
        "its original patches. Opponents may mine your mushrooms or dump slime "
        "in your area."
    ),
    DASH_AND_DINE: (
        "Two teams race to cook and deliver food to their own server. Farms, "
        "chests, shared furnaces, and animals supply ingredients; recipes "
        "range from raw berries to cake. Each team scores points for at most "
        "3 distinct food types, so pick a menu and commit."
    ),
}


def primitive_docs(config: ScenarioConfig) -> str:
    lines = []
    table = config.primitive_table
    for name in sorted(table.available):
        spec = table.spec(name)
        sig = ", ".join(spec.arg_kinds[: spec.min_args])
        opt = spec.arg_kinds[spec.min_args :]
        if opt:
            sig += ", [" + ", ".join(opt) + "]"
        lines.append(f"{name}({sig}): {spec.description}")
    return "\n".join(lines)


def build_metadata(config: ScenarioConfig) -> ScenarioMetadata:
    layout = config.layout
    teams = {
        team: [n for n, t, _ in layout.agent_starts if t == team]
        for team in layout.areas
    }
    servers = {t: n for n, t, _ in layout.servers}
    constants = {team: team_constants(layout, team) for team in layout.areas}
    return ScenarioMetadata(
        scenario=config.name,
        description=SCENARIO_BLURBS.get(config.name, ""),
        duration_ticks=config.duration_ticks,
        wait_ticks=config.wait_ticks,
        teams=teams,
        servers=servers,
        primitive_table=config.primitive_table,
        primitive_docs=primitive_docs(config),
        constants=constants,
    )


@dataclass
class EpisodeResult:
    scenario: str
    seed: int
    ticks: int
    scores: dict[str, int]  # raw points per team
    reported: dict[str, float]  # raw points scaled by the scenario report scale
    winner: str  # team id or "draw"
    win_value: dict[str, float]  # 1 / 0.5 / 0 per team
    timelines: dict[str, list[tuple[int, int]]]
    first_score_tick: Optional[int]
    chat_log: list[Event]
    agent_logs: dict[str, list[Event]]
    score_log: list
    wall_seconds: float
    disabled_teams: list[str] = field(default_factory=list)


def _observe_event(world: WorldState, agent_name: str) -> Event:
    """Kind counts of the nearby non-air cells (keys in the ``(x, z)`` order
    of the cells), the sorted kinds of the nearby live mobs, the inventory
    and the position: what ``observe`` shows, without building it."""
    agent = world.agent(agent_name)
    x, z = agent.position.x, agent.position.z
    cells = world.cells
    blocks: dict[str, int] = {}
    for key in world.nearby_cell_keys(x, z, OBSERVE_RADIUS):
        kind = cells[key].kind
        blocks[kind] = blocks.get(kind, 0) + 1
    payload = {
        "blocks": blocks,
        "mobs": sorted({kind for kind, _ in world.nearby_mobs(x, z, OBSERVE_RADIUS)}),
        "inventory": agent.inventory.as_dict(),
        "position": (x, z),
    }
    return Event(kind="observe", tick=world.tick, sender=agent_name, payload=payload)


def run_episode(
    config: ScenarioConfig,
    systems: dict[str, TeamSystem],
    seed: int,
    durations: Durations = Durations(),
) -> EpisodeResult:
    """Run one full episode and return its record.

    ``systems`` maps team id to a team system; system objects persist across
    calls, so per-matchup state (learned tactics, causal models) carries over.
    A ``pre_game`` failure disables the whole team; an exception while
    driving a single agent sidelines only that agent, and the episode
    still completes.  The clock skips the ticks at which no agent is free,
    no wait times out and no timer fires: nothing happens on them.
    """
    start = time.perf_counter()
    world = new_world(config.layout, seed)
    world.duration = config.duration_ticks
    rules = make_rules(config)
    rules.setup(world)
    meta = build_metadata(config)

    active = {team: True for team in systems}
    for team, system in systems.items():
        obs = {name: world.observe(name) for name in meta.teams[team]}
        try:
            system.pre_game(meta, team, obs)
        except Exception as exc:
            active[team] = False
            world.broadcast("environment", f"team {team} system failed: {exc}")

    movers = [a for a in world.agents if not a.stationary]
    cursors = {a.name: 0 for a in movers}
    agent_logs: dict[str, list[Event]] = {a.name: [] for a in movers}

    def sync_chat(name: str) -> None:
        log = agent_logs[name]
        log.extend(world.chat_log[cursors[name] :])
        cursors[name] = len(world.chat_log)

    def sideline(agent, exc: Exception) -> None:
        # an erroring agent waits out the episode, and no signal wakes it;
        # its teammate plays on
        world.broadcast("environment", f"agent {agent.name} system failed: {exc}")
        agent.waiting_for = None
        agent.wait_deadline = None
        agent.busy_until = world.duration

    def next_visit() -> int:
        # the earliest tick at which an agent can be served, a wait can time
        # out or a timer fires; the ticks before it change nothing
        t = world.tick
        nxt = world.duration
        top = world.next_timer_tick()
        if top is not None:
            nxt = min(nxt, top)
        for agent in movers:
            if not active.get(agent.team, False):
                continue
            if agent.waiting_for is not None:
                if agent.wait_deadline is not None:
                    nxt = min(nxt, agent.wait_deadline)
            else:
                nxt = min(nxt, t + 1 if agent.busy_until is None else agent.busy_until)
        return max(t + 1, nxt)

    while world.tick < world.duration:
        for agent in movers:
            if not active.get(agent.team, False):
                continue
            if agent.waiting_for is not None:
                if agent.wait_deadline is not None and world.tick >= agent.wait_deadline:
                    agent.waiting_for = None
                    agent.wait_deadline = None
                    world.broadcast(agent.name, "Stopped waiting for signal (timeout)")
                else:
                    continue
            if agent.busy_until is not None and world.tick < agent.busy_until:
                continue
            prev = len(agent_logs[agent.name])
            sync_chat(agent.name)
            view = AgentView(
                tick=world.tick,
                duration=world.duration,
                agent_name=agent.name,
                new_events=agent_logs[agent.name][prev:],
                inventory=agent.inventory.copy(),
                observe=partial(world.observe, agent.name),
            )
            try:
                req = systems[agent.team].next_request(agent.name, view)
            except Exception as exc:
                sideline(agent, exc)
                continue
            finally:
                view.close()
            if req is None:
                agent.busy_until = world.tick + config.wait_ticks
                continue
            if isinstance(req, WaitRequest):
                agent.busy_until = world.tick + max(1, req.ticks)
                outcome = ExecOutcome(True, f"waited {req.ticks} ticks", max(1, req.ticks), req)
            elif isinstance(req, SayRequest):
                world.broadcast(agent.name, req.text)
                agent.busy_until = world.tick + 1
                outcome = ExecOutcome(True, req.text, 1, req)
            elif isinstance(req, PrimitiveRequest):
                res = execute(world, config, agent, req, durations)
                if not res.blocking:
                    agent.busy_until = world.tick + res.duration
                agent_logs[agent.name].append(_observe_event(world, agent.name))
                outcome = ExecOutcome(res.ok, res.message, res.duration, req)
            else:
                sideline(agent, TypeError(f"bad request {req!r}"))
                continue
            try:
                systems[agent.team].on_result(agent.name, outcome)
            except Exception as exc:
                sideline(agent, exc)
        nxt = next_visit()
        if nxt > world.tick + 1:
            world.skip_idle(nxt)
        world.step_tick()

    for name in cursors:
        sync_chat(name)

    raw = {team: rules.scores[team].points for team in rules.scores}
    teams = sorted(raw)
    best = max(raw.values())
    leaders = [t for t in teams if raw[t] == best]
    winner = leaders[0] if len(leaders) == 1 else "draw"
    win_value = {
        t: (1.0 if winner == t else (0.5 if winner == "draw" else 0.0)) for t in teams
    }
    wall_seconds = time.perf_counter() - start
    for team, system in systems.items():
        opp = [t for t in raw if t != team]
        opp_points = raw[opp[0]] if opp else 0
        try:
            system.post_game(EpisodeScore(team, raw.get(team, 0), opp_points, winner))
        except Exception as exc:
            world.broadcast("environment", f"team {team} post_game failed: {exc}")
    return EpisodeResult(
        scenario=config.name,
        seed=seed,
        ticks=world.duration,
        scores=raw,
        reported={t: raw[t] * config.report_scale for t in teams},
        winner=winner,
        win_value=win_value,
        timelines={t: list(rules.scores[t].timeline) for t in teams},
        first_score_tick=rules.score_log[0].tick if rules.score_log else None,
        chat_log=list(world.chat_log),
        agent_logs=agent_logs,
        score_log=list(rules.score_log),
        wall_seconds=wall_seconds,
        disabled_teams=[t for t, ok in active.items() if not ok],
    )
