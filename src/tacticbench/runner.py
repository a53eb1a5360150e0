"""Episode runner: wires team systems to the simulation through the
three-phase API and produces a complete, replayable episode record."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .actionlang import PrimitiveRequest, SayRequest, WaitRequest
from .opponents import team_constants
from .primitives import execute
from .scenarios import SCENARIO_TEXT, ScenarioConfig, make_rules
from .systems import (
    AgentView,
    EpisodeScore,
    ExecOutcome,
    ScenarioMetadata,
    TeamSystem,
)
from .world import AgentBody, Event, WorldState, new_world

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
    description, objective = SCENARIO_TEXT[config.name]
    return ScenarioMetadata(
        scenario=config.name,
        description=description,
        objective=objective,
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
    timelines: dict[str, list[tuple[int, int]]]
    first_score_tick: Optional[int]
    chat_log: list[Event]
    score_log: list
    wall_seconds: float
    disabled_teams: list[str] = field(default_factory=list)


def next_due(world: WorldState, movers: list[AgentBody]) -> int:
    """The earliest tick after ``world.tick`` at which one of ``movers`` can
    be served or its wait can time out; ``world.duration`` if none can."""
    t = world.tick
    due = world.duration
    for agent in movers:
        if agent.waiting_for is not None:
            deadline = agent.wait_deadline
            if deadline is not None and deadline < due:
                due = deadline
        else:
            busy = agent.busy_until
            if busy is None:
                return t + 1
            if busy < due:
                due = busy
    return due if due > t else t + 1


def run_episode(
    config: ScenarioConfig,
    systems: dict[str, TeamSystem],
    seed: int,
) -> EpisodeResult:
    """Run one full episode and return its record.

    ``systems`` maps team id to a team system; system objects persist across
    calls, so per-matchup state (learned tactics, causal models) carries over.
    A ``pre_game`` failure disables the whole team; an exception while
    driving a single agent sidelines only that agent, and the episode
    still completes.

    The clock visits only the ticks at which a timer fires or an agent is
    due (``next_due``), and skips the ticks between them: nothing happens
    on those.  After serving at a tick the runner calls
    ``WorldState.advance_to`` with the next due tick, which enters each
    timer tick before it, and then the due tick, through ``step_tick``,
    without polling anyone.  That is exact because only serving changes an
    agent's ``busy_until``, ``waiting_for`` or ``wait_deadline`` (a signal
    wakes its target inside ``execute``), and no timer effect
    (regrow-block, crop-advance, smelt-complete, mob-respawn) touches
    them, so no agent comes due on those ticks.

    Each poll hands the agent, as ``view.new_events``, the lines of
    ``world.chat_log`` broadcast since its previous poll: chat only.  So
    every agent's concatenated ``new_events`` is a prefix of the same
    episode chat log; ``agents.TeamLog`` relies on this.  Lines broadcast
    after an agent's last poll of the episode reach no system.
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

    # the agents that can be served: the movers of teams still playing
    movers = [a for a in world.agents if not a.stationary and active.get(a.team, False)]
    cursors = {a.name: 0 for a in movers}  # chat lines each agent has been handed

    def sideline(agent, exc: Exception) -> None:
        # an erroring agent waits out the episode, and no signal wakes it;
        # its teammate plays on
        world.broadcast("environment", f"agent {agent.name} system failed: {exc}")
        agent.waiting_for = None
        agent.wait_deadline = None
        agent.busy_until = world.duration

    while world.tick < world.duration:
        for agent in movers:
            if agent.waiting_for is not None:
                if agent.wait_deadline is not None and world.tick >= agent.wait_deadline:
                    agent.waiting_for = None
                    agent.wait_deadline = None
                    world.broadcast(agent.name, "Stopped waiting for signal (timeout)")
                else:
                    continue
            if agent.busy_until is not None and world.tick < agent.busy_until:
                continue
            new_events = world.chat_log[cursors[agent.name] :]
            cursors[agent.name] = len(world.chat_log)
            view = AgentView(
                tick=world.tick,
                duration=world.duration,
                agent_name=agent.name,
                new_events=new_events,
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
                outcome = ExecOutcome(True, f"waited {req.ticks} ticks")
            elif isinstance(req, SayRequest):
                world.broadcast(agent.name, req.text)
                agent.busy_until = world.tick + 1
                outcome = ExecOutcome(True, req.text)
            elif isinstance(req, PrimitiveRequest):
                res = execute(world, config, agent, req)
                if not res.blocking:
                    agent.busy_until = world.tick + res.duration
                outcome = ExecOutcome(res.ok, res.message)
            else:
                sideline(agent, TypeError(f"bad request {req!r}"))
                continue
            try:
                systems[agent.team].on_result(agent.name, outcome)
            except Exception as exc:
                sideline(agent, exc)
        world.advance_to(next_due(world, movers))

    raw = {team: rules.scores[team].points for team in rules.scores}
    teams = sorted(raw)
    best = max(raw.values())
    leaders = [t for t in teams if raw[t] == best]
    winner = leaders[0] if len(leaders) == 1 else "draw"
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
        timelines={t: list(rules.scores[t].timeline) for t in teams},
        first_score_tick=rules.score_log[0].tick if rules.score_log else None,
        chat_log=list(world.chat_log),
        score_log=list(rules.score_log),
        wall_seconds=wall_seconds,
        disabled_teams=[t for t, ok in active.items() if not ok],
    )
