"""Chain-of-thought baseline: one prompt per episode generates a program
for every agent on the team; no tactics, no causal model, no mid-episode
regeneration."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..actionlang import ActionProgram, ExecState, Request, parse_source, pretty_print
# bound here for perfbench/layers.py, which traces it by module
from ..actionlang import validate  # noqa: F401
from ..systems import AgentView, ScenarioMetadata, ScriptTeam
from .client import ChatClient
from .dedup import dedup_events
from .tacticrafter import (
    PROGRAM_CLOSE,
    PROGRAM_OPEN,
    WAIT_LOOP_SOURCE,
    PromptTemplates,
    TagParseError,
    TeamLog,
    _chat,
    compile_program,
    extract_tagged,
    game_slots,
    render_events,
)


@dataclass
class _EpisodeMemory:
    programs: str = ""
    error: str = ""
    log: TeamLog = field(default_factory=TeamLog)


def cot_baseline(
    client: ChatClient,
    prompt: str,
    agent_count: int,
    table,
) -> list[Optional[ActionProgram]]:
    """One model call; returns a program per agent, None where parsing or
    validation failed (that agent falls back to a wait loop)."""
    resp = _chat(client, "cot", prompt)
    try:
        blocks = extract_tagged(resp.text, PROGRAM_OPEN, PROGRAM_CLOSE)
    except TagParseError:
        blocks = []
    programs = [compile_program(block, table) for block in blocks[:agent_count]]
    return programs + [None] * (agent_count - len(programs))


class CoTTeamSystem(ScriptTeam):
    """Single-prompt baseline team system; persists last-episode history."""

    def __init__(self, client: ChatClient) -> None:
        super().__init__()
        self.client = client
        self.templates = PromptTemplates()
        self._memory = _EpisodeMemory()

    def pre_game(self, metadata: ScenarioMetadata, team_id: str, initial_obs) -> None:
        agents = metadata.teams[team_id]
        surroundings = []
        for name in agents:
            obs = initial_obs.get(name)
            if obs is None:
                surroundings.append(f"{name}: (unknown)")
                continue
            kinds = sorted({k for k, _ in obs.nearby_blocks})
            mobs = sorted({k for k, _ in obs.nearby_mobs})
            surroundings.append(f"{name}: blocks={kinds} entities={mobs}")
        history = "(first episode)"
        if self._memory.programs:
            history = (
                f"Previous code:\n{self._memory.programs}\n"
                f"Execution error: {self._memory.error or '(none)'}\n"
                f"Chat log:\n{render_events(dedup_events(self._memory.log.events))}"
            )
        prompt = self.templates.fill(
            "p_h",
            **game_slots(metadata, team_id),
            surroundings="\n".join(surroundings),
            history=history,
        )
        programs = cot_baseline(self.client, prompt, len(agents), metadata.primitive_table)
        # an agent left without a program gets the wait loop at its first poll
        self.drivers = {name: ExecState(program) for name, program in zip(agents, programs)}
        texts = [WAIT_LOOP_SOURCE if p is None else pretty_print(p) for p in programs]
        self._memory = _EpisodeMemory(programs="\n\n".join(texts), log=TeamLog(agents))

    def next_request(self, agent_name: str, view: AgentView) -> Optional[Request]:
        self._memory.log.extend(agent_name, view.new_events)
        return super().next_request(agent_name, view)

    def next_program(self, agent_name: str, view: AgentView) -> ActionProgram:
        # no regeneration mid-episode: an ended program leaves a wait loop
        driver = self.drivers[agent_name]
        if driver.status == "error" and not self._memory.error:
            self._memory.error = driver.error_message or ""
        return parse_source(WAIT_LOOP_SOURCE)

    def snapshot(self) -> dict:
        """The last episode's programs, first error and chat log, from
        which the next ``pre_game`` prompt is written."""
        memory = self._memory
        return {"programs": memory.programs, "error": memory.error, "log": memory.log.to_json()}

    def restore(self, snapshot: dict) -> None:
        log = TeamLog.from_json(snapshot["log"])
        self._memory = _EpisodeMemory(snapshot["programs"], snapshot["error"], log)
