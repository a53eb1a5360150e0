"""Chain-of-thought baseline: one prompt per episode generates a program
for every agent on the team; no tactics, no causal model, no mid-episode
regeneration.  It asks through ``ModelTeam._ask``, once."""
from __future__ import annotations

from ..actionlang import ActionProgram, ExecState, parse_source, pretty_print
# bound here for perfbench/layers.py, which traces it by module
from ..actionlang import validate  # noqa: F401
from ..systems import AgentView, ScenarioMetadata
from .client import ChatClient
from .dedup import dedup_events
from .tacticrafter import (
    PROGRAM_CLOSE,
    PROGRAM_OPEN,
    WAIT_LOOP_SOURCE,
    ModelTeam,
    TeamLog,
    compile_program,
    extract_tagged,
    game_slots,
    render_events,
)


class CoTTeamSystem(ModelTeam):
    """Single-prompt baseline team system; persists last-episode history."""

    def __init__(self, client: ChatClient) -> None:
        super().__init__(client)
        self._programs = ""  # the last episode's programs, as ActScript text
        self._error = ""  # the first error they ended with

    def pre_game(self, metadata: ScenarioMetadata, team_id: str, initial_obs) -> None:
        agents = metadata.teams[team_id]
        self._slots = game_slots(metadata, team_id)
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
        if self._programs:
            history = (
                f"Previous code:\n{self._programs}\n"
                f"Execution error: {self._error or '(none)'}\n"
                f"Chat log:\n{render_events(dedup_events(self._log.events))}"
            )
        blocks = self._ask(
            "cot",
            "p_h",
            lambda text: extract_tagged(text, PROGRAM_OPEN, PROGRAM_CLOSE),
            tries=1,
            surroundings="\n".join(surroundings),
            history=history,
        ) or []
        table = metadata.primitive_table
        programs = [compile_program(block, table) for block in blocks[: len(agents)]]
        # None where parsing or validation failed: the wait loop at its first poll
        programs += [None] * (len(agents) - len(programs))
        self.drivers = {name: ExecState(program) for name, program in zip(agents, programs)}
        texts = [WAIT_LOOP_SOURCE if p is None else pretty_print(p) for p in programs]
        self._programs = "\n\n".join(texts)
        self._error = ""
        self._log = TeamLog(agents)

    def next_program(self, agent_name: str, view: AgentView) -> ActionProgram:
        # no regeneration mid-episode: an ended program leaves a wait loop
        driver = self.drivers[agent_name]
        if driver.status == "error" and not self._error:
            self._error = driver.error_message or ""
        return parse_source(WAIT_LOOP_SOURCE)

    def snapshot(self) -> dict:
        """The last episode's programs, first error and chat log, from
        which the next ``pre_game`` prompt is written."""
        return {"programs": self._programs, "error": self._error, "log": self._log.to_json()}

    def restore(self, snapshot: dict) -> None:
        self._programs = snapshot["programs"]
        self._error = snapshot["error"]
        self._log = TeamLog.from_json(snapshot["log"])
