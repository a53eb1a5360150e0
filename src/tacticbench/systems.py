"""The team-system API: the only surface through which a multi-agent system
touches an episode.

Systems implement three phases: ``pre_game`` (scenario metadata, team id,
initial observations), the game phase (the runner polls ``next_request``
per free agent and reports outcomes through ``on_result``), and
``post_game``.  Systems that act through ActScript subclass ``ScriptTeam``,
which runs the poll, and only pick each agent's next program.  A system
object persists between episodes of a matchup.  Systems never receive the
world object or the opposing system, only observations, chat events, and
static metadata.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from .actionlang import ActionProgram, ExecState, PrimitiveTable, Request, WaitRequest, step
# bound here for perfbench/layers.py, which traces it by module
from .actionlang import parse_source  # noqa: F401
from .world import Event, Inventory, Observation


@dataclass
class ScenarioMetadata:
    scenario: str
    description: str
    duration_ticks: int
    wait_ticks: int
    teams: dict[str, list[str]]  # team id -> player names (no servers)
    servers: dict[str, str]  # team id -> server name, if the scenario has one
    primitive_table: PrimitiveTable
    primitive_docs: str
    # per-team template constants (own chest coordinates, opponent area
    # center, own server name, ...)
    constants: dict[str, dict[str, object]] = field(default_factory=dict)

    def opponent_of(self, team: str) -> str:
        others = [t for t in self.teams if t != team]
        return others[0]


class AgentView:
    """Everything a controller may see when asked for its next action.

    A view describes the tick it was made for.  ``observation`` is computed
    on its first read and valid only while ``next_request`` runs: once the
    call returns the runner closes the view, and any later read raises.
    ``inventory`` is a copy of the agent's inventory taken when the view was
    made, so changing it changes nothing in the episode.
    """

    def __init__(
        self,
        tick: int,
        duration: int,
        agent_name: str,
        new_events: list[Event],
        *,
        inventory: Inventory,
        observe: Callable[[], Observation],
    ) -> None:
        self.tick = tick
        self.duration = duration
        self.agent_name = agent_name
        self.new_events = new_events
        self.inventory = inventory
        self._observation: Optional[Observation] = None
        self._observe = observe
        self._closed = False

    @property
    def observation(self) -> Observation:
        if self._closed:
            raise RuntimeError(f"view of {self.agent_name} at tick {self.tick} is closed")
        if self._observation is None:
            self._observation = self._observe()
        return self._observation

    def close(self) -> None:
        self._closed = True
        self._observation = self._observe = None


@dataclass
class ExecOutcome:
    ok: bool
    message: str


@dataclass
class EpisodeScore:
    """Final result handed to ``post_game``: own/opponent scores only."""

    team: str
    own_points: int
    opponent_points: int
    winner: str  # team id or "draw"


class TeamSystem(Protocol):
    def pre_game(
        self,
        metadata: ScenarioMetadata,
        team_id: str,
        initial_obs: dict[str, Observation],
    ) -> None: ...

    def next_request(self, agent_name: str, view: AgentView) -> Optional[Request]: ...

    def on_result(self, agent_name: str, outcome: ExecOutcome) -> None: ...

    def post_game(self, score: EpisodeScore) -> None: ...


class ScriptTeam:
    """Base of the team systems that run each agent's programs in an
    ``ExecState``.

    ``next_request`` is the one poll: it serves the agent's charged idle
    ticks as one wait, else steps its running program, and once the loaded
    program has ended or errored it loads the program ``next_program``
    picks and asks again, once.  A subclass sets up ``drivers`` in
    ``pre_game`` and implements ``next_program``.  When that returns None,
    or its program ends without a request, the agent idles until its next
    poll.  A failed outcome aborts the agent's program, and the game ends
    with nothing to learn unless a subclass overrides ``post_game``.
    """

    def __init__(self) -> None:
        self.drivers: dict[str, ExecState] = {}

    def next_request(self, agent_name: str, view: AgentView) -> Optional[Request]:
        state = self.drivers[agent_name]
        req = _serve(state, view)
        if req is not None:
            return req
        program = self.next_program(agent_name, view)
        if program is None:
            return None
        state.load(program)
        return _serve(state, view)

    def next_program(self, agent_name: str, view: AgentView) -> Optional[ActionProgram]:
        """The program ``agent_name`` runs next, its last one having ended
        or errored (or none being loaded yet); None leaves it idle."""
        raise NotImplementedError

    def on_result(self, agent_name: str, outcome: ExecOutcome) -> None:
        if not outcome.ok:
            self.drivers[agent_name].report_error(outcome.message)

    def post_game(self, score: EpisodeScore) -> None:
        pass


def _serve(state: ExecState, view: AgentView) -> Optional[Request]:
    """The charged idle as one wait, else the running program's next
    request; None once the program has ended or errored."""
    if state.pending_idle > 0:
        idle = state.pending_idle
        state.pending_idle = 0
        return WaitRequest(idle)
    if state.status != "running":
        return None
    return step(state, view)
