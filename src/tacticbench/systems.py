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
from typing import Callable, Optional, Protocol, Union

from .actionlang import (
    ActionProgram,
    ExecState,
    PrimitiveRequest,
    PrimitiveTable,
    SayRequest,
    WaitRequest,
    step,
)
# bound here for perfbench/layers.py, which traces it by module
from .actionlang import parse_source  # noqa: F401
from .world import Event, Inventory, Observation

Request = Union[PrimitiveRequest, WaitRequest, SayRequest]


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
    duration: int
    request: Optional[Request] = None


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


class ScriptDriver:
    """Runs one agent's loaded ActScript program one request at a time.

    ``next_request`` returns None once the program has finished or errored;
    the owning ``ScriptTeam`` then loads the next program.  Idle ticks
    charged with ``charge_idle`` are served as one wait before the program
    resumes.
    """

    def __init__(self) -> None:
        self.exec: Optional[ExecState] = None
        self.pending_idle: int = 0

    def load(self, program: ActionProgram) -> None:
        self.exec = ExecState(program)

    @property
    def status(self) -> str:
        return self.exec.status if self.exec else "done"

    @property
    def error_message(self) -> Optional[str]:
        return self.exec.error_message if self.exec else None

    def next_request(self, view: AgentView) -> Optional[Request]:
        if self.pending_idle > 0:
            idle = self.pending_idle
            self.pending_idle = 0
            return WaitRequest(idle)
        if self.exec is None or self.exec.status != "running":
            return None
        return step(self.exec, view, view)

    def report(self, outcome: ExecOutcome) -> None:
        if self.exec is not None and not outcome.ok:
            self.exec.report_error(outcome.message)

    def charge_idle(self, ticks: int) -> None:
        if ticks > 0:
            self.pending_idle += ticks


class ScriptTeam:
    """Base of the team systems that run each agent through a
    ``ScriptDriver``.

    ``next_request`` is the one poll: it asks the agent's driver for a
    request, and once the loaded program has ended or errored it loads the
    program ``next_program`` picks and asks again, once.  A subclass sets up
    ``drivers`` in ``pre_game`` and implements ``next_program``.  When that
    returns None, or its program ends without a request, the agent idles
    until its next poll.  Outcomes go to the agent's driver, and the game
    ends with nothing to learn unless a subclass overrides ``post_game``.
    """

    def __init__(self) -> None:
        self.drivers: dict[str, ScriptDriver] = {}

    def next_request(self, agent_name: str, view: AgentView) -> Optional[Request]:
        driver = self.drivers[agent_name]
        req = driver.next_request(view)
        if req is not None:
            return req
        program = self.next_program(agent_name, view)
        if program is None:
            return None
        driver.load(program)
        return driver.next_request(view)

    def next_program(self, agent_name: str, view: AgentView) -> Optional[ActionProgram]:
        """The program ``agent_name`` runs next, its last one having ended
        or errored (or none being loaded yet); None leaves it idle."""
        raise NotImplementedError

    def on_result(self, agent_name: str, outcome: ExecOutcome) -> None:
        self.drivers[agent_name].report(outcome)

    def post_game(self, score: EpisodeScore) -> None:
        pass
