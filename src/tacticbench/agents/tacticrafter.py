"""The tactics/causal/opponent-model agent pipeline and its team system.

Flow per matchup: on the first episode the system asks the model for an
initial team plan and an initial causal model; before every later episode
it updates the causal model from last episode's logs, re-reads the opponent
from their chat, and revises the plan.  During an episode each base agent
runs generated programs in a generate-execute-critique loop; the first
program of an episode is generated pre-game and carries no in-game latency
cost, later generations charge idle ticks at 20 ticks per second of
response time.
"""
from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Callable, Optional, TypeVar

from ..actionlang import ActionProgram, ParseError, parse_source, validate
from ..systems import AgentView, Request, ScenarioMetadata, ScriptDriver, ScriptTeam
from ..world import TICKS_PER_SECOND, Event
from .causal import CausalGraph, CausalRelation
from .client import ChatClient, ChatCompletionRequest, ChatMessage
from .dedup import DedupMemo, dedup_events

log = logging.getLogger(__name__)
T = TypeVar("T")

TACTICS_OPEN, TACTICS_CLOSE = "<tactics>", "</tactics>"
PROGRAM_OPEN, PROGRAM_CLOSE = "<program>", "</program>"
MAX_TACTICS_LINES = 6
UNKNOWN = "unknown"
FALLBACK_TACTICS_LINE = "All players harvest in own area"
WAIT_LOOP_SOURCE = "loop { wait(20) }"
MAX_PARSE_FAILURES = 3
CHECKPOINT_VERSION = 1
HISTORY_EVENT_CAP = 200

OBJECTIVES = {
    "mushroom_war": "harvest mushrooms in your own area to score more points than the opposing team",
    "dash_and_dine": "cook and deliver high-value food to your own server to outscore the opposing team",
}


class TagParseError(ValueError):
    pass


def extract_tagged(text: str, open_tag: str, close_tag: str) -> list[str]:
    pattern = re.compile(re.escape(open_tag) + r"(.*?)" + re.escape(close_tag), re.DOTALL)
    blocks = [m.group(1).strip() for m in pattern.finditer(text)]
    if not blocks:
        raise TagParseError(f"no {open_tag}...{close_tag} block in response")
    return blocks


def compile_program(source: str, table) -> Optional[ActionProgram]:
    """Model-written ActScript as a program ready to run, or None when it
    does not parse or fails validation against ``table``."""
    try:
        program = parse_source(source)
    except ParseError:
        return None
    return None if validate(program, table) else program


# -- artifacts ---------------------------------------------------------------


@dataclass
class Tactics:
    lines: list[str]

    def __post_init__(self) -> None:
        if not self.lines:
            raise ValueError("tactics cannot be empty")
        if len(self.lines) > MAX_TACTICS_LINES:
            log.warning("tactics over %d lines, truncating", MAX_TACTICS_LINES)
            self.lines = self.lines[:MAX_TACTICS_LINES]

    @classmethod
    def parse(cls, text: str) -> "Tactics":
        block = extract_tagged(text, TACTICS_OPEN, TACTICS_CLOSE)[0]
        lines = [ln.strip() for ln in block.splitlines() if ln.strip()]
        if not lines:
            raise TagParseError("empty tactics block")
        return cls(lines)

    def to_text(self) -> str:
        return "\n".join(self.lines)


@dataclass
class OpponentTactics:
    lines: list[str] = field(default_factory=list)

    @property
    def is_unknown(self) -> bool:
        return not self.lines

    def to_text(self) -> str:
        return UNKNOWN if self.is_unknown else "\n".join(self.lines)


# -- prompt templates --------------------------------------------------------


class PromptTemplates:
    """The p_a..p_h prompt assets; every named slot must be filled."""

    NAMES = ("p_a", "p_b", "p_c", "p_d", "p_e", "p_f", "p_g", "p_h")

    def __init__(self) -> None:
        base = resources.files("tacticbench") / "agents" / "templates"
        self.texts = {name: (base / f"{name}.txt").read_text() for name in self.NAMES}
        self._templates = {name: string.Template(text) for name, text in self.texts.items()}
        self._slots = {name: _slot_names(t) for name, t in self._templates.items()}

    def fill(self, name: str, **slots) -> str:
        missing = self._slots[name] - slots.keys()
        if missing:
            raise KeyError(f"template {name} missing slots: {sorted(missing)}")
        return self._templates[name].substitute({k: str(v) for k, v in slots.items()})


def _slot_names(template: string.Template) -> frozenset[str]:
    return frozenset(
        m.group("named") or m.group("braced")
        for m in template.pattern.finditer(template.template)
        if m.group("named") or m.group("braced")
    )


# -- history ----------------------------------------------------------------


class TeamLog:
    """One team's chat log of one episode, kept once.

    Every agent's concatenated ``new_events`` is a prefix of the same
    episode chat log (see ``runner.run_episode``), so the team keeps the
    longest prefix it has been handed and, per agent, how many of its
    lines that agent has seen.
    """

    def __init__(self, agents=()) -> None:
        self.events: list[Event] = []
        self.seen = dict.fromkeys(agents, 0)

    def extend(self, agent: str, new_events: list[Event]) -> None:
        start = self.seen[agent]
        self.events.extend(new_events[len(self.events) - start :])
        self.seen[agent] = start + len(new_events)

    def view(self, agent: str) -> list[Event]:
        """The lines ``agent`` has been handed so far."""
        return self.events[: self.seen[agent]]


# The renderers below take a log that ``dedup_events`` already compacted.


def render_events(compact: list[Event], cap: int = HISTORY_EVENT_CAP) -> str:
    """One line per event, the last ``cap`` events only."""
    lines = [f"[{ev.tick}] {ev.sender}: {ev.payload}" for ev in compact[-cap:]]
    return "\n".join(lines) if lines else "(nothing)"


def render_member_history(compact: list[Event], members: list[str]) -> str:
    """Per member: (chat message, inventory at that time) pairs.  The log
    holds chat lines only, so every inventory prints as ``{}``."""
    out = []
    for member in members:
        # The slot stays in the prompt; filling it needs a record of
        # ``view.inventory`` taken at each poll and kept beside the chat log.
        pairs = [f'  ("{ev.payload}", inventory={{}})' for ev in compact if ev.sender == member]
        out.append(f"{member}:")
        out.extend(pairs if pairs else ["  (no messages)"])
    return "\n".join(out)


def opponent_chat_lines(compact: list[Event], opponent_members: list[str]) -> str:
    lines = [
        f"[{ev.tick}] {ev.sender}: {ev.payload}" for ev in compact if ev.sender in opponent_members
    ]
    return "\n".join(lines) if lines else "(no opponent messages)"


def render_constants(constants: dict[str, object]) -> str:
    if not constants:
        return "(none)"
    return "\n".join(f"{k} = {v}" for k, v in sorted(constants.items()))


# -- game slots and model calls ----------------------------------------------


def game_slots(metadata: ScenarioMetadata, team_id: str) -> dict[str, str]:
    """The template slots that describe the game to ``team_id``; every
    prompt of both model-driven systems fills its game slots from here."""
    if not metadata.description:
        raise ValueError("scenario description must be non-empty")
    return {
        "team_name": team_id,
        "scenario": metadata.description,
        "objective": OBJECTIVES.get(metadata.scenario, "outscore the opposing team"),
        "agents": ", ".join(metadata.teams[team_id]),
        "primitives": metadata.primitive_docs,
        "constants": render_constants(metadata.constants.get(team_id, {})),
        "opponent_name": metadata.opponent_of(team_id),
    }


def _chat(client: ChatClient, purpose: str, prompt: str):
    return client.chat(ChatCompletionRequest([ChatMessage("user", prompt)], purpose=purpose))


def _stub_call(name: str, table) -> str:
    spec = table.spec(name)
    args = []
    for kind in spec.arg_kinds[: spec.min_args]:
        args.append('"item"' if kind == "str" else "1")
    return f"{name}({', '.join(args)})"


def ensure_primitive_coverage(graph: CausalGraph, table) -> CausalGraph:
    """Every available primitive gets at least one relation; missing ones
    are stubbed with empty causes/effects."""
    covered = set()
    for action in graph.relations:
        head = action.split("(", 1)[0].strip()
        covered.add(head)
    for name in sorted(table.available):
        if name not in covered:
            graph.add(CausalRelation(_stub_call(name, table)))
    return graph


# -- checkpoints -------------------------------------------------------------


@dataclass
class Checkpoint:
    version: int
    episode_counter: int
    tactics: Optional[list[str]]
    causal_graph: list[dict]
    opponent_tactics: list[str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        data = json.loads(text)
        if data.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint version mismatch: {data.get('version')!r}")
        return cls(
            version=data["version"],
            episode_counter=data["episode_counter"],
            tactics=data["tactics"],
            causal_graph=data["causal_graph"],
            opponent_tactics=data["opponent_tactics"],
        )


def checkpoint_save(system: "TactiCrafterSystem") -> Checkpoint:
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        episode_counter=system.episode_counter,
        tactics=system.tactics.lines if system.tactics else None,
        causal_graph=system.graph.to_json(),
        opponent_tactics=system.opponent_tactics.lines,
    )


def checkpoint_load(checkpoint: Checkpoint, client: ChatClient) -> "TactiCrafterSystem":
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version mismatch: {checkpoint.version!r}")
    system = TactiCrafterSystem(client)
    system.episode_counter = checkpoint.episode_counter
    system.tactics = Tactics(list(checkpoint.tactics)) if checkpoint.tactics else None
    system.graph = CausalGraph.from_json(checkpoint.causal_graph)
    system.opponent_tactics = OpponentTactics(list(checkpoint.opponent_tactics))
    return system


# -- the team system ---------------------------------------------------------


class _BaseAgent:
    """One base agent: program driver plus roll-out iteration bookkeeping."""

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index
        self.driver = ScriptDriver()
        self.iterations = 0
        self.parse_failures = 0
        self.benched = False
        self.critique = ""
        self.compact: list[Event] = []  # its deduplicated lines at the last regeneration
        self.dedup_memo = DedupMemo()  # lets each regeneration rescan only the log's new tail


class TactiCrafterSystem(ScriptTeam):
    """Persistent team system wrapping the full agent pipeline."""

    def __init__(self, client: ChatClient) -> None:
        super().__init__()
        self.client = client
        self.templates = PromptTemplates()
        self.episode_counter = 0
        self.tactics: Optional[Tactics] = None
        self.graph = CausalGraph()
        self.opponent_tactics = OpponentTactics()
        self._agents: dict[str, _BaseAgent] = {}
        self._slots: dict[str, str] = {}  # game_slots of the current episode
        self._meta: Optional[ScenarioMetadata] = None
        self._log = TeamLog()  # the current episode's, or else the last one's
        self.idle_ticks_charged = 0
        self.iteration_counts: dict[str, int] = {}

    # -- episode lifecycle --------------------------------------------

    def pre_game(self, metadata: ScenarioMetadata, team_id: str, initial_obs) -> None:
        self._meta = metadata
        self._slots = game_slots(metadata, team_id)
        self.episode_counter += 1
        if self.episode_counter == 1 and self.tactics is None:
            graph = self._ask("causal", "p_c", CausalGraph.parse_lenient) or CausalGraph()
            self.graph = ensure_primitive_coverage(graph, metadata.primitive_table)
            self.tactics = self._ask(
                "tactics", "p_a", Tactics.parse, causal_graph=self.graph.serialize() or "(empty)"
            ) or Tactics([FALLBACK_TACTICS_LINE])
        elif self._log.events:
            compact = dedup_events(self._log.events)
            learned = self._ask(
                "causal",
                "p_d",
                CausalGraph.parse_lenient,
                causal_graph=self.graph.serialize() or "(empty)",
                history=render_member_history(compact, metadata.teams[team_id]),
            )
            if learned:
                self.graph = self.graph.union(learned)
            self.opponent_tactics = self._ask(
                "opponent",
                "p_e",
                lambda text: OpponentTactics(Tactics.parse(text).lines),
                tries=1,
                opponent_chat=opponent_chat_lines(
                    compact, metadata.teams[metadata.opponent_of(team_id)]
                ),
                previous_opponent_tactics=self.opponent_tactics.to_text(),
            ) or self.opponent_tactics
            previous = self.tactics or Tactics([FALLBACK_TACTICS_LINE])
            self.tactics = self._ask(
                "tactics",
                "p_b",
                Tactics.parse,
                history=render_events(compact),
                causal_graph=self.graph.serialize() or "(empty)",
                previous_tactics=previous.to_text(),
                opponent_tactics=self.opponent_tactics.to_text(),
            ) or previous
        self._agents = {
            name: _BaseAgent(name, i) for i, name in enumerate(metadata.teams[team_id])
        }
        self._log = TeamLog(self._agents)
        self.drivers = {name: agent.driver for name, agent in self._agents.items()}
        # first roll-out iteration happens pre-game: no latency cost in-sim
        for agent in self._agents.values():
            agent.driver.load(self._generate_program(agent, charge_latency=False))

    def _ask(
        self, purpose: str, template: str, parse: Callable[[str], T], tries: int = 2, **slots
    ) -> Optional[T]:
        """Fill ``template`` once and ask the model up to ``tries`` times.
        Returns the first answer that ``parse`` reads without a
        ``TagParseError`` into something non-empty, or None."""
        prompt = self.templates.fill(template, **self._slots, **slots)
        for _ in range(tries):
            try:
                answer = parse(_chat(self.client, purpose, prompt).text)
            except TagParseError:
                continue
            if answer:
                return answer
        return None

    def _program_prompt(self, agent: _BaseAgent) -> str:
        return self.templates.fill(
            "p_f",
            **self._slots,
            agent_name=agent.name,
            agent_index=agent.index,
            tactics=self.tactics.to_text() if self.tactics else FALLBACK_TACTICS_LINE,
            causal_graph=self.graph.serialize() or "(empty)",
            history=render_events(agent.compact) if agent.compact else "(episode start)",
            critique=agent.critique or "(none)",
        )

    def _generate_program(self, agent: _BaseAgent, charge_latency: bool) -> ActionProgram:
        prompt = self._program_prompt(agent)
        latency = 0.0
        program: Optional[ActionProgram] = None
        for _ in range(2):
            resp = _chat(self.client, "program", prompt)
            latency = resp.latency
            try:
                source = extract_tagged(resp.text, PROGRAM_OPEN, PROGRAM_CLOSE)[0]
                program = compile_program(source, self._meta.primitive_table)
            except TagParseError:
                pass
            if program is not None:
                agent.parse_failures = 0
                break
            agent.parse_failures += 1
            if agent.parse_failures >= MAX_PARSE_FAILURES:
                break
        if program is None:
            agent.benched = agent.parse_failures >= MAX_PARSE_FAILURES
            # a finite pause until benched, so the failure count can keep
            # accumulating across retries until the bench threshold is reached
            program = parse_source(WAIT_LOOP_SOURCE if agent.benched else "wait(100)")
        agent.iterations += 1
        if charge_latency:
            idle = round(latency * TICKS_PER_SECOND)
            agent.driver.charge_idle(idle)
            self.idle_ticks_charged += idle
        return program

    def _criticize(self, agent: _BaseAgent, view: AgentView) -> None:
        obs = view.observation
        status = {
            "chat log": [f"{e.sender}: {e.payload}" for e in agent.compact[-20:]],
            "biome": obs.self_status.get("biome"),
            "time": obs.self_status.get("time"),
            "nearby blocks": sorted({k for k, _ in obs.nearby_blocks}),
            "nearby entities": sorted({k for k, _ in obs.nearby_mobs}),
            "health": obs.self_status.get("health"),
            "hunger": obs.self_status.get("hunger"),
            "position": obs.self_status.get("position"),
            "inventory": obs.inventory.as_dict(),
        }
        prompt = self.templates.fill(
            "p_g",
            **self._slots,
            agent_name=agent.name,
            tactics=self.tactics.to_text() if self.tactics else FALLBACK_TACTICS_LINE,
            status_report="\n".join(f"{k}: {v}" for k, v in status.items()),
            error=agent.driver.error_message or "(completed without error)",
        )
        resp = _chat(self.client, "critic", prompt)
        agent.critique = resp.text.strip()

    # -- game phase ---------------------------------------------------

    def next_request(self, agent_name: str, view: AgentView) -> Optional[Request]:
        self._log.extend(agent_name, view.new_events)
        return super().next_request(agent_name, view)

    def next_program(self, agent_name: str, view: AgentView) -> Optional[ActionProgram]:
        agent = self._agents[agent_name]
        if agent.benched:
            return None
        # program ended (error or clean completion): critique and regenerate
        agent.compact = dedup_events(self._log.view(agent_name), agent.dedup_memo)
        self._criticize(agent, view)
        return self._generate_program(agent, charge_latency=True)

    def post_game(self, score) -> None:
        self.iteration_counts = {n: self._agents[n].iterations for n in self._agents}
