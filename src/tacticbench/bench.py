"""Benchmark orchestration: run configs, seeding, calibration, matchup
loops, and the adaptation / self-play protocols.

A run config selects scenarios, blue-side built-in opponents, the red-side
system, episode counts, and client settings.  Every episode's seed is a
hash of (run seed, scenario, matchup, repeat, episode index) so any single
episode can be replayed in isolation.  Results are flushed to the run
folder as they are produced.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import yaml

from . import __version__
from .agents import (
    CoTTeamSystem,
    HttpChatClient,
    TactiCrafterSystem,
    checkpoint_load,
    checkpoint_save,
    make_mock_client,
)
from .metrics import MetricValues, MetricsReport, mean_values, metric_values, report_from_rows
from .opponents import BuiltinTeamSystem, RandomTeamSystem, builtin, list_builtin, script_text
from .runner import EpisodeResult, run_episode
from .scenarios import SCENARIO_NAMES, ScenarioConfig, get_scenario
from .systems import TeamSystem
from .world import new_world

CALIBRATION_EPISODES = 20
DEFAULT_EPISODES = 5
DEFAULT_REPEATS = 3


def _check_keys(what: str, data: dict, cls: type) -> None:
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


@dataclass
class ClientConfig:
    kind: str = "mock"  # mock | http
    base_url: str = ""
    model: str = ""
    latency: float = 0.0  # synthetic latency for the mock

    def build(self):
        if self.kind == "mock":
            return make_mock_client(latency=self.latency)
        if self.kind == "http":
            if not self.base_url or not self.model:
                raise ValueError("http client needs base_url and model")
            return HttpChatClient(self.base_url, self.model)
        raise ValueError(f"unknown client kind {self.kind!r}")


@dataclass
class RunConfig:
    scenarios: list[str] = field(default_factory=lambda: list(SCENARIO_NAMES))
    opponents: Optional[list[str]] = None  # None: all builtins per scenario
    episodes: int = DEFAULT_EPISODES
    repeats: int = DEFAULT_REPEATS
    seed: int = 0
    red_system: str = "tacticrafter"  # tacticrafter | cot | random | builtin:<name>
    client: ClientConfig = field(default_factory=ClientConfig)
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for scenario in self.scenarios:
            if scenario not in SCENARIO_NAMES:
                raise ValueError(f"unknown scenario {scenario!r}")
        # a repeated entry would replay the same seeds into the same files
        for what, names in (("scenarios", self.scenarios), ("opponents", self.opponents or [])):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {what} in {names}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        client = data.pop("client", {})
        _check_keys("run config", data, cls)
        if not isinstance(client, dict):
            raise ValueError(f"client must be a mapping, not {client!r}")
        _check_keys("client", client, ClientConfig)
        return cls(**data, client=ClientConfig(**client))

    @classmethod
    def from_yaml(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ValueError("run config must be a mapping")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return out

    def opponents_for(self, scenario: str) -> list[str]:
        return list(self.opponents) if self.opponents else list(list_builtin(scenario))


def episode_seed(run_seed: int, scenario: str, matchup: str, repeat: int, episode: int) -> int:
    text = f"{run_seed}:{scenario}:{matchup}:{repeat}:{episode}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_system(spec: str, scenario: str, client_factory: Callable, seed: int = 0):
    if spec == "tacticrafter":
        return TactiCrafterSystem(client_factory())
    if spec == "cot":
        return CoTTeamSystem(client_factory())
    if spec == "random":
        return RandomTeamSystem(seed)
    if spec.startswith("builtin:"):
        return BuiltinTeamSystem(builtin(spec.split(":", 1)[1], scenario))
    raise ValueError(f"unknown system spec {spec!r}")


# -- calibration ------------------------------------------------------------


def _rules_text(config: ScenarioConfig) -> str:
    """The scenario's rule constants as JSON with every dict and set sorted,
    so the text is the same under any ``PYTHONHASHSEED``."""
    return json.dumps(
        {
            "duration_ticks": config.duration_ticks,
            "wait_ticks": config.wait_ticks,
            "recipes": {name: dataclasses.asdict(r) for name, r in config.recipes.items()},
            "smelt_map": config.smelt_map,
            "food_points": config.food_points,
            "regrow": dataclasses.asdict(config.regrow),
            "report_scale": config.report_scale,
            "primitives": sorted(config.primitive_table.available),
        },
        sort_keys=True,
    )


def _calibration_key(config: ScenarioConfig, opponent: str, run_seed: int) -> str:
    """``scenario:opponent:run_seed:sha256`` over the code version, the
    scenario's rule constants, the text of every script the opponent and
    the idle red side run, and the layout's initial world state."""
    h = hashlib.sha256(__version__.encode())
    h.update(_rules_text(config).encode())
    for name in (opponent, "do_nothing"):
        for script in builtin(name, config.name).scripts:
            for asset in (script.primary, *script.prologues, script.fallback):
                if asset is not None:
                    h.update(f"\0{asset}\0{script_text(asset)}".encode())
    h.update(new_world(config.layout, 0).state_hash().encode())
    return f"{config.name}:{opponent}:{run_seed}:{h.hexdigest()}"


def calibrate_sigma(
    scenario: str,
    opponent: str,
    run_seed: int = 0,
    cache_path: Optional[str | Path] = None,
) -> float:
    """Blue opponent's mean reported score over exactly 20 episodes with a
    do-nothing red side; cached under ``_calibration_key``."""
    config = get_scenario(scenario)
    key = _calibration_key(config, opponent, run_seed)
    cache: dict[str, float] = {}
    if cache_path is not None and Path(cache_path).exists():
        cache = json.loads(Path(cache_path).read_text())
        if key in cache:
            return cache[key]
    blue = BuiltinTeamSystem(builtin(opponent, scenario))
    total = 0.0
    for episode in range(CALIBRATION_EPISODES):
        seed = episode_seed(run_seed, scenario, f"calibrate:{opponent}", 0, episode)
        red = BuiltinTeamSystem(builtin("do_nothing", scenario))
        result = run_episode(config, {"red": red, "blue": blue}, seed)
        total += result.reported["blue"]
    sigma = total / CALIBRATION_EPISODES
    if cache_path is not None:
        cache[key] = sigma
        Path(cache_path).parent.mkdir(parents=True, exist_ok=True)
        Path(cache_path).write_text(json.dumps(cache, indent=2, sort_keys=True))
    return sigma


# -- run folder bookkeeping --------------------------------------------------


def _episode_row(
    scenario: str, red: str, blue: str, repeat: int, episode: int, result: EpisodeResult
) -> dict:
    return {
        "scenario": scenario,
        "red": red,
        "blue": blue,
        "repeat": repeat,
        "episode": episode,
        "seed": result.seed,
        "ticks": result.ticks,
        "scores": result.scores,
        "reported": result.reported,
        "winner": result.winner,
        "first_score_tick": result.first_score_tick,
        "wall_seconds": result.wall_seconds,
        "timelines": {t: list(map(list, tl)) for t, tl in result.timelines.items()},
        "chat": [[e.tick, e.sender, str(e.payload)] for e in result.chat_log],
        "disabled": result.disabled_teams,
    }


class RunFolder:
    """Owns one unique output directory and flushes artifacts per episode."""

    def __init__(self, base: str | Path, name: Optional[str] = None) -> None:
        stamp = name or time.strftime("run-%Y%m%d-%H%M%S")
        self.path = Path(base) / stamp
        suffix = 0
        while self.path.exists():
            suffix += 1
            self.path = Path(base) / f"{stamp}-{suffix}"
        (self.path / "episodes").mkdir(parents=True)

    def write_config(self, config: RunConfig) -> None:
        (self.path / "config.json").write_text(json.dumps(config.to_dict(), indent=2))

    def write_episode(self, row: dict) -> Path:
        name = f"{row['scenario']}_{row['blue']}_r{row['repeat']}_e{row['episode']}.json"
        target = self.path / "episodes" / name
        target.write_text(json.dumps(row, indent=2))
        return target

    def append_transcripts(self, context: dict, calls: list) -> None:
        """One ``transcripts.jsonl`` line per model call, keyed by ``context``."""
        if not calls:
            return
        with open(self.path / "transcripts.jsonl", "a") as fh:
            for c in calls:
                row = {**context, "purpose": c.purpose, "t_resp": c.t_resp, "n_out": c.n_out,
                       "request": c.request_text, "response": c.response_text}
                fh.write(json.dumps(row) + "\n")

    def write_json(self, name: str, data) -> None:
        (self.path / name).write_text(json.dumps(data, indent=2, sort_keys=True))


def _drain_calls(system) -> list:
    """Take the model-call records of ``system``'s client, leaving it none:
    each record holds a full prompt, so none may outlive its episode."""
    calls = getattr(getattr(system, "client", None), "calls", None)
    if not calls:
        return []
    taken = list(calls)
    calls.clear()
    return taken


# -- the benchmark ----------------------------------------------------------


@dataclass
class BenchmarkOutput:
    run_dir: Path
    report: MetricsReport
    episodes: list[dict]
    failed_matchups: list[str]


def play_repeat(
    config: RunConfig, scenario_config: ScenarioConfig, opponent: str, repeat: int
) -> Iterator[tuple[int, TeamSystem, EpisodeResult]]:
    """Play one repeat of the red system against a builtin ``opponent``,
    yielding ``(episode, red, result)`` after each episode.  One fresh red
    system plays every episode, so it learns between them; ``run_benchmark``
    and ``tacticbench replay`` both play through here."""
    scenario = scenario_config.name
    red = make_system(config.red_system, scenario, config.client.build, config.seed + repeat)
    blue = BuiltinTeamSystem(builtin(opponent, scenario))
    for episode in range(config.episodes):
        seed = episode_seed(config.seed, scenario, opponent, repeat, episode)
        yield episode, red, run_episode(scenario_config, {"red": red, "blue": blue}, seed)


def run_benchmark(config: RunConfig, folder_name: Optional[str] = None) -> BenchmarkOutput:
    folder = RunFolder(config.output_dir, folder_name)
    folder.write_config(config)
    rows: list[dict] = []
    failed: list[str] = []
    sigmas: dict[tuple[str, str], float] = {}
    calibration_path = folder.path / "calibration.json"
    for scenario in config.scenarios:
        scenario_config = get_scenario(scenario)
        for opponent in config.opponents_for(scenario):
            sigmas[scenario, opponent] = calibrate_sigma(scenario, opponent, config.seed, calibration_path)
            try:
                for repeat in range(config.repeats):
                    for episode, red, result in play_repeat(config, scenario_config, opponent, repeat):
                        row = _episode_row(scenario, config.red_system, opponent, repeat, episode, result)
                        rows.append(row)
                        folder.write_episode(row)
                        folder.append_transcripts(
                            {"scenario": scenario, "blue": opponent, "repeat": repeat, "episode": episode},
                            _drain_calls(red),
                        )
            except Exception as exc:  # a broken matchup must not sink the run
                # its finished episodes stay in the rows, and so in the report
                failed.append(f"{scenario}/{config.red_system}-vs-{opponent}: {exc}")
    report = report_from_rows(rows, sigmas)
    from . import export  # it imports this module, and numpy

    export.export_all(folder.path, rows, report)
    if failed:
        folder.write_json("failed_matchups.json", failed)
    return BenchmarkOutput(folder.path, report, rows, failed)


# -- protocols --------------------------------------------------------------


def _evaluate(
    config: RunConfig, scenario_config: ScenarioConfig, red: TeamSystem,
    opponent: str, sigma: float, label: str, repeat: int = 0,
) -> MetricValues:
    """One episode of ``red`` against the builtin ``opponent``, seeded by
    ``label``, with its model calls dropped."""
    blue = BuiltinTeamSystem(builtin(opponent, scenario_config.name))
    seed = episode_seed(config.seed, scenario_config.name, label, repeat, 0)
    result = run_episode(scenario_config, {"red": red, "blue": blue}, seed)
    _drain_calls(red)
    return metric_values([result.reported["red"]], [result.reported["blue"]], sigma)


def adaptation_protocol(config: RunConfig, episodes_per_opponent: Optional[int] = None) -> dict:
    """Train vs each opponent, checkpoint, then evaluate the checkpoint for
    one episode against every opponent; aggregate Same vs Different cells."""
    train_n = episodes_per_opponent or config.episodes
    cells: dict[str, dict[str, list[MetricValues]]] = {}
    for scenario in config.scenarios:
        scenario_config = get_scenario(scenario)
        opponents = config.opponents_for(scenario)
        sigmas = {o: calibrate_sigma(scenario, o, config.seed) for o in opponents}
        cells[scenario] = {"Same": [], "Different": []}
        for repeat in range(config.repeats):
            for trained_on in opponents:
                red = make_system(config.red_system, scenario, config.client.build, config.seed)
                blue = BuiltinTeamSystem(builtin(trained_on, scenario))
                for episode in range(train_n):
                    seed = episode_seed(config.seed, scenario, f"adapt:{trained_on}", repeat, episode)
                    run_episode(scenario_config, {"red": red, "blue": blue}, seed)
                    _drain_calls(red)
                checkpoint = checkpoint_save(red) if isinstance(red, TactiCrafterSystem) else None
                for evaluated_on in opponents:
                    evaluator = red if checkpoint is None else checkpoint_load(checkpoint, config.client.build())
                    values = _evaluate(config, scenario_config, evaluator, evaluated_on, sigmas[evaluated_on],
                                       f"adapt-eval:{trained_on}:{evaluated_on}", repeat)
                    cells[scenario]["Same" if evaluated_on == trained_on else "Different"].append(values)
    cells["Avg"] = {
        kind: [v for scenario in config.scenarios for v in cells[scenario][kind]]
        for kind in ("Same", "Different")
    }
    table: dict[str, dict[str, dict[str, float]]] = {}
    for name, kinds in cells.items():
        table[name] = {}
        for kind, values in kinds.items():
            v = mean_values(values)
            table[name][kind] = {"P": v.P, "S": v.S, "D": v.D, "W": v.W}
    return table


def self_play_protocol(
    config: RunConfig,
    total_episodes: int = 20,
    checkpoint_every: int = 5,
) -> dict:
    """Self-play with periodic checkpoints, each evaluated one episode
    against every built-in opponent."""
    out: dict[str, dict] = {}
    for scenario in config.scenarios:
        scenario_config = get_scenario(scenario)
        opponents = config.opponents_for(scenario)
        sigmas = {o: calibrate_sigma(scenario, o, config.seed) for o in opponents}
        red = make_system(config.red_system, scenario, config.client.build, config.seed)
        blue = make_system(config.red_system, scenario, config.client.build, config.seed + 1)
        scores = {"red": [], "blue": []}
        checkpoints: list[tuple[int, object]] = []
        for episode in range(total_episodes):
            seed = episode_seed(config.seed, scenario, "selfplay", 0, episode)
            result = run_episode(scenario_config, {"red": red, "blue": blue}, seed)
            _drain_calls(red)
            _drain_calls(blue)
            scores["red"].append(result.reported["red"])
            scores["blue"].append(result.reported["blue"])
            if (episode + 1) % checkpoint_every == 0 and isinstance(red, TactiCrafterSystem):
                checkpoints.append((episode + 1, checkpoint_save(red)))
        evaluations = []
        for after, checkpoint in checkpoints:
            results = [
                {"opponent": opponent, **dataclasses.asdict(_evaluate(
                    config, scenario_config, checkpoint_load(checkpoint, config.client.build()),
                    opponent, sigmas[opponent], f"selfplay-eval:{after}:{opponent}",
                ))}
                for opponent in opponents
            ]
            evaluations.append({"after_episode": after, "results": results})
        out[scenario] = {"scores": scores, "evaluations": evaluations}
    return out
