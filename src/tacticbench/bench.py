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
import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import yaml

from .agents import CoTTeamSystem, HttpChatClient, TactiCrafterSystem, make_mock_client
from .metrics import MetricValues, MetricsReport, mean_values, metric_values, report_from_rows
from .opponents import BuiltinTeamSystem, RandomTeamSystem, builtin, list_builtin, script_text
from .runner import EpisodeResult, run_episode
from .scenarios import SCENARIO_NAMES, ScenarioConfig, check_keys, get_scenario
from .systems import TeamSystem
from .world import new_world

CALIBRATION_EPISODES = 20
# Every run into one output directory looks its sigmas up here.
CALIBRATION_CACHE = "calibration_cache.json"
DEFAULT_EPISODES = 5
DEFAULT_REPEATS = 3


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
        for scenario in self.scenarios:
            for name in self.opponents or []:
                builtin(name, scenario)  # raises for an opponent the scenario lacks

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        client = data.pop("client", {})
        check_keys("run config", data, cls)
        if not isinstance(client, dict):
            raise ValueError(f"client must be a mapping, not {client!r}")
        check_keys("client", client, ClientConfig)
        return cls(**data, client=ClientConfig(**client))

    @classmethod
    def from_yaml(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ValueError("run config must be a mapping")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

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


@functools.cache
def _code_digest() -> str:
    """sha256 over the package's modules, layouts and ``.act`` scripts, in
    sorted relative-path order: any edit to code an episode may run, even a
    comment, gives a new digest.  Read once per process, on first use."""
    root = Path(__file__).resolve().parent
    files = {
        path.relative_to(root).as_posix(): path
        for path in root.rglob("*")
        if path.suffix in (".py", ".yaml", ".act")
    }
    h = hashlib.sha256()
    for rel in sorted(files):
        data = files[rel].read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _calibration_key(config: ScenarioConfig, opponent: str, run_seed: int) -> str:
    """``scenario:opponent:run_seed:sha256`` over the package code
    (``_code_digest``), the scenario's rule constants, the text of every
    script the opponent and the idle red side run, and the layout's initial
    world state."""
    h = hashlib.sha256(_code_digest().encode())
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
    red = BuiltinTeamSystem(builtin("do_nothing", scenario))
    blue = BuiltinTeamSystem(builtin(opponent, scenario))
    total = 0.0
    label = f"calibrate:{opponent}"
    for _, result, _ in play(config, red, blue, run_seed, label, episodes=CALIBRATION_EPISODES):
        total += result.reported["blue"]  # in episode order: the sigma's last digit depends on it
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


def play(
    scenario_config: ScenarioConfig, red: TeamSystem, blue: TeamSystem,
    run_seed: int, label: str, repeat: int = 0, episodes: int = 1,
) -> Iterator[tuple[int, EpisodeResult, list]]:
    """The harness's one episode loop: ``red`` plays ``blue`` (both persist,
    so they learn between episodes) for ``episodes`` episodes seeded by
    ``episode_seed(run_seed, scenario, label, repeat, episode)``, yielding
    ``(episode, result, red_calls)`` after each.  It takes the call records
    off both clients first: each holds a full prompt, so none may outlive
    its episode.  ``run_episode`` is read from this module each time, so a
    patch of ``bench.run_episode`` sees every episode."""
    scenario = scenario_config.name
    systems = {"red": red, "blue": blue}
    for episode in range(episodes):
        seed = episode_seed(run_seed, scenario, label, repeat, episode)
        result = run_episode(scenario_config, systems, seed)
        taken = []
        for system in (red, blue):
            calls = getattr(getattr(system, "client", None), "calls", None) or []
            taken.append(calls[:])
            calls.clear()
        yield episode, result, taken[0]


# -- the benchmark ----------------------------------------------------------


@dataclass
class BenchmarkOutput:
    run_dir: Path
    report: MetricsReport
    episodes: list[dict]
    failed_matchups: list[str]


def play_repeat(
    config: RunConfig, scenario_config: ScenarioConfig, opponent: str, repeat: int
) -> Iterator[tuple[int, EpisodeResult, list]]:
    """``play`` for one repeat of a fresh red system against a builtin
    ``opponent``; ``run_benchmark`` and ``tacticbench replay`` both play
    through here."""
    scenario = scenario_config.name
    red = make_system(config.red_system, scenario, config.client.build, config.seed + repeat)
    blue = BuiltinTeamSystem(builtin(opponent, scenario))
    return play(scenario_config, red, blue, config.seed, opponent, repeat, config.episodes)


def run_benchmark(config: RunConfig, folder_name: Optional[str] = None) -> BenchmarkOutput:
    folder = RunFolder(config.output_dir, folder_name)
    folder.write_config(config)
    rows: list[dict] = []
    failed: list[str] = []
    sigmas: dict[tuple[str, str], float] = {}
    used: dict[str, float] = {}  # this folder's calibration.json
    cache = Path(config.output_dir) / CALIBRATION_CACHE
    for scenario in config.scenarios:
        scenario_config = get_scenario(scenario)
        for opponent in config.opponents_for(scenario):
            sigma = calibrate_sigma(scenario, opponent, config.seed, cache)
            sigmas[scenario, opponent] = sigma
            used[_calibration_key(scenario_config, opponent, config.seed)] = sigma
            folder.write_json("calibration.json", used)
            try:
                for repeat in range(config.repeats):
                    for episode, result, calls in play_repeat(config, scenario_config, opponent, repeat):
                        row = _episode_row(scenario, config.red_system, opponent, repeat, episode, result)
                        rows.append(row)
                        folder.write_episode(row)
                        folder.append_transcripts(
                            {"scenario": scenario, "blue": opponent, "repeat": repeat, "episode": episode},
                            calls,
                        )
            except Exception as exc:  # a broken matchup must not sink the run
                # its finished episodes stay in the rows, and so in the report
                failed.append(f"{scenario}/{config.red_system}-vs-{opponent}: {exc}")
    report = report_from_rows(rows, sigmas)
    from . import export  # it imports this module

    export.export_all(folder.path, rows, report)
    if failed:
        folder.write_json("failed_matchups.json", failed)
    return BenchmarkOutput(folder.path, report, rows, failed)


# -- protocols --------------------------------------------------------------


def _evaluate(
    config: RunConfig, scenario_config: ScenarioConfig, snapshot,
    opponent: str, sigma: float, label: str, repeat: int = 0,
) -> MetricValues:
    """One episode of a fresh red system restored from ``snapshot`` against
    the builtin ``opponent``, seeded by ``label``, with its model calls
    dropped; no evaluation carries into another."""
    scenario = scenario_config.name
    red = make_system(config.red_system, scenario, config.client.build, config.seed)
    red.restore(snapshot)
    blue = BuiltinTeamSystem(builtin(opponent, scenario))
    ((_, result, _),) = play(scenario_config, red, blue, config.seed, label, repeat)
    return metric_values([result.reported["red"]], [result.reported["blue"]], sigma)


def adaptation_protocol(config: RunConfig, episodes_per_opponent: Optional[int] = None) -> dict:
    """Train vs each opponent, snapshot, then evaluate the snapshot for
    one episode against every opponent; aggregate Same vs Different cells,
    each with its ``n_episodes`` (a cell with none is null)."""
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
                training = play(scenario_config, red, blue, config.seed, f"adapt:{trained_on}", repeat, train_n)
                for _ in training:
                    pass
                snapshot = red.snapshot()
                for evaluated_on in opponents:
                    values = _evaluate(config, scenario_config, snapshot, evaluated_on, sigmas[evaluated_on],
                                       f"adapt-eval:{trained_on}:{evaluated_on}", repeat)
                    cells[scenario]["Same" if evaluated_on == trained_on else "Different"].append(values)
    cells["Avg"] = {
        kind: [v for scenario in config.scenarios for v in cells[scenario][kind]]
        for kind in ("Same", "Different")
    }
    return {
        name: {kind: _cell(values) for kind, values in kinds.items()}
        for name, kinds in cells.items()
    }


def _cell(values: list[MetricValues]) -> dict:
    """An adaptation table cell: the mean metrics and the episodes behind
    them; a cell no episode measured is null, not a loss."""
    if not values:
        return {"P": None, "S": None, "D": None, "W": None, "n_episodes": 0}
    return dataclasses.asdict(mean_values(values))


def self_play_protocol(
    config: RunConfig,
    total_episodes: int = 20,
    checkpoint_every: int = 5,
) -> dict:
    """Self-play with a snapshot of red every ``checkpoint_every``
    episodes, each evaluated one episode against every built-in opponent."""
    out: dict[str, dict] = {}
    for scenario in config.scenarios:
        scenario_config = get_scenario(scenario)
        opponents = config.opponents_for(scenario)
        sigmas = {o: calibrate_sigma(scenario, o, config.seed) for o in opponents}
        red = make_system(config.red_system, scenario, config.client.build, config.seed)
        blue = make_system(config.red_system, scenario, config.client.build, config.seed + 1)
        scores = {"red": [], "blue": []}
        snapshots = []
        plays = play(scenario_config, red, blue, config.seed, "selfplay", 0, total_episodes)
        for episode, result, _ in plays:
            scores["red"].append(result.reported["red"])
            scores["blue"].append(result.reported["blue"])
            if (episode + 1) % checkpoint_every == 0:
                snapshots.append((episode + 1, red.snapshot()))
        evaluations = []
        for after, snapshot in snapshots:
            results = [
                {"opponent": opponent, **dataclasses.asdict(_evaluate(
                    config, scenario_config, snapshot, opponent, sigmas[opponent],
                    f"selfplay-eval:{after}:{opponent}",
                ))}
                for opponent in opponents
            ]
            evaluations.append({"after_episode": after, "results": results})
        out[scenario] = {"scores": scores, "evaluations": evaluations}
    return out
