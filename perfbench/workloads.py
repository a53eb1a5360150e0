"""The benchmark's workloads and the per-episode record they are checked by.

A workload turns a run seed into a fixed list of matchups and episode
seeds (its inputs), plays one pass over them, and reduces every episode to
a digest: the raw scores, a sha256 of the chat log, the final
``WorldState.state_hash()`` and a sha256 of the prompts the red system sent
to its model.  Passes of one workload and seed repeat the
same work, so each pass is compared against the same golden entry.

Run seeds are taken modulo ``POOL_SIZE`` so that every seed the benchmark
can be given has a committed golden digest.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import tacticbench.bench as tb_bench
import tacticbench.runner as tb_runner
from tacticbench.agents import TactiCrafterSystem, make_mock_client
from tacticbench.opponents import BuiltinTeamSystem, builtin, list_builtin
from tacticbench.scenarios import SCENARIO_NAMES, get_scenario

from speed import SpeedProbe

POOL_SIZE = 16
# Fewer probes than this measure an episode's own speed too roughly: the
# episode takes the scale of its whole pass instead.
EPISODE_PROBES = 50


def pool_seed(seed: int) -> int:
    return seed % POOL_SIZE


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Episode:
    scenario: str
    seed: int
    seconds: float
    digest: Optional[list]  # [score per team..., chat, state, prompt shas]; None if it raised
    failed: bool  # raised or left a disabled team
    model_calls: int
    prompt_chars: int
    scale: Optional[float] = None  # reference seconds per second, from this episode's own probes

    def golden(self) -> list:
        return [self.scenario, self.seed, *(self.digest or [])]


class EpisodeRecorder:
    """Times every episode the harness plays and digests its outcome.

    It wraps ``tacticbench.bench.run_episode`` (the name the harness and
    these workloads call) and ``tacticbench.runner.new_world`` (to reach the
    episode's final world).  With a ``SpeedProbe``, times leave out the
    probes, and an episode long enough for ``EPISODE_PROBES`` probes gets
    its own ``scale``.  Digesting happens after the episode's clock stops;
    ``digest_s`` sums that time so a pass can leave it out.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.probe = probe
        self.clock = probe.clock if probe else perf_counter
        self.episodes: list[Episode] = []
        self.digest_s = 0.0
        self.calls_retained = 0
        self._world = None
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        run_episode, new_world = tb_bench.run_episode, tb_runner.new_world
        self._originals = [(tb_bench, "run_episode", run_episode), (tb_runner, "new_world", new_world)]

        def capture_world(layout, seed):
            self._world = new_world(layout, seed)
            return self._world

        def recorded(config, systems, seed, *args, **kwargs):
            calls = getattr(getattr(systems.get("red"), "client", None), "calls", [])
            before = len(calls)
            clock, probe = self.clock, self.probe
            since = probe.mark() if probe else None
            start = clock()
            try:
                result = run_episode(config, systems, seed, *args, **kwargs)
            except Exception:
                self.episodes.append(Episode(config.name, seed, clock() - start, None, True, 0, 0))
                raise
            seconds = clock() - start
            scale = None
            if probe and probe.count - since[1] >= EPISODE_PROBES:
                scale = probe.scale(since)
            self._record(config.name, seed, seconds, scale, result, calls[before:])
            self.calls_retained = max(self.calls_retained, len(calls))
            self.digest_s += clock() - start - seconds
            return result

        tb_bench.run_episode = recorded
        tb_runner.new_world = capture_world

    def restore(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def _record(self, scenario: str, seed: int, seconds: float, scale, result, calls) -> None:
        chat = "".join(f"{e.tick}\t{e.sender}\t{e.payload}\n" for e in result.chat_log)
        digest = [result.scores[t] for t in sorted(result.scores)]
        prompts = hashlib.sha256()
        for c in calls:  # one prompt at a time: a joined copy would raise peak RSS
            prompts.update(c.request_text.encode() + b"\0")
        digest += [_sha16(chat), self._world.state_hash()[:16], prompts.hexdigest()[:16]]
        self.episodes.append(Episode(
            scenario, seed, seconds, digest, bool(result.disabled_teams),
            len(calls), sum(len(c.request_text) for c in calls), scale,
        ))


def _play(config, systems: dict, seed: int) -> None:
    try:
        tb_bench.run_episode(config, systems, seed)
    except Exception:  # recorded as a failed episode; the pass goes on
        pass


class BuiltinRoundRobin:
    """Every ordered pair of builtins in each scenario, one episode each."""

    name = "builtin_round_robin"

    def __init__(self, run_seed: int) -> None:
        configs = {scenario: get_scenario(scenario) for scenario in SCENARIO_NAMES}
        self.episodes = [
            (configs[scenario], scenario, red, blue,
             tb_bench.episode_seed(run_seed, scenario, f"{red}-vs-{blue}", 0, 0))
            for scenario in SCENARIO_NAMES
            for red in list_builtin(scenario)
            for blue in list_builtin(scenario)
        ]

    def run_pass(self):
        for config, scenario, red, blue, seed in self.episodes:
            systems = {
                "red": BuiltinTeamSystem(builtin(red, scenario)),
                "blue": BuiltinTeamSystem(builtin(blue, scenario)),
            }
            _play(config, systems, seed)

    def artifacts(self, state) -> tuple[dict, int]:
        return {}, 0


class TactiCrafterLongHistory:
    """TactiCrafter on the mock client keeps one system per matchup for
    several episodes, so between-episode updates read a long previous log."""

    name = "tacticrafter_long_history"
    MATCHUPS = (("mushroom_war", "slimy"), ("dash_and_dine", "cake_beetroot"))
    EPISODES = 2

    def __init__(self, run_seed: int) -> None:
        self.matchups = [
            (get_scenario(scenario), scenario, opponent,
             [tb_bench.episode_seed(run_seed, scenario, f"long:{opponent}", 0, e)
              for e in range(self.EPISODES)])
            for scenario, opponent in self.MATCHUPS
        ]

    def run_pass(self):
        for config, scenario, opponent, seeds in self.matchups:
            systems = {
                "red": TactiCrafterSystem(make_mock_client()),
                "blue": BuiltinTeamSystem(builtin(opponent, scenario)),
            }
            for seed in seeds:
                _play(config, systems, seed)

    def artifacts(self, state) -> tuple[dict, int]:
        return {}, 0


class MockRun:
    """``run_benchmark`` with TactiCrafter on the mock client: uncached
    calibration, episode files, transcripts and CSV export in a temp dir."""

    name = "mock_run"
    RUNS = (
        ("dash_and_dine", ("do_nothing", "berries", "melon_pumpkin")),
        ("mushroom_war", ("do_nothing",)),
    )

    def __init__(self, run_seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.configs = [
            tb_bench.RunConfig(
                scenarios=[scenario], opponents=list(opponents), episodes=1, repeats=1,
                seed=run_seed, red_system="tacticrafter",
            )
            for scenario, opponents in self.RUNS
        ]
        self.transcript_bytes = 0

    def run_pass(self):
        self.scratch.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        outputs = []
        for config in self.configs:
            config.output_dir = str(tmp)
            outputs.append(tb_bench.run_benchmark(config))
        return tmp, outputs

    def artifacts(self, state) -> tuple[dict, int]:
        tmp, outputs = state
        transcripts = hashlib.sha256()
        rows = hashlib.sha256()
        failed = 0
        self.transcript_bytes = 0
        for out in outputs:
            path = out.run_dir / "transcripts.jsonl"
            data = path.read_bytes() if path.exists() else b""
            self.transcript_bytes += len(data)
            transcripts.update(data)
            for row in out.episodes:
                row = {k: v for k, v in row.items() if k != "wall_seconds"}
                rows.update(json.dumps(row, sort_keys=True).encode())
            failed += len(out.failed_matchups)
        shutil.rmtree(tmp)
        return {"transcripts": transcripts.hexdigest()[:16], "rows": rows.hexdigest()[:16]}, failed


def baseline_calls() -> list[tuple[str, str, int, int]]:
    """(scenario, opponent, model calls, regenerations) of one TactiCrafter
    episode at seed 0: the reference episodes for the call-count baseline."""
    out = []
    for scenario, opponent in (("mushroom_war", "passive"), ("dash_and_dine", "do_nothing")):
        red = TactiCrafterSystem(make_mock_client())
        systems = {"red": red, "blue": BuiltinTeamSystem(builtin(opponent, scenario))}
        tb_runner.run_episode(get_scenario(scenario), systems, 0)
        critiques = sum(c.purpose == "critic" for c in red.client.calls)
        out.append((scenario, opponent, len(red.client.calls), critiques))
    return out


def make_workload(name: str, run_seed: int, scratch: Path):
    if name == MockRun.name:
        return MockRun(run_seed, scratch)
    for cls in (BuiltinRoundRobin, TactiCrafterLongHistory):
        if cls.name == name:
            return cls(run_seed)
    raise ValueError(f"unknown workload {name!r}")
