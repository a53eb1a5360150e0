"""tacticbench: a deterministic team-vs-team gridworld benchmark with an
action-scripting language, scripted opponents, model-driven team systems,
and a metrics harness."""

__version__ = "0.1.0"

from .scenarios import (
    DASH_AND_DINE,
    MUSHROOM_WAR,
    SCENARIO_NAMES,
    ScenarioConfig,
    get_scenario,
)
from .runner import EpisodeResult, build_metadata, run_episode
from .metrics import LatencyStats, MetricValues, latency_stats, metric_values
from .bench import (
    RunConfig,
    adaptation_protocol,
    calibrate_sigma,
    run_benchmark,
    self_play_protocol,
)

__all__ = [
    "__version__",
    "DASH_AND_DINE",
    "MUSHROOM_WAR",
    "SCENARIO_NAMES",
    "ScenarioConfig",
    "get_scenario",
    "EpisodeResult",
    "build_metadata",
    "run_episode",
    "LatencyStats",
    "MetricValues",
    "latency_stats",
    "metric_values",
    "RunConfig",
    "adaptation_protocol",
    "calibrate_sigma",
    "run_benchmark",
    "self_play_protocol",
]
