"""Command-line entry point.

Verbs:
  run        full benchmark from a config file (or defaults)
  calibrate  baseline sigma for a scenario/opponent pair
  adapt      same-vs-different opponent adaptation protocol (prints JSON)
  selfplay   self-play with periodic snapshot evaluations (prints JSON)
  replay     re-run one recorded episode and verify its record
  export     regenerate CSV artifacts from an existing run folder
  opponents  list built-in opponent names per scenario

The model API key, when an HTTP client is configured, is read from the
TACTICBENCH_API_KEY environment variable.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agents.client import API_KEY_ENV
from .bench import (
    RunConfig,
    _episode_row,
    adaptation_protocol,
    calibrate_sigma,
    play_repeat,
    run_benchmark,
    self_play_protocol,
)
from .opponents import list_builtin
from .scenarios import SCENARIO_NAMES, get_scenario


def _load_config(args) -> RunConfig:
    return RunConfig.from_yaml(args.config) if args.config else RunConfig()


def _cmd_run(args) -> int:
    config = _load_config(args)
    if args.output_dir:
        config.output_dir = args.output_dir
    out = run_benchmark(config)
    print(f"run folder: {out.run_dir}")
    for m in out.report.matchups:
        v = m.values
        print(
            f"{m.scenario} {m.red} vs {m.blue}: "
            f"P={v.P:.2f} S={v.S:.2f} D={v.D:.2f} W={v.W:.2f} (n={v.n_episodes})"
        )
    for failure in out.failed_matchups:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if out.failed_matchups else 0


def _cmd_calibrate(args) -> int:
    sigma = calibrate_sigma(args.scenario, args.opponent, args.seed, args.cache)
    print(f"sigma({args.scenario}, {args.opponent}) = {sigma:.4f}")
    return 0


def _cmd_adapt(args) -> int:
    config = _load_config(args)
    table = adaptation_protocol(config)
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


def _cmd_selfplay(args) -> int:
    config = _load_config(args)
    out = self_play_protocol(config, args.episodes, args.checkpoint_every)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_replay(args) -> int:
    episode_path = Path(args.episode)
    row = json.loads(episode_path.read_text())
    run_dir = episode_path.parent.parent
    config = RunConfig.from_dict(json.loads((run_dir / "config.json").read_text()))
    scenario, blue, repeat = row["scenario"], row["blue"], row["repeat"]
    # the repeat's earlier episodes rebuild the red system's learned state
    plays = play_repeat(config, get_scenario(scenario), blue, repeat)
    result = next((result for episode, result, _ in plays if episode == row["episode"]), None)
    if result is None:
        raise ValueError(f"{episode_path.name}: episode {row['episode']} is beyond the run config")
    replayed = _episode_row(scenario, config.red_system, blue, repeat, row["episode"], result)
    replayed = json.loads(json.dumps(replayed))
    fields = sorted(set(row) | set(replayed))
    differ = [k for k in fields if k != "wall_seconds" and row.get(k) != replayed.get(k)]
    print(f"replayed {episode_path.name}: scores={result.scores} winner={result.winner}")
    if differ:
        print(f"MISMATCH against recorded episode in: {', '.join(differ)}")
        return 1
    print("verified: scores match, and so does every other recorded field but wall_seconds")
    return 0


def _cmd_export(args) -> int:
    from .export import export_run

    report = export_run(args.run_dir)
    print(f"exported {len(report.matchups)} matchups to {args.run_dir}")
    return 0


def _cmd_opponents(args) -> int:
    for scenario in SCENARIO_NAMES:
        print(f"{scenario}: {', '.join(list_builtin(scenario))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tacticbench",
        description=f"team-vs-team benchmark harness (API key env var: {API_KEY_ENV})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run the benchmark")
    p.add_argument("--config", help="run config YAML")
    p.add_argument("--output-dir", help="override output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("calibrate", help="compute a baseline sigma")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("opponent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache", help="calibration cache file")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("adapt", help="adaptation protocol; prints its table as JSON")
    p.add_argument("--config", help="run config YAML")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("selfplay", help="self-play protocol; prints its evaluations as JSON")
    p.add_argument("--config", help="run config YAML")
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--checkpoint-every", type=int, default=5)
    p.set_defaults(func=_cmd_selfplay)

    p = sub.add_parser("replay", help="replay a recorded episode")
    p.add_argument("episode", help="path to an episode JSON inside a run folder")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("export", help="regenerate CSVs for a run folder")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("opponents", help="list built-in opponents")
    p.set_defaults(func=_cmd_opponents)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
