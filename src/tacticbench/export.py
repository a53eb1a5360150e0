"""CSV and plot-data export for benchmark runs.

Outputs per run folder:
  matchup_matrix.csv   one row per red-vs-blue matchup with P/S/D/W
  timeline_<scenario>.csv  mean red points per tick per blue opponent with
                           a confidence band (alpha = 0.05, normal approx)
  metrics_summary.json  matchup and aggregate metrics
  metrics_summary.csv   the rows of matchup_matrix.csv
"""
from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from .metrics import MatchupMetrics, MetricsReport, metric_values

CONFIDENCE_ALPHA = 0.05
_Z = 1.959963984540054  # two-sided normal quantile for alpha = 0.05


def write_matchup_matrix(path: Path, report: MetricsReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "red", "blue", "n_episodes", "P", "S", "D", "W"])
        for m in report.matchups:
            v = m.values
            writer.writerow(
                [m.scenario, m.red, m.blue, v.n_episodes,
                 f"{v.P:.6g}", f"{v.S:.6g}", f"{v.D:.6g}", f"{v.W:.6g}"]
            )


def write_metrics_summary(run_dir: Path, report: MetricsReport) -> None:
    data = {
        "matchups": [
            {
                "scenario": m.scenario,
                "red": m.red,
                "blue": m.blue,
                "n_episodes": m.values.n_episodes,
                "P": m.values.P,
                "S": m.values.S,
                "D": m.values.D,
                "W": m.values.W,
            }
            for m in report.matchups
        ],
    }
    aggregate = report.aggregate()
    if aggregate is not None:
        data["aggregate"] = {
            "P": aggregate.P,
            "S": aggregate.S,
            "D": aggregate.D,
            "W": aggregate.W,
            "n_episodes": aggregate.n_episodes,
        }
    (run_dir / "metrics_summary.json").write_text(json.dumps(data, indent=2, sort_keys=True))
    write_matchup_matrix(run_dir / "metrics_summary.csv", report)


def _points_per_tick(timeline: list[list[int]], ticks: int) -> np.ndarray:
    series = np.zeros(ticks, dtype=float)
    for tick, points in timeline:
        if tick < ticks:
            series[tick:] = points
    return series


def write_timelines(run_dir: Path, rows: list[dict]) -> None:
    by_scenario: dict[str, dict[str, list[np.ndarray]]] = defaultdict(lambda: defaultdict(list))
    ticks_by_scenario: dict[str, int] = {}
    for row in rows:
        ticks = int(row.get("ticks", 2400))
        ticks_by_scenario[row["scenario"]] = ticks
        series = _points_per_tick(row["timelines"]["red"], ticks)
        by_scenario[row["scenario"]][row["blue"]].append(series)
    for scenario, opponents in sorted(by_scenario.items()):
        ticks = ticks_by_scenario[scenario]
        with open(run_dir / f"timeline_{scenario}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["opponent", "tick", "mean", "lo", "hi"])
            for opponent, all_series in sorted(opponents.items()):
                stack = np.vstack(all_series)
                mean = stack.mean(axis=0)
                if stack.shape[0] > 1:
                    half = _Z * stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
                else:
                    half = np.zeros(ticks)
                for tick in range(ticks):
                    writer.writerow(
                        [opponent, tick, f"{mean[tick]:.6g}",
                         f"{mean[tick] - half[tick]:.6g}", f"{mean[tick] + half[tick]:.6g}"]
                    )


def export_all(run_dir: Path, rows: list[dict], report: MetricsReport) -> None:
    run_dir = Path(run_dir)
    write_matchup_matrix(run_dir / "matchup_matrix.csv", report)
    write_metrics_summary(run_dir, report)
    write_timelines(run_dir, rows)


def load_episode_rows(run_dir: Path) -> list[dict]:
    rows = [
        json.loads(p.read_text()) for p in sorted((Path(run_dir) / "episodes").glob("*.json"))
    ]
    if not rows:
        raise FileNotFoundError(f"no episode records under {run_dir}/episodes")
    return rows


def rebuild_report(run_dir: Path, rows: list[dict]) -> MetricsReport:
    """Recompute matchup metrics from stored episodes and the cached
    calibration table (missing sigma entries fall back to 0)."""
    calibration: dict[str, float] = {}
    calib_path = Path(run_dir) / "calibration.json"
    if calib_path.exists():
        calibration = json.loads(calib_path.read_text())
    grouped: dict[tuple[str, str, str], list[dict]] = defaultdict(list)
    for row in rows:
        grouped[(row["scenario"], row["red"], row["blue"])].append(row)
    report = MetricsReport()
    for (scenario, red, blue), group in sorted(grouped.items()):
        sigma = next(
            (v for k, v in calibration.items() if k.startswith(f"{scenario}:{blue}:")), 0.0
        )
        values = metric_values(
            [r["reported"]["red"] for r in group],
            [r["reported"]["blue"] for r in group],
            sigma,
        )
        report.matchups.append(MatchupMetrics(scenario, red, blue, values))
    return report


def export_run(run_dir: str | Path) -> MetricsReport:
    """Regenerate every CSV artifact of an existing run folder."""
    run_dir = Path(run_dir)
    rows = load_episode_rows(run_dir)
    report = rebuild_report(run_dir, rows)
    export_all(run_dir, rows, report)
    return report
