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
import math
from collections import defaultdict
from pathlib import Path

from .bench import RunConfig
from .metrics import MetricsReport, report_from_rows

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


def _points_per_tick(timeline: list[list[int]], ticks: int) -> list[float]:
    series = [0.0] * ticks
    for tick, points in timeline:
        if tick < ticks:
            series[tick:] = [float(points)] * (ticks - tick)
    return series


def _band(column: tuple[float, ...]) -> tuple[float, float]:
    """Mean and confidence half-width of one tick's values, summed in row
    order as numpy's ``mean`` and ``std(ddof=1)`` do, so every digit agrees."""
    n = len(column)
    total = 0.0
    for value in column:
        total += value
    mean = total / n
    if n == 1:
        return mean, 0.0
    ss = 0.0
    for value in column:
        d = value - mean
        ss += d * d
    return mean, _Z * math.sqrt(ss / (n - 1)) / math.sqrt(n)


def write_timelines(run_dir: Path, rows: list[dict]) -> None:
    by_scenario: dict[str, dict[str, list[list[float]]]] = defaultdict(lambda: defaultdict(list))
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
                last = None
                for tick, column in enumerate(zip(*all_series)):
                    if column != last:  # the series are step functions: most ticks repeat
                        last = column
                        mean, half = _band(column)
                        cells = [f"{mean:.6g}", f"{mean - half:.6g}", f"{mean + half:.6g}"]
                    writer.writerow([opponent, tick, *cells])


def export_all(run_dir: Path, rows: list[dict], report: MetricsReport) -> None:
    run_dir = Path(run_dir)
    write_matchup_matrix(run_dir / "matchup_matrix.csv", report)
    write_metrics_summary(run_dir, report)
    write_timelines(run_dir, rows)


def load_episode_rows(run_dir: Path) -> list[dict]:
    """The episode rows of a run folder in the order ``run_benchmark``
    produced them: matchups in config order, then repeat, then episode."""
    run_dir = Path(run_dir)
    config = RunConfig.from_dict(json.loads((run_dir / "config.json").read_text()))
    matchups = [(scenario, blue) for scenario in config.scenarios for blue in config.opponents_for(scenario)]
    rows = [json.loads(p.read_text()) for p in (run_dir / "episodes").glob("*.json")]
    if not rows:
        raise FileNotFoundError(f"no episode records under {run_dir}/episodes")
    rows.sort(key=lambda r: (matchups.index((r["scenario"], r["blue"])), r["repeat"], r["episode"]))
    return rows


def export_run(run_dir: str | Path) -> MetricsReport:
    """Rewrite the reports of an existing run folder from its episode rows
    and its calibration cache, byte for byte as ``run`` wrote them."""
    run_dir = Path(run_dir)
    rows = load_episode_rows(run_dir)
    calibration = json.loads((run_dir / "calibration.json").read_text())
    sigmas = {tuple(key.split(":")[:2]): sigma for key, sigma in calibration.items()}
    report = report_from_rows(rows, sigmas)
    export_all(run_dir, rows, report)
    return report
