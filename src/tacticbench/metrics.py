"""Benchmark metrics.

Per matchup of N_e episodes, from the red team's perspective:
  P = mean red score
  S = sigma_blue - mean blue score   (points denied vs the blue side's
      unopposed baseline)
  D = mean (red - blue) score difference
  W = mean win indicator, draws worth 0.5
Scores enter these formulas after scenario report scaling.
``report_from_rows`` is the one reduction from episode rows to matchup
metrics; ``tacticbench run`` and ``tacticbench export`` both go through it.

Response-time statistics are averaged per call: R_tps is the mean of
per-response token rates, not total tokens over total time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class MetricValues:
    P: float
    S: float
    D: float
    W: float
    n_episodes: int


def metric_values(
    s_red: Sequence[float], s_blue: Sequence[float], sigma_blue: float
) -> MetricValues:
    if len(s_red) != len(s_blue) or not s_red:
        raise ValueError("need equal-length, non-empty score lists")
    wins = [1.0 if r > b else (0.5 if r == b else 0.0) for r, b in zip(s_red, s_blue)]
    return MetricValues(
        P=mean(s_red),
        S=sigma_blue - mean(s_blue),
        D=mean(r - b for r, b in zip(s_red, s_blue)),
        W=mean(wins),
        n_episodes=len(s_red),
    )


@dataclass
class MatchupMetrics:
    scenario: str
    red: str
    blue: str
    values: MetricValues

    @property
    def blue_values(self) -> MetricValues:
        """The same matchup from blue's side: D flips sign, W complements."""
        v = self.values
        return MetricValues(P=v.P, S=v.S, D=-v.D, W=1.0 - v.W, n_episodes=v.n_episodes)


@dataclass
class MetricsReport:
    matchups: list[MatchupMetrics] = field(default_factory=list)

    def aggregate(self) -> Optional[MetricValues]:
        return mean_values([m.values for m in self.matchups]) if self.matchups else None


def mean_values(values: Sequence[MetricValues]) -> MetricValues:
    """Field-wise mean of ``values``, with ``n_episodes`` their total.  No
    values raise ``statistics.StatisticsError``: an unmeasured mean is not
    a zero."""
    return MetricValues(
        P=mean(v.P for v in values),
        S=mean(v.S for v in values),
        D=mean(v.D for v in values),
        W=mean(v.W for v in values),
        n_episodes=sum(v.n_episodes for v in values),
    )


def report_from_rows(
    rows: Iterable[dict], sigmas: Mapping[tuple[str, str], float]
) -> MetricsReport:
    """One matchup per ``(scenario, red, blue)`` of the episode rows, in the
    order the rows first name it; ``sigmas`` maps ``(scenario, blue)`` to
    the blue side's calibrated baseline."""
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["scenario"], row["red"], row["blue"]), []).append(row)
    return MetricsReport([
        MatchupMetrics(scenario, red, blue, metric_values(
            [r["reported"]["red"] for r in group],
            [r["reported"]["blue"] for r in group],
            sigmas[scenario, blue],
        ))
        for (scenario, red, blue), group in groups.items()
    ])


@dataclass(frozen=True)
class LatencyStats:
    n_llm: int
    t_resp: Optional[float]  # mean seconds per response
    n_out: Optional[float]  # mean output tokens per response
    r_tps: Optional[float]  # mean of per-response tokens/second
    iterations: Optional[float]  # mean roll-out iterations per agent
    idle_seconds: Optional[float]  # expected in-game idle: T_resp * (I - 1)


def latency_stats(
    records: Sequence, iteration_counts: Optional[Sequence[int]] = None
) -> LatencyStats:
    """``records`` holds objects with ``t_resp``/``n_out`` (or 2-tuples)."""
    pairs = [
        (r.t_resp, r.n_out) if hasattr(r, "t_resp") else (r[0], r[1]) for r in records
    ]
    if not pairs:
        return LatencyStats(0, None, None, None, None, None)
    t_resp = mean(t for t, _ in pairs)
    n_out = mean(n for _, n in pairs)
    r_tps = mean(n / t for t, n in pairs if t > 0) if any(t > 0 for t, _ in pairs) else None
    iterations = mean(iteration_counts) if iteration_counts else None
    idle = t_resp * (iterations - 1) if iterations is not None else None
    return LatencyStats(
        n_llm=len(pairs),
        t_resp=t_resp,
        n_out=n_out,
        r_tps=r_tps,
        iterations=iterations,
        idle_seconds=idle,
    )
