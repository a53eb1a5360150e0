"""The performance benchmark in ``perfbench/`` measures the package from
outside: it wraps functions at the names their callers bind and class
methods through the class ``__dict__``.  Installing its tracer and episode
recorder here makes a refactor that unbinds one of those names fail in the
test suite rather than in a benchmark run."""
from __future__ import annotations

import time
from pathlib import Path

import tacticbench.bench as tb_bench
import tacticbench.runner as tb_runner
from tacticbench.agents import TactiCrafterSystem, make_mock_client
from tacticbench.opponents import BuiltinTeamSystem, builtin
from tacticbench.scenarios import get_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_patch_points_install_trace_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from spans import Tracer

    originals = (tb_runner.execute, tb_runner.new_world, tb_bench.run_episode)
    tracer = Tracer(time.perf_counter)
    recorder = workloads.EpisodeRecorder()
    layers.install(tracer)
    try:
        recorder.install()
        try:
            systems = {
                "red": TactiCrafterSystem(make_mock_client()),
                "blue": BuiltinTeamSystem(builtin("passive", "mushroom_war")),
            }
            # the second episode's pre-game renders the first one's history
            for seed in (0, 1):
                tb_bench.run_episode(
                    get_scenario("mushroom_war", duration_ticks=300), systems, seed
                )
        finally:
            recorder.restore()
    finally:
        tracer.restore()

    assert (tb_runner.execute, tb_runner.new_world, tb_bench.run_episode) == originals
    assert len(recorder.episodes) == 2
    for episode in recorder.episodes:
        assert not episode.failed and episode.model_calls > 0
    totals = tracer.totals()
    for span in ("agents.pre_game", "agents.next_request", "agents.post_game",
                 "agents.dedup", "agents.render",
                 "opponents.next_request", "actionlang.parse_source", "actionlang.validate",
                 "world.observe", "primitives.execute"):
        assert totals[span][0] > 0, span
    assert tracer.counts["agents.chat.calls.program"] > 0
    assert tracer.counts["agents.dedup.events_in"] > 0
    # every regeneration dedups its agent's log through the traced name
    assert 0 < tracer.counts["agents.regenerations"] <= totals["agents.dedup"][0]
