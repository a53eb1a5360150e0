"""Speed-ups must not change what an episode does.

The performance benchmark in ``perfbench/`` checks every episode it plays
against the digests committed in ``perfbench/golden.json``: scores, a
sha256 of the chat log, the final ``state_hash`` and a sha256 of the red
system's prompts.  This plays one seed-0 pass of two of its workloads
through its own episode recorder and compares the digests here, so a
change that moves one fails the test suite, not only a benchmark run.
The golden file is only read."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["builtin_round_robin", "tacticrafter_long_history"])
def test_seed_zero_pass_matches_golden_digests(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    with open(PERFBENCH / "golden.json") as f:
        golden = json.load(f)[workload]["0"]["episodes"]
    recorder = workloads.EpisodeRecorder()
    recorder.install()
    try:
        workloads.make_workload(workload, 0, tmp_path).run_pass()
    finally:
        recorder.restore()
    assert [e.golden() for e in recorder.episodes] == golden
    assert not any(e.failed for e in recorder.episodes)
