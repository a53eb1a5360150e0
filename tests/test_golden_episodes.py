"""Speed-ups must not change what an episode does.

The performance benchmark in ``perfbench/`` checks every episode it plays
against the digests committed in ``perfbench/golden.json``: scores, a
sha256 of the chat log, the final ``state_hash`` and a sha256 of the red
system's prompts, and for ``mock_run`` also digests of the run folder's
transcripts and episode rows.  This plays one pass of each workload at two
seeds through its own episode recorder and compares the digests here, so a
change that moves one fails the test suite, not only a benchmark run.
The golden file is only read."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["builtin_round_robin", "tacticrafter_long_history", "mock_run"]


def _assert_pass_matches_golden(workload, seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    with open(PERFBENCH / "golden.json") as f:
        golden = json.load(f)[workload][str(seed)]
    played = workloads.make_workload(workload, seed, tmp_path)
    recorder = workloads.EpisodeRecorder()
    recorder.install()
    try:
        state = played.run_pass()
    finally:
        recorder.restore()
    artifacts, failed_matchups = played.artifacts(state)
    assert [e.golden() for e in recorder.episodes] == golden["episodes"]
    assert artifacts == golden["artifacts"]
    assert not any(e.failed for e in recorder.episodes) and failed_matchups == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_zero_pass_matches_golden_digests(workload, monkeypatch, tmp_path):
    _assert_pass_matches_golden(workload, 0, monkeypatch, tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_seven_pass_matches_golden_digests(workload, monkeypatch, tmp_path):
    _assert_pass_matches_golden(workload, 7, monkeypatch, tmp_path)
