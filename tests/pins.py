"""Every value that pins the package's behaviour in the test suite, in
one table, ``tests/pins.json``: per family, the cases and the function that
computes a case's value.  ``tests/test_pins.py`` checks every key; the
README's Tests section describes the families.  Whole episodes are pinned
in ``perfbench/golden.json``, which stays perfbench's own file.

``python tests/pins.py`` recomputes every family, rewrites the table,
re-records ``perfbench/golden.json`` with ``perfbench/run.py
--record-golden``, and prints one ``family/key: old → new`` line per value
that differs from the last commit's (``git show HEAD:``), so a run stopped
part way and run again still reports every move; a golden line is
``golden/<workload>/<seed>``, shown as the sha256 of its entry."""
from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Mapping

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "pins.json"
GOLDEN = ROOT / "perfbench" / "golden.json"

if __name__ == "__main__":  # record what the checkout's package does
    sys.path.insert(0, str(ROOT / "src"))

from tacticbench import bench  # noqa: E402
from tacticbench.agents import CoTTeamSystem, MockChatClient, TactiCrafterSystem  # noqa: E402
from tacticbench.agents import default_mock_responder  # noqa: E402
from tacticbench.opponents import BuiltinTeamSystem, builtin, list_builtin  # noqa: E402
from tacticbench.runner import run_episode  # noqa: E402
from tacticbench.scenarios import SCENARIO_NAMES, get_scenario  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _flip_flop_responder():
    """Opponent answers alternate "unknown" and a tactics block; every causal
    call after the first finds no relations."""
    opponent = itertools.cycle(["unknown", "<tactics>\nThey rush our slime.\n</tactics>"])
    causal = itertools.count()

    def respond(purpose: str, prompt: str) -> str:
        if purpose == "opponent":
            return next(opponent)
        if purpose == "causal" and next(causal):
            return "no relations here"
        return default_mock_responder(purpose, prompt)

    return respond


def _resumed_without_tactics(client) -> TactiCrafterSystem:
    """A system restored from a snapshot taken after an episode whose
    tactics were never set, so its first update has no tactics to revise."""
    system = TactiCrafterSystem(client)
    system.restore({"episode_counter": 1, "tactics": None, "causal_graph": [],
                    "opponent_tactics": [], "log": []})
    return system


def _default():
    return default_mock_responder


def _garbage():
    return lambda purpose, prompt: "garbage"


# every prompt the model-driven systems send, where the golden episodes do not
# reach: CoT (no golden workload plays it), TactiCrafter's fallback branches,
# and an opponent model that flips between unknown and known.  Each case plays
# 600-tick episodes on a fresh system; its value is a sha256 over the ordered
# (purpose, request_text) of every call, plus the artifacts the system ends with.
# case -> (system factory, responder factory, scenario, opponent, episodes)
PROMPT_CASES = {
    "cot-mushroom_war-passive": (CoTTeamSystem, _default, "mushroom_war", "passive", 3),
    "cot-dash_and_dine-berries": (CoTTeamSystem, _default, "dash_and_dine", "berries", 3),
    "garbage-mushroom_war-slimy": (TactiCrafterSystem, _garbage, "mushroom_war", "slimy", 3),
    "garbage-dash_and_dine-cake_beetroot": (
        TactiCrafterSystem, _garbage, "dash_and_dine", "cake_beetroot", 3
    ),
    "garbage-resumed-mushroom_war-slimy": (
        _resumed_without_tactics, _garbage, "mushroom_war", "slimy", 3
    ),
    "flip_flop-mushroom_war-slimy": (
        TactiCrafterSystem, _flip_flop_responder, "mushroom_war", "slimy", 4
    ),
}


def _prompts(case: str) -> dict:
    make_system, make_responder, scenario, opponent, episodes = PROMPT_CASES[case]
    client = MockChatClient(responder=make_responder())
    system = make_system(client)
    config = get_scenario(scenario, duration_ticks=600)
    for seed in range(episodes):
        blue = BuiltinTeamSystem(builtin(opponent, scenario))
        run_episode(config, {"red": system, "blue": blue}, seed)
    calls = hashlib.sha256()
    for call in client.calls:
        calls.update(_sha(f"{call.purpose}\0{call.request_text}").encode())
    pin = {"n_calls": len(client.calls), "calls": calls.hexdigest()}
    if isinstance(system, TactiCrafterSystem):
        pin["tactics"] = system.tactics.lines
        pin["graph"] = _sha(system.graph.serialize())
        pin["opponent_tactics"] = system.opponent_tactics.lines
    return pin


# the exact sigma of every builtin at run seed 0, in list_builtin order; the
# float sum runs in episode order, so even the last digit is pinned
def _sigmas(scenario: str) -> list[float]:
    return [bench.calibrate_sigma(scenario, opponent, 0) for opponent in list_builtin(scenario)]


# sha256 of the sorted-key JSON of (adaptation table, self-play output) per
# red system, on mushroom_war vs do_nothing and passive, 2 episodes, seed 3
def _protocols(red: str) -> list[str]:
    config = bench.RunConfig(scenarios=["mushroom_war"], opponents=["do_nothing", "passive"],
                             episodes=2, repeats=1, seed=3, red_system=red)
    outputs = (bench.adaptation_protocol(config),
               bench.self_play_protocol(config, total_episodes=2, checkpoint_every=1))
    return [_sha(json.dumps(o, sort_keys=True)) for o in outputs]


# sha256 of a run folder's reports; the timeline digests were recorded when
# numpy computed the band, of 10 series per opponent in "balanced" and of
# width 0 in "one-series"
RUN_REPORT_CASES = {
    "balanced": dict(scenarios=["mushroom_war"], opponents=["passive", "aggressive"], episodes=5,
                     repeats=2, red_system="builtin:balanced"),
    "one-series": dict(scenarios=["dash_and_dine"], opponents=["cake_beetroot"], episodes=1,
                       repeats=1, red_system="builtin:berries"),
}


def _run_reports(case: str) -> dict[str, str]:
    kwargs = RUN_REPORT_CASES[case]
    names = ["matchup_matrix.csv", "metrics_summary.json",
             *(f"timeline_{scenario}.csv" for scenario in kwargs["scenarios"])]
    with tempfile.TemporaryDirectory() as tmp:
        config = bench.RunConfig(seed=3, output_dir=tmp, **kwargs)
        run_dir = bench.run_benchmark(config, folder_name="run").run_dir
        return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


# family -> (its keys, the function that computes the value of one key)
FAMILIES = {
    "prompts": (PROMPT_CASES, _prompts),
    "protocols": (("builtin:passive", "cot", "random", "tacticrafter"), _protocols),
    "run_reports": (RUN_REPORT_CASES, _run_reports),
    "sigmas": (SCENARIO_NAMES, _sigmas),
}


def load() -> dict:
    return json.loads(TABLE.read_text())


def write(table: dict) -> None:
    """One line per key, so a moved value shows in a diff."""
    blocks = []
    for family, values in sorted(table.items()):
        rows = [f"  {json.dumps(key)}: {json.dumps(values[key], sort_keys=True)}"
                for key in sorted(values)]
        blocks.append(f"{json.dumps(family)}: {{\n" + ",\n".join(rows) + "\n}")
    TABLE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def moved(old: Mapping[str, object], new: Mapping[str, object]) -> list[str]:
    """One ``name: old → new`` line per name whose value differs, in name
    order; a name missing on one side shows as ``(none)`` there."""
    def show(values: Mapping[str, object], name: str) -> str:
        return json.dumps(values[name], sort_keys=True) if name in values else "(none)"

    return [f"{name}: {show(old, name)} → {show(new, name)}"
            for name in sorted(old.keys() | new.keys())
            if name not in old or name not in new or old[name] != new[name]]


def _committed(path: Path) -> dict:
    """The JSON file at ``path`` as the checkout's last commit has it."""
    name = path.relative_to(ROOT).as_posix()
    return json.loads(subprocess.run(["git", "show", f"HEAD:{name}"], cwd=ROOT,
                                     capture_output=True, text=True, check=True).stdout)


def _named(table: dict, golden: dict) -> dict:
    """Every value of ``table`` by ``family/key``, and every line of
    ``golden`` by ``golden/<workload>/<seed>`` as the sha256 of its entry."""
    named = {f"{family}/{key}": value for family, values in table.items()
             for key, value in values.items()}
    for workload, entries in golden.items():
        for seed, entry in entries.items():
            named[f"golden/{workload}/{seed}"] = _sha(json.dumps(entry, sort_keys=True))
    return named


def main() -> int:
    old = _named(_committed(TABLE), _committed(GOLDEN))
    table = {family: {key: compute(key) for key in keys}
             for family, (keys, compute) in FAMILIES.items()}
    golden = subprocess.run([sys.executable, str(GOLDEN.parent / "run.py"), "--record-golden"],
                            capture_output=True, text=True)
    if golden.returncode != 0:
        sys.stderr.write(golden.stdout + golden.stderr)
        return golden.returncode
    write(table)
    for line in moved(old, _named(table, json.loads(GOLDEN.read_text()))):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
