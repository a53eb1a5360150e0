"""Every prompt the model-driven systems send, pinned where the golden
episodes do not reach: CoT (no golden workload plays it), TactiCrafter's
fallback branches, and an opponent model that flips between unknown and
known.  Each case plays 600-tick episodes on a fresh system and compares a
sha256 over the ordered ``(purpose, request_text)`` of every call, plus the
artifacts the system ends with, to values recorded before the prompt code
was last restructured."""
from __future__ import annotations

import hashlib
import itertools

import pytest

from tacticbench.agents import (
    CoTTeamSystem,
    MockChatClient,
    TactiCrafterSystem,
    default_mock_responder,
)
from tacticbench.opponents import BuiltinTeamSystem, builtin
from tacticbench.runner import run_episode
from tacticbench.scenarios import get_scenario


def _default():
    return default_mock_responder


def _garbage():
    return lambda purpose, prompt: "garbage"


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


# case -> (system factory, responder factory, scenario, opponent, episodes)
CASES = {
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

PINS = {
    "cot-dash_and_dine-berries": {
        "n_calls": 3,
        "calls": "a000eb8298dab01d2730bebfc943e8b6cae0523df33c1106705218d84e6a6b84",
    },
    "cot-mushroom_war-passive": {
        "n_calls": 3,
        "calls": "229422f7f3348cc5cef913e5bf1e98b97a18a08e3c7401c6d9d1a687208fff76",
    },
    "flip_flop-mushroom_war-slimy": {
        "n_calls": 290,
        "calls": "ec7a071bc310a98de01fa72c8534f087161d99bb78a952bc4a4bda58b952c2ca",
        "tactics": [
            "1. Ryn keeps the home area clear of slime blocks.",
            "2. Raze harvests mushrooms in the home area.",
        ],
        "graph": "17e5f0a76c6e091597d0929ca9a5925f880bb79e01b4bf6962e939d9813cd89e",
        "opponent_tactics": [
            "They rush our slime.",
        ],
    },
    "garbage-dash_and_dine-cake_beetroot": {
        "n_calls": 38,
        "calls": "dc357a23b4f57db082c0e6b4d86e489c23dd305753a23e131b1e0ba7f05f0381",
        "tactics": [
            "All players harvest in own area",
        ],
        "graph": "49a35d5fcda55544c7bce70a08376a978c685db941be3ca95e7d3240a51ce174",
        "opponent_tactics": [],
    },
    "garbage-mushroom_war-slimy": {
        "n_calls": 38,
        "calls": "0eaabf9e3b7d429b58adc55ca4e39c9197fe5f640a607cb9c7804ee959b10bf5",
        "tactics": [
            "All players harvest in own area",
        ],
        "graph": "f192384a2309385bc73dd5afb64a97ec1a22753fb554eca23937bca2d59130f2",
        "opponent_tactics": [],
    },
    "garbage-resumed-mushroom_war-slimy": {
        "n_calls": 34,
        "calls": "77706fdf509f70869c9e1165b53bae7cd72c8a2fd91bf27d9ebc6bbfabfd649b",
        "tactics": [
            "All players harvest in own area",
        ],
        "graph": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "opponent_tactics": [],
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _play(case: str) -> dict:
    make_system, make_responder, scenario, opponent, episodes = CASES[case]
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_prompts_and_artifacts_match_their_pins(case):
    assert _play(case) == PINS[case]
