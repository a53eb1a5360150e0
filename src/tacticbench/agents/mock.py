"""Deterministic scripted responder for offline runs and tests.

It reads just enough from the prompt text (agent index, scenario keywords,
team constants) to emit tactics, causal relations, and working programs, so
a full benchmark can run without any model endpoint.
"""
from __future__ import annotations

import re

from .client import MockChatClient

_INDEX = re.compile(r"agent index: (\d+)")
_SERVER = re.compile(r"OWN_SERVER = (\w+)")
_PLAYERS = re.compile(r"[Yy]our players[^:]*: ([\w, ]+)")

_MW_PROGRAMS = [
    'loop {\n  mineBlock("slime_block", 6, "own")\n}',
    'loop {\n  mineBlock("red_mushroom_block", 3, "own")\n}',
]


def _dd_programs(server: str) -> list[str]:
    return [
        (
            'loop {\n  farm("harvest", "melon")\n  if has("melon_slice", 1) {\n'
            f'    giveToPlayer("melon_slice", "{server}", -1)\n  }}\n}}'
        ),
        (
            'loop {\n  farm("harvest", "sweet_berry_bush")\n  if has("sweet_berries", 1) {\n'
            f'    giveToPlayer("sweet_berries", "{server}", -1)\n  }}\n}}'
        ),
    ]


def _is_mushroom(prompt: str) -> bool:
    return "mushroom" in prompt.lower() or "slime" in prompt.lower()


def _programs_for(prompt: str) -> list[str]:
    if _is_mushroom(prompt):
        return _MW_PROGRAMS
    m = _SERVER.search(prompt)
    server = m.group(1) if m else "Red_Server"
    return _dd_programs(server)


def default_mock_responder(purpose: str, prompt: str) -> str:
    if purpose == "tactics":
        m = _PLAYERS.search(prompt)
        names = [n.strip() for n in m.group(1).split(",")] if m else ["Agent1", "Agent2"]
        if _is_mushroom(prompt):
            lines = [
                f"1. {names[0]} keeps the home area clear of slime blocks.",
                f"2. {names[1 % len(names)]} harvests mushrooms in the home area.",
            ]
        else:
            lines = [
                f"1. {names[0]} harvests melons and delivers the slices.",
                f"2. {names[1 % len(names)]} picks sweet berries and delivers them.",
            ]
        return "<tactics>\n" + "\n".join(lines) + "\n</tactics>"
    if purpose == "causal":
        if _is_mushroom(prompt):
            return (
                "Action: mineBlock(\"slime_block\", 1); Cause: []; Effect ['slime_block']\n"
                "Action: mineBlock(\"red_mushroom_block\", 1); Cause: []; Effect ['red_mushroom']"
            )
        return (
            "Action: farm(\"harvest\", \"melon\"); Cause: []; Effect ['melon_slice']\n"
            "Action: craftItem(\"bread\", 5); Cause: ['wheat']; Effect ['bread']"
        )
    if purpose == "opponent":
        return "unknown"
    if purpose == "critic":
        return (
            "The last program stopped early. Target only things that are "
            "actually nearby and keep to the assigned role."
        )
    if purpose == "program":
        m = _INDEX.search(prompt)
        idx = int(m.group(1)) if m else 0
        programs = _programs_for(prompt)
        return "<program>\n" + programs[idx % len(programs)] + "\n</program>"
    if purpose == "cot":
        programs = _programs_for(prompt)
        return "\n".join(f"<program>\n{p}\n</program>" for p in programs)
    return ""


def make_mock_client(latency: float = 0.0) -> MockChatClient:
    return MockChatClient(responder=default_mock_responder, latency=latency)
