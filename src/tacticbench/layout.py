"""Layout files: versioned YAML documents describing a scenario arena.

A layout lists the grid extent, the two team areas, initial block cells
(given as rectangular patches), agent start positions, servers, mobs,
containers, and furnaces.  The loader is strict: unknown keys, missing
schema versions, and out-of-bounds entries are all errors.
"""
from __future__ import annotations

import functools
from importlib import resources
from typing import Any

import yaml

from .world import BlockCell, Layout, LayoutError, Position, validate_layout

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "name",
    "width",
    "depth",
    "areas",
    "agents",
    "servers",
    "cells",
    "mobs",
    "containers",
    "furnaces",
}

_ENTRY_KEYS = {
    "cells": {"kind", "patch", "at", "stage"},
    "agents": {"name", "team", "start"},
    "servers": {"name", "team", "at"},
    "mobs": {"kind", "at"},
    "containers": {"at", "stacks"},
}


def _entries(doc: dict[str, Any], key: str) -> list[dict[str, Any]]:
    entries = doc.get(key) or []
    for entry in entries:
        unknown = set(entry) - _ENTRY_KEYS[key]
        if unknown:
            raise LayoutError(f"unknown keys in a {key} entry: {sorted(unknown)}")
    return entries


def layout_from_dict(doc: dict[str, Any]) -> Layout:
    if not isinstance(doc, dict):
        raise LayoutError("layout document must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise LayoutError(f"unknown layout keys: {sorted(unknown)}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise LayoutError(
            f"unsupported schema_version {doc.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    width = int(doc["width"])
    depth = int(doc["depth"])
    areas = {
        team: tuple(int(v) for v in rect) for team, rect in (doc.get("areas") or {}).items()
    }

    cells: dict[tuple[int, int], BlockCell] = {}
    for entry in _entries(doc, "cells"):
        kind = entry["kind"]
        stage = int(entry.get("stage", 0))
        coords: list[tuple[int, int]] = []
        if "patch" in entry:
            x0, z0, w, h = (int(v) for v in entry["patch"])
            coords = [(x0 + dx, z0 + dz) for dz in range(h) for dx in range(w)]
        if "at" in entry:
            pts = entry["at"]
            if pts and isinstance(pts[0], int):
                pts = [pts]
            coords.extend((int(x), int(z)) for x, z in pts)
        if not coords:
            raise LayoutError(f"cell entry for {kind!r} has neither 'patch' nor 'at'")
        for (x, z) in coords:
            if (x, z) in cells:
                raise LayoutError(f"overlapping cells at ({x}, {z})")
            cells[(x, z)] = BlockCell(kind, stage)

    agent_starts = [
        (a["name"], a["team"], Position(int(a["start"][0]), 0, int(a["start"][1])))
        for a in _entries(doc, "agents")
    ]
    servers = [
        (s["name"], s["team"], Position(int(s["at"][0]), 0, int(s["at"][1])))
        for s in _entries(doc, "servers")
    ]
    mobs = [
        (m["kind"], Position(int(m["at"][0]), 0, int(m["at"][1])))
        for m in _entries(doc, "mobs")
    ]
    containers = {
        (int(c["at"][0]), int(c["at"][1])): {k: int(v) for k, v in c["stacks"].items()}
        for c in _entries(doc, "containers")
    }
    furnaces = [Position(int(x), 0, int(z)) for x, z in doc.get("furnaces") or []]
    for (x, z) in containers:
        if (x, z) in cells:
            raise LayoutError(f"container overlaps cell at ({x}, {z})")
        cells[(x, z)] = BlockCell("chest")
    for p in furnaces:
        if (p.x, p.z) in cells:
            raise LayoutError(f"furnace overlaps cell at ({p.x}, {p.z})")
        cells[(p.x, p.z)] = BlockCell("furnace")

    layout = Layout(
        name=doc["name"],
        width=width,
        depth=depth,
        areas=areas,
        cells=cells,
        agent_starts=agent_starts,
        servers=servers,
        mobs=mobs,
        containers=containers,
        furnaces=furnaces,
    )
    validate_layout(layout)
    return layout


def load_layout_text(text: str) -> Layout:
    return layout_from_dict(yaml.safe_load(text))


@functools.lru_cache(maxsize=None)
def load_builtin_layout(name: str) -> Layout:
    """The packaged layout ``name``, parsed once per process.  Every caller
    shares the returned object, so none may change it (``WorldState``
    copies what it mutates)."""
    ref = resources.files("tacticbench").joinpath(f"layouts/{name}.yaml")
    return load_layout_text(ref.read_text())
