"""The pin table ``tests/pins.json`` against what the package does now:
every key recomputed, the table's keys against the cases that compute
them, and the recorder's report of moved values.  ``tests/pins.py``
describes the families; ``python tests/pins.py`` re-records them."""
from __future__ import annotations

import pytest

import pins

TABLE = pins.load()


@pytest.mark.parametrize("family, key", [
    pytest.param(family, key, id=f"{family}/{key}")
    for family in sorted(TABLE) for key in sorted(TABLE[family])
])
def test_value_matches_its_pin(family, key):
    _, compute = pins.FAMILIES[family]
    assert compute(key) == TABLE[family][key]


def test_pin_table_keys_match_the_cases():
    assert {family: sorted(values) for family, values in TABLE.items()} == {
        family: sorted(keys) for family, (keys, _) in pins.FAMILIES.items()
    }


def test_moved_reports_changed_added_and_removed_keys():
    old = {"sigmas/a": [1.0, 2.0], "protocols/b": ["x"], "prompts/c": {"n_calls": 3}}
    new = {"sigmas/a": [1.0, 2.5], "protocols/b": ["x"], "run_reports/d": {"f.csv": "y"}}
    assert pins.moved(old, new) == [
        'prompts/c: {"n_calls": 3} → (none)',
        'run_reports/d: (none) → {"f.csv": "y"}',
        "sigmas/a: [1.0, 2.0] → [1.0, 2.5]",
    ]
    assert pins.moved(old, dict(old)) == []
