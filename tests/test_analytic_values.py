"""The analytic engine against its committed table of values,
tests/data/analytic_values.json (re-recorded by record_analytic_values.py)."""

import copy
import json

import pytest

from hetcov.model import default_scenario
from record_analytic_values import TABLE, analytic_values

NUMERICS = default_scenario().numerics
# How far a value of each kind may move: its tolerance, and for the rate,
# which reports no error estimate yet, 1e-6 bit/s/Hz.
GATES = {"coverage": NUMERICS.coverage_epsabs, "association": NUMERICS.quad_epsabs, "rate": 1e-6}


def compare(table: dict, values: dict):
    """(the values that moved past their kind's gate, the largest move), over
    the kinds of table."""
    assert {kind: sorted(v) for kind, v in values.items()} == {
        kind: sorted(v) for kind, v in table.items()
    }
    moved, largest = [], 0.0
    for kind, entries in table.items():
        gate = GATES[kind]
        for name, want in entries.items():
            move = abs(values[kind][name] - want)
            largest = max(largest, move)
            if not move <= gate:
                moved.append(f"{kind} {name}: {values[kind][name]!r}, table {want!r}")
    return moved, largest


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_values_match_the_table(table):
    moved, largest = compare(table, analytic_values())
    print(f"largest move from the table: {largest!r}")
    assert not moved, moved


@pytest.mark.parametrize("kind", sorted(GATES))
def test_a_planted_move_fails(table, kind):
    values = copy.deepcopy(table)
    name = sorted(values[kind])[len(values[kind]) // 2]
    values[kind][name] += 1e-5
    moved, largest = compare(table, values)
    assert len(moved) == 1 and name in moved[0]
    assert largest == pytest.approx(1e-5, rel=1e-6)
