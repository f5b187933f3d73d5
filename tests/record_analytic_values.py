"""Record the committed table of analytic values, tests/data/analytic_values.json.

    PYTHONPATH=src python tests/record_analytic_values.py

The table holds coverage_overall at 3 strategies x K 1-3 x noise 0 and
1e-15 W x both modes x T 0.1, 1 and 10, the association probabilities of
the same cells, and the default mean_rate of 3 strategies x both modes.
test_analytic_values.py compares the package against it. Before it
overwrites the table, the recorder prints the largest move of each kind and
every value that moved past its kind's gate (test_analytic_values.GATES).
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from hetcov.analysis import coverage_overall, mean_rate
from hetcov.association import association_probabilities
from hetcov.model import MODES, default_scenario

TABLE = Path(__file__).resolve().parent / "data" / "analytic_values.json"
STRATEGIES = ("SISO", "SUBF", "SDMA")
THRESHOLDS = (0.1, 1.0, 10.0)


def analytic_values() -> dict:
    """{kind: {name: value}} for the kinds coverage, association and rate."""
    table = {"coverage": {}, "association": {}, "rate": {}}
    for strategy in STRATEGIES:
        for k in (1, 2, 3):
            for noise in (0.0, 1e-15):
                s = replace(default_scenario(strategy, cluster_size=k), noise=noise)
                cell = f"{strategy}/K={k}/noise={noise}"
                for mode in MODES:
                    cov = coverage_overall(mode, s, np.array(THRESHOLDS))
                    for t, value in zip(THRESHOLDS, cov.tolist()):
                        table["coverage"][f"{cell}/{mode}/T={t}"] = value
                    for event, p in association_probabilities(s, mode).items():
                        table["association"][f"{cell}/{mode}/{event.value}"] = p
        for mode in MODES:
            table["rate"][f"{strategy}/{mode}"] = float(mean_rate(mode, default_scenario(strategy)))
    return table


if __name__ == "__main__":
    from test_analytic_values import compare

    values = analytic_values()
    if TABLE.exists():  # state every move before the table is overwritten
        table = json.loads(TABLE.read_text())
        for kind in table:
            moved, largest = compare({kind: table[kind]}, {kind: values[kind]})
            print(f"{kind}: largest move {largest!r}, {len(moved)} past the gate")
            for line in moved:
                print(f"  {line}")
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {TABLE}")
