"""Record reference.json: the analytic values the benchmark's checks compare to.

    python3 bench/record_reference.py

``analytic_coverage`` holds every analytic-coverage cell at the default
seed; ``analytic_coverage_0db`` holds coverage_overall at 0 dB for each
(strategy, mode), which the mc-batch check compares MC coverage against.
Re-record only when an analytic value is meant to change.
"""

import json

import run
from workloads import DEFAULT_SEED, FULL, REFERENCE_PATH, analytic_run, analytic_setup

if __name__ == "__main__":
    hc = run.load_hetcov()
    inputs = analytic_setup(hc, DEFAULT_SEED, FULL, run.OUT_DIR)
    rows = analytic_run(hc, inputs).output
    bad = [r for r in rows if r["error"]]
    if bad:
        raise SystemExit(f"cells failed: {bad}")
    base = hc.model.default_scenario()
    reference = {
        "analytic_coverage": {
            f"{r['strategy']}/{r['mode']}/{r['value']}": float(r["result"]) for r in rows
        },
        "analytic_coverage_0db": {
            f"{s}/{m}": hc.analysis.coverage_overall(m, hc.model.apply_strategy(base, s), 1.0)
            for s in FULL.mc_strategies
            for m in hc.model.MODES
        },
    }
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE_PATH}")
