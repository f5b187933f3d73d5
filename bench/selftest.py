"""Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Checks that:
1. every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json declares for that mode, with the declared units;
2. a planted wrong output makes the command report ``correct: false`` and
   return nonzero, on each workload, and a traced pass whose output differs
   from the untraced one is caught;
3. in a directory holding only BENCHMARK.json and bench/, the command exits
   nonzero without printing a result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import layers
import run
from workloads import TINY

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def invoke(workload: str, trace: int, seed: int = 1):
    """Run the command in-process at tiny sizes; return (exit code, result)."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, sizes=TINY)
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def planted(module, name: str, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def check_declarations(failures: list) -> None:
    declared_e2e = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    if declared_e2e != list(run.END_TO_END):
        failures.append(f"end_to_end {declared_e2e} != run.END_TO_END {run.END_TO_END}")
    declared_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    defined_layer = [entry[:3] for entry in layers.PER_LAYER]
    if declared_layer != defined_layer:
        failures.append("per_layer in BENCHMARK.json differs from layers.PER_LAYER")
    names = {w["name"] for w in BENCHMARK["workloads"]}
    if names != set(run.WORKLOADS):
        failures.append(f"workloads {sorted(names)} != {sorted(run.WORKLOADS)}")


def check_metric_names(failures: list) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for workload in run.WORKLOADS:
            rc, result = invoke(workload, trace)
            where = f"{workload} trace={trace}"
            if rc != 0 or result["correct"] is not True:
                failures.append(f"{where}: exit {rc}, result {result}")
            if set(result) != RESULT_KEYS or result["attempted"] < 1:
                failures.append(f"{where}: result keys {sorted(result)}")
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != declared:
                failures.append(f"{where}: printed {printed} != declared {declared}")
            if trace == 1 and workload == "validate":
                calls = result["metrics"]["analysis.log_laplace_derivative.calls"]["value"]
                if calls != 0:
                    failures.append(f"validate made {calls} log_laplace_derivative calls")


def check_planted_faults(failures: list) -> None:
    hc = run.load_hetcov()

    def shifted(original):  # coverage above 1 at low thresholds
        return lambda *a, **k: original(*a, **k) + 0.5

    def w2_differs(original):
        def run_trials(*a, **k):
            batch = original(*a, **k)
            if k.get("workers", 1) == 1:
                return batch
            return hc.mcsim.TrialBatch(events=batch.events, sinr=batch.sinr * (1 + 1e-12))
        return run_trials

    def drifting(original):  # differs from call to call, so traced != untraced
        calls = [0]

        def coverage_overall(*a, **k):
            calls[0] += 1
            return original(*a, **k) * (1 - 1e-9 * calls[0])
        return coverage_overall

    cases = (
        ("analytic-coverage", 0, hc.analysis, "coverage_overall", shifted),
        ("mc-batch", 0, hc.mcsim, "run_trials", w2_differs),
        ("validate", 0, hc.analysis, "mean_rate", shifted),
        ("analytic-coverage", 1, hc.analysis, "coverage_overall", drifting),
    )
    for workload, trace, module, name, make in cases:
        with planted(module, name, make):
            rc, result = invoke(workload, trace)
        if rc == 0 or result["correct"] is not False or result["failed"] < 1:
            failures.append(f"planted fault in {name} not caught on {workload} "
                            f"trace={trace}: exit {rc}, {result}")


def check_bare_directory(failures: list) -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc-batch", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    failures: list = []
    for check in (check_declarations, check_metric_names, check_planted_faults,
                  check_bare_directory):
        before = len(failures)
        check(failures)
        print(f"{check.__name__}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
