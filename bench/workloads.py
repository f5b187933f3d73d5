"""The three benchmark workloads: inputs from a seed, one pass of work, and
the checks on its outputs.

Every call into hetcov goes through a module attribute (``cli.run_sweep``,
never a name imported from it), so the traced run's rebinding sees it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from layers import ROOT_SPAN

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0  # the seed whose analytic-coverage values are in reference.json
# Largest error bound the analytic engine accepts for one probability
# integral; a later change may move a value by less than its error bound.
REFERENCE_ATOL = 1e-4


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; FULL is the benchmark, TINY the self-test."""

    # strategy -> thresholds in dB before the seed's offset. The SUBF and SDMA
    # cooperative cells cost 3-14 s each, so they get fewer points than SISO.
    analytic_grids: dict = field(default_factory=lambda: {
        "SISO": (-5.0, 0.0, 5.0, 10.0, 15.0),
        "SDMA": (-5.0, 15.0),
        "SUBF": (-5.0, 0.0),
    })
    mc_strategies: tuple = ("SISO", "SUBF", "SDMA")
    mc_trials: int = 500
    mc_w2_strategy: str = "SDMA"
    validate_trials: int = 1000
    validate_cluster_size: int | None = None  # None: the default scenario's
    setup_repeats: int = 5


FULL = Sizes()
TINY = Sizes(
    analytic_grids={"SISO": (-5.0, 5.0)},
    mc_strategies=("SISO",),
    mc_trials=40,
    mc_w2_strategy="SISO",
    validate_trials=200,
    validate_cluster_size=1,
    setup_repeats=1,
)


@dataclass
class PassResult:
    """What one pass produced (compared across passes) and side timings."""

    output: object
    info: dict = field(default_factory=dict)


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: list


def _unit(tracer):
    return tracer.span(ROOT_SPAN) if tracer is not None else contextlib.nullcontext()


def fill_caches(hc, scenarios) -> None:
    """Fill the lazy module caches the workload would otherwise fill while timed.

    A cache a later version of the package no longer has is skipped.
    """
    specfun, analysis, association, mcsim = hc.specfun, hc.analysis, hc.association, hc.mcsim
    max_order = max(
        hc.model.derive_tier(t).fading_order for s in scenarios for t in (s.macro, s.small)
    )
    for k in range(1, max_order + 1):
        specfun.integer_partitions(k)  # fills _partition_multiplicities
    if hasattr(analysis, "_leggauss"):
        analysis._leggauss(16)
    for s in scenarios:
        if hasattr(mcsim, "_corner_factor"):
            mcsim._corner_factor(s.pathloss)
        if s.cluster_size > 2 and hasattr(association, "_arrival_samples"):
            association._arrival_samples(s.cluster_size, s.numerics.cluster_samples, s.seed)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# analytic-coverage: cli.run_sweep, engine analytic, thresholds -5..15 dB


@dataclass
class AnalyticInputs:
    base: object
    grids: dict  # strategy -> thresholds in dB, offset applied
    seed: int


def analytic_setup(hc, seed: int, sizes: Sizes, out_dir: Path) -> AnalyticInputs:
    offset = float(np.random.default_rng(seed).uniform(0.0, 0.5))
    grids = {
        strategy: tuple(round(t + offset, 6) for t in grid)
        for strategy, grid in sizes.analytic_grids.items()
    }
    base = hc.model.default_scenario()
    fill_caches(hc, [hc.model.apply_strategy(base, s) for s in grids])
    return AnalyticInputs(base=base, grids=grids, seed=seed)


def analytic_run(hc, inp: AnalyticInputs, tracer=None) -> PassResult:
    cli = hc.cli
    rows = []
    for strategy, grid in inp.grids.items():
        spec = cli.SweepSpec(
            variable="threshold_db",
            grid=grid,
            strategies=(strategy,),
            modes=hc.model.MODES,
            engines=(cli.ENGINE_ANALYTIC,),
            trials=1,
            master_seed=inp.seed,
        )
        with _unit(tracer):
            rows.extend(cli.run_sweep(spec, inp.base))
    return PassResult(output=rows)


def analytic_check(hc, inp: AnalyticInputs, res: PassResult) -> Checked:
    """Every cell is a probability, non-increasing in the threshold within a
    (strategy, mode); at the default seed, cells match reference.json."""
    rows = res.output
    problems, bad = [], set()
    reference = load_reference()["analytic_coverage"] if inp.seed == DEFAULT_SEED else None
    last: dict = {}
    for i, row in enumerate(rows):
        key = (row["strategy"], row["mode"])
        where = f"{key[0]}/{key[1]}@{row['value']}dB"
        if row["error"]:
            problems.append(f"{where}: {row['error']}")
            bad.add(i)
            continue
        value = float(row["result"])
        if not 0.0 <= value <= 1.0:
            problems.append(f"{where}: coverage {value} outside [0, 1]")
            bad.add(i)
        prev = last.get(key)
        if prev is not None and value > prev:
            problems.append(f"{where}: coverage {value} rises above {prev}")
            bad.add(i)
        last[key] = value
        if reference is not None:
            ref = reference.get(f"{key[0]}/{key[1]}/{row['value']}")
            if ref is None or abs(value - ref) > REFERENCE_ATOL:
                problems.append(f"{where}: coverage {value}, reference {ref}")
                bad.add(i)
    expected = sum(len(g) * 2 for g in inp.grids.values())
    if len(rows) != expected:
        problems.append(f"{len(rows)} cells, expected {expected}")
        bad.add(-1)
    return Checked(attempted=max(len(rows), expected), failed=len(bad), problems=problems)


# ---------------------------------------------------------------------------
# mc-batch: mcsim.run_trials per (strategy, mode) at workers=1, one at workers=2


@dataclass
class McInputs:
    scenarios: dict  # strategy -> Scenario
    modes: tuple
    trials: int
    seed: int
    w2_strategy: str
    workers2: int


def mc_setup(hc, seed: int, sizes: Sizes, out_dir: Path) -> McInputs:
    base = hc.model.default_scenario()
    scenarios = {s: hc.model.apply_strategy(base, s) for s in sizes.mc_strategies}
    fill_caches(hc, scenarios.values())
    return McInputs(
        scenarios=scenarios,
        modes=hc.model.MODES,
        trials=sizes.mc_trials,
        seed=seed,
        w2_strategy=sizes.mc_w2_strategy,
        workers2=min(2, nproc()),
    )


def mc_run(hc, inp: McInputs, tracer=None) -> PassResult:
    mcsim = hc.mcsim
    out, w1_s, w1_trials = {}, 0.0, 0
    for strategy, scn in inp.scenarios.items():
        for mode in inp.modes:
            with _unit(tracer):
                t0 = time.perf_counter()
                batch = mcsim.run_trials(scn, mode, inp.trials, inp.seed, workers=1)
                w1_s += time.perf_counter() - t0
                w1_trials += batch.trials
                out[strategy, mode, "w1"] = _batch_summary(mcsim, batch)
    scn = inp.scenarios[inp.w2_strategy]
    with _unit(tracer):
        t0 = time.perf_counter()
        batch = mcsim.run_trials(scn, "cooperative", inp.trials, inp.seed, workers=inp.workers2)
        w2_s = time.perf_counter() - t0
        out[inp.w2_strategy, "cooperative", "w2"] = _batch_summary(mcsim, batch)
    info = {
        "trials_per_s": w1_trials / w1_s,
        "trials_per_s_w2": batch.trials / w2_s,
    }
    return PassResult(output=out, info=info)


def _batch_summary(mcsim, batch) -> dict:
    cov = mcsim.coverage_from_batch(batch, 1.0)
    rate = mcsim.rate_from_batch(batch)
    return {
        "bytes": batch.events.tobytes() + batch.sinr.tobytes(),
        "events": sorted(mcsim.EVENT_ORDER[c].value for c in np.unique(batch.events)),
        "coverage_0db": (cov.value, cov.ci_halfwidth),
        "rate": rate.value,
    }


def mc_check(hc, inp: McInputs, res: PassResult) -> Checked:
    """workers=2 is byte-identical to workers=1; coverage at 0 dB agrees with
    the analytic engine within 0.03 plus two 95% half-widths; rates are finite
    and positive; each trial's event belongs to its mode."""
    reference = load_reference()["analytic_coverage_0db"]
    coop_events = {"macro_coop", "cluster"}
    problems, bad = [], set()
    for key, summary in res.output.items():
        strategy, mode, run = key
        where = f"{strategy}/{mode}/{run}"
        events = set(summary["events"])
        if events - (coop_events if mode == "cooperative" else {"macro", "small"}):
            problems.append(f"{where}: events {sorted(events)} outside the mode")
            bad.add(key)
        value, half = summary["coverage_0db"]
        ref = reference[f"{strategy}/{mode}"]
        if abs(value - ref) > 0.03 + 2.0 * half:
            problems.append(f"{where}: MC coverage {value:.4f} vs analytic {ref:.4f}")
            bad.add(key)
        if not (math.isfinite(summary["rate"]) and summary["rate"] > 0.0):
            problems.append(f"{where}: mean rate {summary['rate']}")
            bad.add(key)
        if run == "w2" and summary["bytes"] != res.output[strategy, mode, "w1"]["bytes"]:
            problems.append(f"{where}: workers={inp.workers2} batch differs from workers=1")
            bad.add(key)
    expected = len(inp.scenarios) * len(inp.modes) + 1
    if len(res.output) != expected:
        problems.append(f"{len(res.output)} batches, expected {expected}")
        bad.add(None)
    return Checked(attempted=max(len(res.output), expected), failed=len(bad), problems=problems)


# ---------------------------------------------------------------------------
# validate: cli.main(["validate", ...]) in-process on the default scenario


@dataclass
class ValidateInputs:
    argv: tuple
    out_dir: Path
    config: str | None


def validate_setup(hc, seed: int, sizes: Sizes, out_dir: Path) -> ValidateInputs:
    base = hc.model.default_scenario()
    fill_caches(hc, [base])
    argv = ["validate", "--seed", str(seed), "--trials", str(sizes.validate_trials)]
    config = None
    if sizes.validate_cluster_size is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        config = str(out_dir / f"validate-{os.getpid()}.ini")
        scn = dataclasses.replace(base, cluster_size=sizes.validate_cluster_size)
        with open(config, "w") as f:
            hc.model.scenario_to_config(scn).write(f)
        argv += ["--config", config]
    return ValidateInputs(argv=tuple(argv), out_dir=out_dir, config=config)


def validate_run(hc, inp: ValidateInputs, tracer=None) -> PassResult:
    inp.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=inp.out_dir) as tmp:
        out = os.path.join(tmp, "validate.csv")
        report = io.StringIO()
        with _unit(tracer), contextlib.redirect_stdout(report):
            rc = hc.cli.main([*inp.argv, "--out", out])
        with open(out) as f:
            text = f.read()
    return PassResult(output={"rc": rc, "csv": text, "report": report.getvalue()})


def validate_check(hc, inp: ValidateInputs, res: PassResult) -> Checked:
    """Exit code 0, and every check row of the CSV passed."""
    rows = list(csv.DictReader(io.StringIO(res.output["csv"])))
    problems = [f"{r['metric']}/{r['mode']}: {r['error']}" for r in rows if r["error"]]
    failed = len(problems)
    if res.output["rc"] != 0:
        problems.append(f"validate exited {res.output['rc']}")
        failed = max(failed, 1)
    if not rows:
        problems.append("validate wrote no check rows")
        failed = max(failed, 1)
    return Checked(attempted=max(len(rows), 1), failed=failed, problems=problems)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """setup(hc, seed, sizes, out_dir) -> inputs; run(hc, inputs, tracer)
    -> PassResult; check(hc, inputs, PassResult) -> Checked."""

    setup: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "analytic-coverage": Workload(analytic_setup, analytic_run, analytic_check),
    "mc-batch": Workload(mc_setup, mc_run, mc_check),
    "validate": Workload(validate_setup, validate_run, validate_check),
}
