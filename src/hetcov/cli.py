"""Command-line front end: scenario configs in, sweep CSVs and reports out.

Subcommands: ``coverage-sweep``, ``rate-sweep``, ``bias-sweep``,
``density-sweep``, ``validate``. Every sweep emits one CSV row per
(grid value x strategy x mode x engine); ``validate`` cross-checks the
analytic engine against simulation and exits nonzero on any failed check.
Output is byte-identical for a fixed config + seed, whatever the worker
count.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace

from . import analysis, association, mcsim
from .association import AssociationEvent
from .model import (
    ConfigError,
    MODES,
    NONCOOPERATIVE,
    STRATEGIES,
    Scenario,
    apply_strategy,
    dbm_to_watts,
    default_scenario,
    derive_tier,
    load_config,
    scenario_to_config,
)

ENGINE_ANALYTIC = "analytic"
ENGINE_MC = "mc"
ENGINES = (ENGINE_ANALYTIC, ENGINE_MC)

SWEEP_VARIABLES = ("threshold_db", "bias_ratio", "density_ratio", "power_macro_dbm")

CSV_COLUMNS = (
    "sweep_variable",
    "value",
    "strategy",
    "mode",
    "engine",
    "metric",
    "result",
    "ci_halfwidth",
    "trials",
    "seed",
    "error",
)

DEFAULT_GRIDS = {
    "threshold_db": (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    "bias_ratio": (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    "density_ratio": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    "power_macro_dbm": (35.0, 40.0, 45.0, 50.0),
}


def _fmt(x: float) -> str:
    """Stable float formatting shared by CSV cells and the sidecar."""
    return "%.12g" % float(x)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: what to vary, over what grid, and how to evaluate."""

    variable: str
    grid: tuple[float, ...]
    strategies: tuple[str, ...]
    modes: tuple[str, ...]
    engines: tuple[str, ...]
    trials: int
    master_seed: int
    workers: int = 1
    metric: str = "coverage"  # "coverage" | "rate"
    threshold_db: float = 0.0  # coverage threshold when variable != threshold_db

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {self.grid}")
        if not self.strategies:
            raise ValueError("strategies must be nonempty")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}; choose from {tuple(STRATEGIES)}")
        if not self.modes:
            raise ValueError("modes must be nonempty")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}; choose from {MODES}")
        if not self.engines:
            raise ValueError("engines must be nonempty")
        for e in self.engines:
            if e not in ENGINES:
                raise ValueError(f"unknown engine {e!r}; choose from {ENGINES}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.metric not in ("coverage", "rate"):
            raise ValueError(f"metric must be 'coverage' or 'rate', got {self.metric!r}")


def _scenario_for(base: Scenario, strategy: str, variable: str, value: float) -> Scenario:
    """Apply the strategy's antenna profile, then pin the swept variable."""
    scn = apply_strategy(base, strategy)
    if variable == "threshold_db":
        return scn
    if variable == "bias_ratio":
        small = replace(scn.small, bias=value * derive_tier(scn.macro).bias)
        return replace(scn, small=small)
    if variable == "density_ratio":
        small = replace(scn.small, density=value * scn.macro.density)
        return replace(scn, small=small)
    if variable == "power_macro_dbm":
        macro = replace(scn.macro, power=dbm_to_watts(value))
        return replace(scn, macro=macro)
    raise ValueError(f"unknown sweep variable {variable!r}")


def run_sweep(spec: SweepSpec, scenario: Scenario) -> list[dict[str, str]]:
    """Evaluate the sweep; one row dict per cell, failures noted in 'error'.

    MC batches are shared across grid cells that leave the scenario unchanged
    (threshold sweeps), and one run_modes call serves every mode, so each
    distinct scenario draws its trials once.
    """
    rows: list[dict[str, str]] = []
    batches: dict[Scenario, dict[str, mcsim.TrialBatch]] = {}
    rate_cache: dict[tuple[Scenario, str], float] = {}
    for value in spec.grid:
        threshold_db = value if spec.variable == "threshold_db" else spec.threshold_db
        threshold = 10.0 ** (threshold_db / 10.0)
        for strategy in spec.strategies:
            try:
                scn = _scenario_for(scenario, strategy, spec.variable, value)
            except Exception as exc:  # noqa: BLE001 - recorded per cell
                scn = None
                scn_error = f"{type(exc).__name__}: {exc}"
            for mode in spec.modes:
                for engine in spec.engines:
                    row = {
                        "sweep_variable": spec.variable,
                        "value": _fmt(value),
                        "strategy": strategy,
                        "mode": mode,
                        "engine": engine,
                        "metric": spec.metric,
                        "result": "",
                        "ci_halfwidth": "",
                        "trials": "",
                        "seed": str(spec.master_seed),
                        "error": "",
                    }
                    try:
                        if scn is None:
                            raise RuntimeError(scn_error)
                        if engine == ENGINE_ANALYTIC:
                            if spec.metric == "coverage":
                                res = analysis.coverage_overall(mode, scn, threshold)
                            else:
                                key = (scn, mode)
                                if key not in rate_cache:
                                    rate_cache[key] = analysis.mean_rate(mode, scn)
                                res = rate_cache[key]
                            row["result"] = _fmt(res)
                        else:
                            if scn not in batches:
                                batches[scn] = mcsim.run_modes(
                                    scn,
                                    spec.modes,
                                    spec.trials,
                                    spec.master_seed,
                                    workers=spec.workers,
                                )
                            batch = batches[scn][mode]
                            if spec.metric == "coverage":
                                mr = mcsim.coverage_from_batch(batch, threshold)
                            else:
                                mr = mcsim.rate_from_batch(batch)
                            row["result"] = _fmt(mr.value)
                            row["ci_halfwidth"] = _fmt(mr.ci_halfwidth)
                            row["trials"] = str(mr.trials)
                    except Exception as exc:  # noqa: BLE001 - sweep continues
                        row["error"] = f"{type(exc).__name__}: {exc}"
                    rows.append(row)
    return rows


def write_csv(rows: list[dict[str, str]], path: str) -> None:
    """Write rows in the fixed column order with LF line endings."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[col] for col in CSV_COLUMNS])


def write_sidecar(out_path: str, scenario: Scenario, run_settings: dict[str, str]) -> str:
    """Echo the fully resolved configuration next to the CSV; returns its path."""
    cfg = scenario_to_config(scenario)
    cfg.add_section("run")
    for key in sorted(run_settings):
        cfg.set("run", key, run_settings[key])
    sidecar = out_path + ".config.ini"
    with open(sidecar, "w") as f:
        cfg.write(f)
    return sidecar


@dataclass(frozen=True)
class CheckResult:
    """One cross-engine consistency check."""

    name: str
    mode: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def validate(
    scenario: Scenario,
    trials: int,
    master_seed: int,
    workers: int = 1,
    mc_scenario: Scenario | None = None,
) -> list[CheckResult]:
    """Cross-check the analytic engine against simulation on one scenario.

    mc_scenario lets tests feed the simulator a deliberately inconsistent
    scenario (negative control); production runs leave it None.
    """
    mc_scn = mc_scenario if mc_scenario is not None else scenario
    checks: list[CheckResult] = []

    # Association probabilities: closed form / cone integral vs event counts.
    for mode in MODES:
        probs = association.association_probabilities(scenario, mode)
        emp = mcsim.empirical_association(mc_scn, mode, trials, master_seed)
        event = AssociationEvent.SMALL if mode == NONCOOPERATIVE else AssociationEvent.CLUSTER
        se = emp[event].ci_halfwidth / 1.96
        tol = max(4.5 * se, 0.01)
        delta = abs(probs[event] - emp[event].value)
        checks.append(CheckResult("association", mode, delta, tol))

    # Coverage at 0 dB and mean rate, per mode; one run draws the trials once
    # and evaluates them for both modes.
    batches = mcsim.run_modes(mc_scn, MODES, trials, master_seed, workers=workers)
    for mode in MODES:
        batch = batches[mode]
        cov_mc = mcsim.coverage_from_batch(batch, 1.0)
        cov_an = analysis.coverage_overall(mode, scenario, 1.0)
        checks.append(
            CheckResult(
                "coverage_0dB", mode, abs(cov_an - cov_mc.value), 0.03 + cov_mc.ci_halfwidth
            )
        )
        rate_mc = mcsim.rate_from_batch(batch)
        rate_an = analysis.mean_rate(mode, scenario)
        checks.append(
            CheckResult(
                "mean_rate", mode, abs(rate_an - rate_mc.value), 0.05 + rate_mc.ci_halfwidth
            )
        )

    # Single-SBS limit of the cooperative events (analytic only): with K = 1
    # the cluster association and both cooperative conditionals at 0 dB
    # reduce to their noncooperative counterparts, each by its own route.
    scn_k1 = replace(scenario, cluster_size=1)
    delta = abs(
        association.assoc_prob_sbs_cluster(scn_k1) - association.assoc_prob_sbs_single(scn_k1)
    )
    conditional = analysis.coverage_conditional
    for coop, non in ((AssociationEvent.CLUSTER, AssociationEvent.SMALL),
                      (AssociationEvent.MACRO_COOP, AssociationEvent.MACRO)):
        delta = max(delta, abs(conditional(coop, scn_k1, 1.0) - conditional(non, scn_k1, 1.0)))
    checks.append(CheckResult("cluster_k1_reduction", "-", delta, 1e-4))

    # Interference Laplace transform: closed form vs the checked radial integral.
    r_typical = 0.5 / math.sqrt(scenario.macro.density)
    sctx = analysis.serving_context(AssociationEvent.MACRO, scenario, r_typical)
    ctx = analysis.laplace_context(sctx, scenario, threshold=1.0)
    lap = analysis.laplace_interference(ctx)
    rad = analysis.laplace_interference_radial(ctx)
    rel = abs(lap - rad) / max(abs(rad), 1e-300)
    checks.append(CheckResult("laplace_oracle", "-", rel, 1e-6))
    return checks


def validate_report(checks: list[CheckResult]) -> str:
    """Human-readable pass/fail table for stdout."""
    lines = ["check                     mode             measured      tolerance     status"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<25s} {c.mode:<16s} {c.measured:<13.6g} {c.tolerance:<13.6g} {status}"
        )
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(
        f"overall: {'PASS' if n_fail == 0 else 'FAIL'} ({len(checks) - n_fail}/{len(checks)} checks passed)"
    )
    return "\n".join(lines)


def validate_rows(checks: list[CheckResult], trials: int, master_seed: int) -> list[dict[str, str]]:
    """Validation results in the sweep CSV schema (one row per check)."""
    rows = []
    for i, c in enumerate(checks):
        rows.append(
            {
                "sweep_variable": "check",
                "value": _fmt(i),
                "strategy": "-",
                "mode": c.mode,
                "engine": "both",
                "metric": c.name,
                "result": _fmt(c.measured),
                "ci_halfwidth": _fmt(c.tolerance),
                "trials": str(trials),
                "seed": str(master_seed),
                "error": "" if c.passed else "check failed",
            }
        )
    return rows


def _parse_csv_list(text: str, what: str) -> tuple[str, ...]:
    items = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not items:
        raise ConfigError(f"{what} list is empty: {text!r}")
    return items


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcov",
        description="Two-tier HetNet coverage/rate toolkit: analytic engine + Monte Carlo.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config file (INI); defaults built in")
    common.add_argument("--out", help="output CSV path (sidecar config written next to it)")
    common.add_argument(
        "--seed", type=int,
        help="master RNG seed (default: the config's [scenario] seed, else 0)",
    )
    common.add_argument(
        "--trials", type=int, default=10_000, help="MC trials per cell (default 10000)"
    )
    common.add_argument(
        "--engines", default="analytic,mc", help="comma list from {analytic,mc} (default both)"
    )
    common.add_argument(
        "--workers", type=int, default=1,
        help="worker threads; output is byte-identical for any count, and CPython's GIL "
        "gives no speed-up (default 1)",
    )

    sweep = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep.add_argument(
        "--grid",
        help="comma list of grid values; use --grid=-5,0,5 for negatives"
        " (default per variable)",
    )
    sweep.add_argument(
        "--strategies", default="SISO,SUBF,SDMA", help="comma list of strategies (default all)"
    )
    sweep.add_argument(
        "--modes",
        default=",".join(MODES),
        help="comma list from {noncooperative,cooperative} (default both)",
    )
    sweep.add_argument(
        "--threshold-db",
        type=float,
        default=0.0,
        help="coverage threshold in dB for non-threshold sweeps (default 0)",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    p_cov = sub.add_parser("coverage-sweep", parents=[sweep], help="coverage vs a swept variable")
    p_cov.add_argument(
        "--variable", default="threshold_db", choices=SWEEP_VARIABLES, help="what to sweep"
    )
    p_rate = sub.add_parser("rate-sweep", parents=[sweep], help="mean rate vs a swept variable")
    p_rate.add_argument(
        "--variable", default="threshold_db", choices=SWEEP_VARIABLES, help="what to sweep"
    )
    sub.add_parser("bias-sweep", parents=[sweep], help="coverage vs small-tier bias ratio")
    sub.add_parser("density-sweep", parents=[sweep], help="coverage vs density ratio")
    sub.add_parser("validate", parents=[common], help="cross-check analytic engine vs MC")
    return parser


def _load_scenario(args) -> Scenario:
    if args.config:
        return load_config(args.config)
    return default_scenario()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _load_scenario(args)
        if args.seed is None:
            args.seed = scenario.seed
        try:
            scenario = replace(scenario, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        engines = _parse_csv_list(args.engines, "engines")

        if args.command == "validate":
            for name in ("trials", "workers"):
                if getattr(args, name) < 1:
                    raise ConfigError(f"{name} must be positive, got {getattr(args, name)}")
            checks = validate(scenario, args.trials, args.seed, workers=args.workers)
            print(validate_report(checks))
            if args.out:
                write_csv(validate_rows(checks, args.trials, args.seed), args.out)
                write_sidecar(
                    args.out,
                    scenario,
                    {
                        "command": "validate",
                        "trials": str(args.trials),
                        "seed": str(args.seed),
                        "workers": str(args.workers),
                    },
                )
            return 0 if all(c.passed for c in checks) else 1

        variable = {
            "bias-sweep": "bias_ratio",
            "density-sweep": "density_ratio",
        }.get(args.command, getattr(args, "variable", "threshold_db"))
        metric = "rate" if args.command == "rate-sweep" else "coverage"
        grid = _parse_grid(args.grid) if args.grid else DEFAULT_GRIDS[variable]
        try:
            spec = SweepSpec(
                variable=variable,
                grid=grid,
                strategies=_parse_csv_list(args.strategies, "strategies"),
                modes=_parse_csv_list(args.modes, "modes"),
                engines=engines,
                trials=args.trials,
                master_seed=args.seed,
                workers=args.workers,
                metric=metric,
                threshold_db=args.threshold_db,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not args.out:
            raise ConfigError("--out is required for sweeps")
        rows = run_sweep(spec, scenario)
        write_csv(rows, args.out)
        write_sidecar(
            args.out,
            scenario,
            {
                "command": args.command,
                "variable": spec.variable,
                "grid": ",".join(_fmt(v) for v in spec.grid),
                "strategies": ",".join(spec.strategies),
                "modes": ",".join(spec.modes),
                "engines": ",".join(spec.engines),
                "metric": spec.metric,
                "threshold_db": _fmt(spec.threshold_db),
                "trials": str(spec.trials),
                "seed": str(spec.master_seed),
                "workers": str(spec.workers),
            },
        )
        n_err = sum(1 for r in rows if r["error"])
        print(f"wrote {len(rows)} rows to {args.out}" + (f" ({n_err} cell errors)" if n_err else ""))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
