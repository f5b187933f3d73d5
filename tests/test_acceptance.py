"""End-to-end acceptance checks.

Ten cross-cutting agreements between the analytic engine, the Monte Carlo
engine, and the model's structural guarantees. Each test prints one
``[criterion NN] PASS/FAIL`` line directly to the terminal (bypassing
capture) so a full run reads as a checklist; assertions carry the details.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from helpers import random_laplace_context, random_scenario
from hetcov import analysis, association, cli, mcsim
from hetcov.analysis import _taylor_terms
from hetcov.association import (
    AssociationEvent,
    assoc_prob_sbs_cluster,
    assoc_prob_sbs_single,
    ordered_distance_pdf,
    serving_distance_pdf,
)
from hetcov.model import MODES, Scenario, TierParams, default_scenario

TRIALS = 10_000
MASTER_SEED = 0
WORKERS = 4
STRATEGY_NAMES = ("SISO", "SUBF", "SDMA")
THRESHOLDS_DB = (-5.0, 0.0, 5.0)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def mc_batches():
    """One 10^4-trial batch per (strategy, mode), shared across criteria."""
    start = time.perf_counter()
    batches = {
        (strategy, mode): mcsim.run_trials(
            default_scenario(strategy=strategy), mode, TRIALS, MASTER_SEED, workers=WORKERS
        )
        for strategy in STRATEGY_NAMES
        for mode in MODES
    }
    return batches, time.perf_counter() - start


@pytest.fixture(scope="module")
def analytic_coverage_table():
    """Analytic overall coverage per (strategy, mode, threshold_db)."""
    start = time.perf_counter()
    table = {
        (strategy, mode, tdb): analysis.coverage_overall(
            mode, default_scenario(strategy=strategy), 10.0 ** (tdb / 10.0)
        )
        for strategy in STRATEGY_NAMES
        for mode in MODES
        for tdb in THRESHOLDS_DB
    }
    return table, time.perf_counter() - start


def test_criterion_01_association_probability_matches_simulation(capsys):
    # closed form vs simulated frequencies: 10 scenarios, 1e5 trials each,
    # within 3 binomial standard errors; the symmetric case must split 50/50
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    tier = TierParams(density=0.02, power=2.0, antennas=1, users=1)
    scenarios = [Scenario(macro=tier, small=tier)]
    scenarios += [random_scenario(rng) for _ in range(9)]
    failures = []
    worst_z = 0.0
    if abs(assoc_prob_sbs_single(scenarios[0]) - 0.5) > 1e-12:
        failures.append("symmetric scenario must attach to the small tier w.p. 1/2")
    for i, s in enumerate(scenarios):
        expected = assoc_prob_sbs_single(s)
        emp = mcsim.empirical_association(s, "noncooperative", 100_000, master_seed=i)
        res = emp[AssociationEvent.SMALL]
        z = abs(res.value - expected) / max(res.ci_halfwidth / 1.96, 1e-12)
        worst_z = max(worst_z, z)
        if z > 3.0:
            failures.append(
                f"scenario {i}: analytic {expected:.5f} vs mc {res.value:.5f} is {z:.2f} s.e. apart"
            )
    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    ok = not failures
    _report(
        capsys, 1, ok,
        f"association closed form vs 1e5-trial MC on 10 scenarios: worst {worst_z:.2f} s.e. "
        f"(gate 3), {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_02_cluster_integral_single_cell_limit(capsys):
    # the cone integral with a one-cell cluster must reduce to the
    # noncooperative closed form on 20 random scenarios
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    failures = []
    for i in range(20):
        s = random_scenario(rng, cluster_sizes=(1,))
        diff = abs(assoc_prob_sbs_cluster(s) - assoc_prob_sbs_single(s))
        worst = max(worst, diff)
        if diff > 1e-4:
            failures.append(f"scenario {i}: cone integral off by {diff:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    ok = not failures
    _report(
        capsys, 2, ok,
        f"cluster association K=1 limit on 20 scenarios: worst |diff| {worst:.2e} "
        f"(tol 1e-4), {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_03_laplace_closed_form_vs_quadrature(capsys):
    # Beta-function closed form against direct radial integration on 50
    # random serving geometries, relative tolerance 1e-6
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    failures = []
    for i in range(50):
        ctx = random_laplace_context(rng)
        ref = analysis.laplace_interference_radial(ctx)
        val = analysis.laplace_interference(ctx)
        rel = abs(val - ref) / max(abs(ref), abs(val), 1e-300)
        worst = max(worst, rel)
        if rel > 1e-6:
            failures.append(f"context {i}: rel diff {rel:.2e} at s={ctx.s:.3g}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    ok = not failures
    _report(
        capsys, 3, ok,
        f"Laplace closed form vs radial quadrature on 50 contexts: worst rel "
        f"{worst:.2e} (tol 1e-6), {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_04_derivative_assembly_vs_finite_differences(capsys):
    # Taylor-recurrence derivatives of e^(-sN) L_I(s) against central
    # finite differences (orders 1-3, rel 1e-4, 20 contexts), plus exactness
    # of the recurrence itself on integer inputs up to order 60: y_j = c
    # gives exp(c * sum_j x^j / j) = (1 - x)^(-c), so t_k = C(k+c-1, k)
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    failures = []
    worst = 0.0
    checked = 0
    while checked < 20:
        ctx = random_laplace_context(rng)
        if not 1e-4 < ctx.s < 1e4:  # keep FD stencils inside float comfort
            continue

        def f(x):
            return analysis.laplace_derivative(replace(ctx, s=x), 0)

        s = ctx.s
        f0 = f(s)
        if f0 < 1e-300:  # subnormal transform values carry no FD digits
            continue
        checked += 1
        # step ~ 1/|d log f/ds| keeps stencil truncation flat on deep tails
        h0 = 1e-3 * s
        slope = (math.log(f(s + h0)) - math.log(f(s - h0))) / (2.0 * h0)
        h = 2e-3 * s / max(1.0, abs(slope) * s)

        stencils = {
            1: (f(s + h) - f(s - h)) / (2.0 * h),
            2: (f(s + h) - 2.0 * f0 + f(s - h)) / h**2,
            3: (f(s + 2 * h) - 2.0 * f(s + h) + 2.0 * f(s - h) - f(s - 2 * h))
            / (2.0 * h**3),
        }
        for k, fd in stencils.items():
            exact = analysis.laplace_derivative(ctx, k)
            rel = abs(exact - fd) / max(abs(fd), abs(exact), 1e-280)
            worst = max(worst, rel)
            if rel > 1e-4:
                failures.append(
                    f"context {checked}, order {k}: rel diff {rel:.2e} at s={s:.3g}"
                )
    for c in (1, 2, 3, 8):
        got = _taylor_terms([float(c)] * 60, 61)
        if got.tolist() != [math.comb(k + c - 1, k) for k in range(61)]:
            failures.append(f"Taylor recurrence inexact for y_j = {c}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    ok = not failures
    _report(
        capsys, 4, ok,
        f"derivatives vs finite differences, orders 1-3 on 20 contexts: worst rel "
        f"{worst:.2e} (tol 1e-4); assembly exact to order 60; {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_05_coverage_engines_agree(mc_batches, analytic_coverage_table, capsys):
    # every strategy x mode x {-5, 0, 5} dB cell: |analytic - MC| <= 0.03
    batches, mc_time = mc_batches
    table, an_time = analytic_coverage_table
    failures = []
    worst = 0.0
    for (strategy, mode), batch in batches.items():
        for tdb in THRESHOLDS_DB:
            mc = mcsim.coverage_from_batch(batch, 10.0 ** (tdb / 10.0)).value
            an = table[strategy, mode, tdb]
            diff = abs(an - mc)
            worst = max(worst, diff)
            if diff > 0.03:
                failures.append(
                    f"{strategy}/{mode}/{tdb:+.0f}dB: analytic {an:.4f} vs mc {mc:.4f}"
                )
    elapsed = mc_time + an_time
    if elapsed > 600.0:
        failures.append(f"engines took {elapsed:.0f}s, budget 600s")
    ok = not failures
    _report(
        capsys, 5, ok,
        f"coverage engines on 18 cells: worst |analytic-mc| {worst:.4f} "
        f"(tol 0.03), engines {elapsed:.0f}s",
    )
    assert ok, failures


def test_criterion_06_strategy_and_cooperation_orderings(mc_batches, capsys):
    # at 0 dB: beamforming > single-antenna > full multiplexing, and
    # cooperation never hurts; every margin must clear the summed CI widths
    batches, _ = mc_batches
    cov, ci = {}, {}
    for key, batch in batches.items():
        res = mcsim.coverage_from_batch(batch, 1.0)
        cov[key], ci[key] = res.value, res.ci_halfwidth
    failures = []
    details = []
    for mode in MODES:
        for hi, lo in (("SUBF", "SISO"), ("SISO", "SDMA")):
            margin = cov[hi, mode] - cov[lo, mode]
            gate = ci[hi, mode] + ci[lo, mode]
            details.append(f"{hi}>{lo}({mode[:4]}) +{margin:.3f}")
            if margin <= gate:
                failures.append(
                    f"{hi} vs {lo} in {mode}: margin {margin:.4f} <= CI sum {gate:.4f}"
                )
    for strategy in STRATEGY_NAMES:
        margin = cov[strategy, "cooperative"] - cov[strategy, "noncooperative"]
        gate = ci[strategy, "cooperative"] + ci[strategy, "noncooperative"]
        # same master seed => common random numbers; the paired CI shows the
        # comparison is far sharper than the marginal CIs suggest
        d = (batches[strategy, "cooperative"].sinr > 1.0).astype(float) - (
            batches[strategy, "noncooperative"].sinr > 1.0
        )
        paired = 1.96 * float(d.std(ddof=1)) / math.sqrt(len(d))
        details.append(f"coop-noncoop({strategy}) +{margin:.4f} (paired CI {paired:.4f})")
        if margin <= gate:
            failures.append(
                f"cooperation in {strategy}: margin {margin:.4f} <= CI sum {gate:.4f}"
            )
    ok = not failures
    _report(capsys, 6, ok, "0 dB orderings: " + ", ".join(details))
    assert ok, failures


def test_criterion_07_small_cell_densification_saturates(capsys):
    # analytic coverage vs density ratio 1..64 must be nondecreasing and
    # nearly flat by the last doubling (increment <= 0.02)
    base = default_scenario()
    ratios = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    failures = []
    details = []
    for mode in MODES:
        covs = []
        for rho in ratios:
            s = replace(base, small=replace(base.small, density=rho * base.macro.density))
            covs.append(analysis.coverage_overall(mode, s, 1.0))
        increments = [b - a for a, b in zip(covs, covs[1:])]
        if any(inc < -1e-4 for inc in increments):
            failures.append(f"{mode}: coverage decreases along the grid: {covs}")
        if increments[-1] > 0.02:
            failures.append(
                f"{mode}: last doubling still gains {increments[-1]:.4f} > 0.02"
            )
        details.append(f"{mode[:4]} {covs[0]:.4f}->{covs[-1]:.4f} last +{increments[-1]:.4f}")
    ok = not failures
    _report(capsys, 7, ok, "densification: " + ", ".join(details))
    assert ok, failures


def test_criterion_08_rate_orderings_and_engine_agreement(mc_batches, capsys):
    # cooperation must not reduce mean rate for any strategy, and the
    # analytic rate must land inside the MC confidence interval
    batches, _ = mc_batches
    failures = []
    details = []
    for strategy in STRATEGY_NAMES:
        rc = mcsim.rate_from_batch(batches[strategy, "cooperative"])
        rn = mcsim.rate_from_batch(batches[strategy, "noncooperative"])
        margin = rc.value - rn.value
        details.append(f"coop-noncoop({strategy}) +{margin:.3f}")
        if margin < -(rc.ci_halfwidth + rn.ci_halfwidth):
            failures.append(f"{strategy}: cooperation lowers rate by {-margin:.4f}")
    for mode in MODES:
        an = analysis.mean_rate(mode, default_scenario())
        mc = mcsim.rate_from_batch(batches["SISO", mode])
        diff = abs(an - mc.value)
        details.append(f"analytic-vs-mc({mode[:4]}) {diff:.4f}<=CI {mc.ci_halfwidth:.4f}")
        if diff > mc.ci_halfwidth:
            failures.append(
                f"{mode}: analytic rate {an:.4f} vs mc {mc.value:.4f} outside CI "
                f"{mc.ci_halfwidth:.4f}"
            )
    ok = not failures
    _report(capsys, 8, ok, "mean rate: " + ", ".join(details))
    assert ok, failures


def test_criterion_09_serving_distance_densities_normalize(capsys):
    # the four conditional serving-distance densities must integrate to 1
    s = default_scenario()
    failures = []
    details = []
    for event in (AssociationEvent.MACRO, AssociationEvent.SMALL, AssociationEvent.MACRO_COOP):
        pdf = serving_distance_pdf(event, s)
        val, _ = integrate.quad(pdf, 0.0, 80.0, epsabs=1e-9, limit=300)
        details.append(f"{event.value} {val:.7f}")
        if abs(val - 1.0) > 1e-6:
            failures.append(f"{event.value}: integral {val} (tol 1e-6)")
    pdf = serving_distance_pdf(AssociationEvent.CLUSTER, s)
    val, _ = integrate.dblquad(
        lambda r1, r2: pdf((r1, r2)), 0.0, 40.0, 0.0, lambda r2: r2, epsabs=1e-6
    )
    details.append(f"cluster {val:.5f}")
    if abs(val - 1.0) > 1e-4:
        failures.append(f"cluster: integral {val} (tol 1e-4)")
    joint, _ = integrate.dblquad(
        lambda r1, r2: ordered_distance_pdf(s, (r1, r2)),
        0.0, 40.0, 0.0, lambda r2: r2, epsabs=1e-6,
    )
    details.append(f"ordered pair {joint:.5f}")
    if abs(joint - 1.0) > 1e-4:
        failures.append(f"ordered-pair density: integral {joint} (tol 1e-4)")
    ok = not failures
    _report(capsys, 9, ok, "serving densities integrate to " + ", ".join(details))
    assert ok, failures


def test_criterion_10_outputs_identical_across_worker_counts(tmp_path, capsys):
    # the CLI's validate and sweep CSVs must be byte-identical for 1/4/8
    # worker threads
    failures = []
    validate_outputs = []
    for w in (1, 4, 8):
        out = tmp_path / f"validate_w{w}.csv"
        code = cli.main(
            ["validate", "--out", str(out), "--trials", "600", "--seed", "0",
             "--workers", str(w)]
        )
        if code != 0:
            failures.append(f"validate exited {code} with {w} workers")
        validate_outputs.append(out.read_bytes() if out.exists() else b"")
    if len(set(validate_outputs)) != 1:
        failures.append("validate CSVs differ across worker counts")
    sweep_outputs = []
    for w in (1, 4, 8):
        out = tmp_path / f"sweep_w{w}.csv"
        code = cli.main(
            ["coverage-sweep", "--out", str(out), "--engines", "mc",
             "--strategies", "SISO", "--modes", "noncooperative,cooperative",
             "--grid=-5,0,5", "--trials", "800", "--seed", "0",
             "--workers", str(w)]
        )
        if code != 0:
            failures.append(f"coverage-sweep exited {code} with {w} workers")
        sweep_outputs.append(out.read_bytes() if out.exists() else b"")
    if len(set(sweep_outputs)) != 1:
        failures.append("sweep CSVs differ across worker counts")
    ok = not failures
    _report(
        capsys, 10, ok,
        f"validate + sweep CSVs byte-identical across workers 1/4/8 "
        f"({len(validate_outputs[0])}B and {len(sweep_outputs[0])}B)",
    )
    assert ok, failures
