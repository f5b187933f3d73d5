"""What the traced run wraps, and the per-layer metrics it reports.

Each per-layer metric names the end-to-end metric and workload it should
move, written down before any optimisation is measured against it.
"""

from __future__ import annotations

# (module, function) -> span name. coverage_conditional gets one span name
# per association event (see EVENT_SPANS).
SPANNED = {
    ("specfun", "comp_inc_beta"): "specfun.comp_inc_beta",
    ("specfun", "faa_coefficient"): "specfun.faa_coefficient",
    ("specfun", "sample_gamma"): "specfun.sample_gamma",
    ("association", "assoc_prob_sbs_cluster"): "association.assoc_prob_sbs_cluster",
    ("association", "mbs_win_prob"): "association.mbs_win_prob",
    ("association", "select_tier"): "association.select_tier",
    ("analysis", "coverage_overall"): "analysis.coverage_overall",
    ("analysis", "log_laplace_derivative"): "analysis.log_laplace_derivative",
    ("analysis", "mean_rate"): "analysis.mean_rate",
    ("mcsim", "run_trials"): "mcsim.run_trials",
    ("mcsim", "generate_ppp"): "mcsim.generate_ppp",
    ("mcsim", "sample_network"): "mcsim.sample_network",
    ("mcsim", "simulate_trial"): "mcsim.simulate_trial",
    ("mcsim", "empirical_association"): "mcsim.empirical_association",
    ("cli", "run_sweep"): "cli.run_sweep",
    ("cli", "validate"): "cli.validate",
    ("cli", "write_csv"): "cli.write_csv",
}
EVENTS = ("macro", "small", "macro_coop", "cluster")
EVENT_SPANS = {e: f"analysis.coverage_conditional.{e}" for e in EVENTS}
# scipy.integrate.quad, counted only where these modules call it.
QUAD_CALLERS = ("analysis", "association")
QUAD_SPAN = "quad"
# Called too often for a span; counted only.
COUNTED = {("model", "derive_tier"): "model.derive_tier.calls"}
ROOT_SPAN = "bench.unit"

SPAN_NAMES = (
    (ROOT_SPAN, QUAD_SPAN) + tuple(SPANNED.values()) + tuple(EVENT_SPANS.values())
)

_AC = "wall_s on analytic-coverage"
_VA = "wall_s on validate"
_MC = "mcsim.run_trials.trials_per_s on mc-batch"

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("specfun.comp_inc_beta.calls", "count", "lower", f"{_AC} (SDMA cells), {_VA}"),
    ("specfun.comp_inc_beta.self_s", "s", "lower", f"{_AC} (SDMA cells), {_VA}"),
    ("specfun.faa_coefficient.calls", "count", "lower", f"{_AC} (SUBF cells only)"),
    ("specfun.faa_coefficient.self_s", "s", "lower", f"{_AC} (SUBF cells only)"),
    ("specfun.sample_gamma.calls", "count", "lower", _MC),
    ("specfun.sample_gamma.self_s", "s", "lower", _MC),
    ("association.assoc_prob_sbs_cluster.calls", "count", "lower", f"{_VA}, {_AC}"),
    ("association.assoc_prob_sbs_cluster.s", "s", "lower", f"{_VA}, {_AC}"),
    ("association.mbs_win_prob.calls", "count", "lower", _AC),
    ("association.mbs_win_prob.self_s", "s", "lower", _AC),
    ("association.select_tier.calls", "count", "lower", _MC),
    ("association.select_tier.self_s", "s", "lower", _MC),
    ("analysis.coverage_overall.calls", "count", "lower", f"{_AC}, {_VA}"),
    ("analysis.coverage_overall.s", "s", "lower", f"{_AC}, {_VA}"),
    ("analysis.coverage_conditional.macro.s", "s", "lower", _AC),
    ("analysis.coverage_conditional.small.s", "s", "lower", _AC),
    ("analysis.coverage_conditional.macro_coop.s", "s", "lower", f"{_AC} (scaled-cone route)"),
    ("analysis.coverage_conditional.cluster.s", "s", "lower", f"{_AC} (cone integral)"),
    ("analysis.log_laplace_derivative.calls", "count", "lower", f"{_AC}; stays 0 on validate"),
    ("analysis.log_laplace_derivative.self_s", "s", "lower", f"{_AC}; stays ~0 elsewhere"),
    ("analysis.mean_rate.s", "s", "lower", f"{_VA} only"),
    ("analysis.mean_rate.coverage_calls", "count", "lower", f"{_VA} only"),
    ("quad.calls", "count", "lower", "every analytic wall_s"),
    ("quad.self_s", "s", "lower", "every analytic wall_s"),
    ("mcsim.run_trials.s", "s", "lower", "wall_s on mc-batch and validate"),
    ("mcsim.run_trials.trials_per_s", "1/s", "higher", "wall_s on mc-batch"),
    ("mcsim.run_trials.trials_per_s_w2", "1/s", "higher", "wall_s on mc-batch"),
    ("mcsim.generate_ppp.calls", "count", "lower", f"{_MC}, {_VA}"),
    ("mcsim.generate_ppp.points", "count", "lower", f"{_MC}, {_VA}"),
    ("mcsim.generate_ppp.self_s", "s", "lower", f"{_MC}, {_VA}"),
    ("mcsim.sample_network.self_s", "s", "lower", f"{_MC}, {_VA}"),
    ("mcsim.simulate_trial.self_s", "s", "lower", f"{_MC}, {_VA}"),
    ("mcsim.draws_per_trial", "ratio", "higher", f"{_MC}; 1.0 when no trial resamples"),
    ("mcsim.empirical_association.s", "s", "lower", _VA),
    ("cli.run_sweep.self_s", "s", "lower", _AC),
    ("cli.validate.self_s", "s", "lower", _VA),
    ("cli.write_csv.s", "s", "lower", _VA),
    ("model.derive_tier.calls", "count", "lower", "per-trial and per-kernel overhead"),
    ("trace.wall_s", "s", "lower", "traced pass wall time, the base of trace.overhead_s"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s of the same run"),
)

SUFFIX_STAT = {"calls": "calls", "s": "total_s", "self_s": "self_s"}
