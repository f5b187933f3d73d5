"""Coverage and rate analysis for two-tier multi-antenna cellular networks.

Two engines over one scenario model: ``analysis`` evaluates the coverage
probability and mean achievable rate by numerical integration of the
interference Laplace transform; ``mcsim`` estimates the same quantities by
direct simulation of Poisson-dropped base stations with Gamma fading. The
``cli`` module drives both over parameter sweeps.
"""

from .association import AssociationEvent, association_probabilities, select_tier
from .analysis import coverage_overall, mean_rate
from .mcsim import empirical_association, run_modes, run_trials
from .model import (
    COOPERATIVE,
    MODES,
    NONCOOPERATIVE,
    STRATEGIES,
    Scenario,
    TierParams,
    apply_strategy,
    default_scenario,
    load_config,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationEvent",
    "COOPERATIVE",
    "MODES",
    "NONCOOPERATIVE",
    "STRATEGIES",
    "Scenario",
    "TierParams",
    "apply_strategy",
    "association_probabilities",
    "coverage_overall",
    "default_scenario",
    "empirical_association",
    "load_config",
    "mean_rate",
    "run_modes",
    "run_trials",
    "select_tier",
    "__version__",
]
