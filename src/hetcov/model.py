"""Domain types and per-tier derivations for the two-tier network model.

Conventions used throughout the package: distances in meters, densities in
points per m^2, powers in watts (dBm is accepted only at the config
boundary), path-loss exponent alpha > 2, SINR thresholds linear.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

NONCOOPERATIVE = "noncooperative"
COOPERATIVE = "cooperative"
MODES = (NONCOOPERATIVE, COOPERATIVE)

# Transmission strategy presets: (antennas, users) for (macro, small).
STRATEGIES = {
    "SISO": ((1, 1), (1, 1)),
    "SUBF": ((8, 1), (4, 1)),
    "SDMA": ((8, 8), (8, 8)),
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def dbm_to_watts(x: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(p: float) -> float:
    """Convert a power in watts to dBm. Requires p > 0."""
    if p <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {p}")
    return 10.0 * math.log10(p) + 30.0


def _check_range(name: str, value: float, inside: bool, rule: str) -> None:
    """Raise ValueError "<name> <rule>" unless inside, "<name> must be finite" for NaN and inf."""
    if not inside:
        what = rule if math.isfinite(value) else "must be finite"
        raise ValueError(f"{name} {what}, got {value}")


@dataclass(frozen=True)
class TierParams:
    """Parameters of one base-station tier.

    density   BS density, points per m^2
    power     transmit power per served user, watts
    antennas  transmit antennas per BS
    users     users served per resource block (zero-forcing beams)
    pathloss  path-loss exponent, > 2
    bias      association bias override; None means the load-balancing
              default sqrt(users / fading_order)
    """

    density: float
    power: float
    antennas: int
    users: int
    pathloss: float = 3.0
    bias: float | None = None

    def __post_init__(self):
        _check_range("density", self.density, 0.0 < self.density < math.inf, "must be positive")
        _check_range("power", self.power, 0.0 < self.power < math.inf, "must be positive")
        if not (isinstance(self.antennas, int) and isinstance(self.users, int)):
            raise ValueError("antennas and users must be integers")
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.antennas < self.users:
            raise ValueError(
                f"antennas ({self.antennas}) must be >= users ({self.users})"
            )
        _check_range(
            "pathloss exponent", self.pathloss, 2.0 < self.pathloss < math.inf, "must exceed 2"
        )
        if self.bias is not None:
            _check_range("bias override", self.bias, 0.0 < self.bias < math.inf, "must be positive")


@dataclass(frozen=True)
class DerivedTier:
    """Quantities derived from a tier's antenna configuration.

    fading_order  Gamma shape of the serving-link channel power under
                  zero-forcing: antennas - users + 1
    bias          association bias actually in effect
    """

    fading_order: int
    bias: float


def derive_tier(t: TierParams) -> DerivedTier:
    """Derive the serving-link fading order and the effective bias of a tier.

    The default bias sqrt(users / fading_order) equalizes load against the
    per-beam power split; an explicit override on the tier wins.
    """
    delta = t.antennas - t.users + 1
    bias = t.bias if t.bias is not None else math.sqrt(t.users / delta)
    return DerivedTier(fading_order=delta, bias=bias)


@dataclass(frozen=True)
class Numerics:
    """Quadrature controls for the analytic engine. mean_rate relaxes both
    for its coverage calls, quad_epsabs to at least 1e-8 and coverage_epsabs
    to at least 1e-4.

    quad_epsabs      absolute tolerance for association/pdf integrals
    coverage_epsabs  absolute tolerance for coverage probabilities; a
                     noisy link's scale average meets a tenth of it
    """

    quad_epsabs: float = 1e-10
    coverage_epsabs: float = 1e-6


@dataclass(frozen=True)
class Scenario:
    """A complete two-tier network description.

    macro/small   the two tiers, which must share one path-loss exponent
    cluster_size  number of nearest small cells cooperating (K >= 1)
    noise         receiver noise power in watts; 0 = interference-limited
    seed          default master seed for Monte Carlo runs, in [0, 2**128)
    numerics      quadrature controls for the analytic engine
    """

    macro: TierParams
    small: TierParams
    cluster_size: int = 1
    noise: float = 0.0
    seed: int = 0
    numerics: Numerics = field(default_factory=Numerics)

    def __post_init__(self):
        if not isinstance(self.cluster_size, int) or self.cluster_size < 1:
            raise ValueError(f"cluster_size must be an integer >= 1, got {self.cluster_size}")
        _check_range("noise power", self.noise, 0.0 <= self.noise < math.inf, "must be >= 0")
        if not 0 <= self.seed < 2**128:  # the Philox key range
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.macro.pathloss != self.small.pathloss:
            raise ValueError(
                "both tiers must share one path-loss exponent, got "
                f"{self.macro.pathloss} and {self.small.pathloss}"
            )

    @property
    def pathloss(self) -> float:
        """The shared path-loss exponent."""
        return self.macro.pathloss


@dataclass(frozen=True)
class TierRatios:
    """Small-over-macro parameter ratios plus the macro power advantage.

    power/fading/bias/density are small-tier over macro-tier ratios;
    macro_advantage is the ratio of macro to small biased mean received
    power at equal distance, 1 / (power * fading * bias).
    """

    power: float
    fading: float
    bias: float
    density: float
    macro_advantage: float


@lru_cache(maxsize=32)
def hat_ratios(s: Scenario) -> TierRatios:
    """Compute the tier ratios that the association and coverage math uses.

    Cached per scenario: every coverage call reads them several times, and
    the result is immutable."""
    dm, ds = derive_tier(s.macro), derive_tier(s.small)
    power = s.small.power / s.macro.power
    fading = ds.fading_order / dm.fading_order
    bias = ds.bias / dm.bias
    return TierRatios(
        power=power,
        fading=fading,
        bias=bias,
        density=s.small.density / s.macro.density,
        macro_advantage=1.0 / (power * fading * bias),
    )


def apply_strategy(s: Scenario, name: str) -> Scenario:
    """Return a copy of the scenario with a preset antenna configuration."""
    try:
        (mm, mu), (sm, su) = STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    return replace(
        s,
        macro=replace(s.macro, antennas=mm, users=mu),
        small=replace(s.small, antennas=sm, users=su),
    )


def default_scenario(
    strategy: str = "SISO",
    cluster_size: int = 2,
    noise: float = 0.0,
    seed: int = 0,
) -> Scenario:
    """Reference two-tier scenario: macro 0.01 /m^2 at 45 dBm, small cells
    0.04 /m^2 at 35 dBm, path-loss exponent 3."""
    s = Scenario(
        macro=TierParams(density=0.01, power=dbm_to_watts(45.0), antennas=1, users=1),
        small=TierParams(density=0.04, power=dbm_to_watts(35.0), antennas=1, users=1),
        cluster_size=cluster_size,
        noise=noise,
        seed=seed,
    )
    return apply_strategy(s, strategy)


@dataclass(frozen=True)
class MetricResult:
    """One coverage or rate figure with its provenance.

    value         the estimate
    method        "analytic" or "mc"
    ci_halfwidth  95% confidence half-width (MC only, else None)
    trials        Monte Carlo trial count (MC only, else None)
    """

    value: float
    method: str
    ci_halfwidth: float | None = None
    trials: int | None = None


_TIER_KEYS = {"density_per_m2", "power_dbm", "antennas", "users", "pathloss", "bias"}
_SCENARIO_KEYS = {"cluster_size", "noise_dbm", "seed"}


def _parse_tier(cfg: configparser.ConfigParser, section: str) -> TierParams:
    if not cfg.has_section(section):
        raise ConfigError(f"missing config section [{section}]")
    unknown = set(cfg[section]) - _TIER_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
    try:
        return TierParams(
            density=cfg.getfloat(section, "density_per_m2"),
            power=dbm_to_watts(cfg.getfloat(section, "power_dbm")),
            antennas=cfg.getint(section, "antennas"),
            users=cfg.getint(section, "users"),
            pathloss=cfg.getfloat(section, "pathloss", fallback=3.0),
            bias=cfg.getfloat(section, "bias") if cfg.has_option(section, "bias") else None,
        )
    except (configparser.NoOptionError, ValueError) as e:
        raise ConfigError(f"bad [{section}] section: {e}") from e


def load_config(path: str) -> Scenario:
    """Read a scenario from an INI file with [macro], [small], [scenario].

    Tier keys: density_per_m2, power_dbm, antennas, users, pathloss,
    bias (optional). Scenario keys: cluster_size, noise_dbm ("off" or a
    level in dBm; default off = interference-limited), seed. A ";" or "#"
    after whitespace starts a comment, also at the end of a value line.
    """
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    macro = _parse_tier(cfg, "macro")
    small = _parse_tier(cfg, "small")
    cluster_size, noise, seed = 1, 0.0, 0
    if cfg.has_section("scenario"):
        unknown = set(cfg["scenario"]) - _SCENARIO_KEYS
        if unknown:
            raise ConfigError(f"unknown key(s) in [scenario]: {sorted(unknown)}")
        try:
            cluster_size = cfg.getint("scenario", "cluster_size", fallback=1)
            seed = cfg.getint("scenario", "seed", fallback=0)
            noise_str = cfg.get("scenario", "noise_dbm", fallback="off")
            noise = 0.0 if noise_str.strip().lower() == "off" else dbm_to_watts(float(noise_str))
        except ValueError as e:
            raise ConfigError(f"bad [scenario] section: {e}") from e
    try:
        return Scenario(
            macro=macro,
            small=small,
            cluster_size=cluster_size,
            noise=noise,
            seed=seed,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def scenario_to_config(s: Scenario) -> configparser.ConfigParser:
    """Materialize a scenario back into config form (all defaults explicit)."""
    cfg = configparser.ConfigParser()
    for name, tier in (("macro", s.macro), ("small", s.small)):
        cfg[name] = {
            "density_per_m2": f"{tier.density:.12g}",
            "power_dbm": f"{watts_to_dbm(tier.power):.12g}",
            "antennas": str(tier.antennas),
            "users": str(tier.users),
            "pathloss": f"{tier.pathloss:.12g}",
        }
        if tier.bias is not None:
            cfg[name]["bias"] = f"{tier.bias:.12g}"
    cfg["scenario"] = {
        "cluster_size": str(s.cluster_size),
        "noise_dbm": "off" if s.noise == 0.0 else f"{watts_to_dbm(s.noise):.12g}",
        "seed": str(s.seed),
    }
    return cfg
