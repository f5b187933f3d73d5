"""Domain types, unit conversion, derived tier quantities, config I/O."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetcov.model import (
    ConfigError,
    MODES,
    Scenario,
    STRATEGIES,
    TierParams,
    apply_strategy,
    dbm_to_watts,
    default_scenario,
    derive_tier,
    hat_ratios,
    load_config,
    scenario_to_config,
    watts_to_dbm,
)


class TestPowerConversion:
    def test_reference_points(self):
        assert dbm_to_watts(30.0) == 1.0
        assert_allclose(dbm_to_watts(45.0), 10.0**1.5, rtol=1e-15)
        assert_allclose(dbm_to_watts(35.0), 10.0**0.5, rtol=1e-15)
        assert_allclose(dbm_to_watts(0.0), 1e-3, rtol=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-40.0, 60.0, size=50):
            assert_allclose(watts_to_dbm(dbm_to_watts(x)), x, atol=1e-10)

    def test_watts_to_dbm_domain(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)


class TestTierParams:
    def test_valid(self):
        t = TierParams(density=0.01, power=1.0, antennas=8, users=3)
        assert t.pathloss == 3.0 and t.bias is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(density=0.0, power=1.0, antennas=1, users=1),
            dict(density=0.01, power=0.0, antennas=1, users=1),
            dict(density=0.01, power=1.0, antennas=1, users=2),  # antennas < users
            dict(density=0.01, power=1.0, antennas=1, users=0),
            dict(density=0.01, power=1.0, antennas=1, users=1, pathloss=2.0),
            dict(density=0.01, power=1.0, antennas=1, users=1, bias=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TierParams(**kwargs)

    def test_integer_fields_enforced(self):
        with pytest.raises(ValueError):
            TierParams(density=0.01, power=1.0, antennas=2.5, users=1)

    @pytest.mark.parametrize(
        "value", ["finite", math.nan, math.inf, -math.inf], ids=["finite", "nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize(
        "field, name, bad, rule",
        [
            ("density", "density", 0.0, "must be positive"),
            ("power", "power", -1.0, "must be positive"),
            ("pathloss", "pathloss exponent", 2.0, "must exceed 2"),
            ("bias", "bias override", 0.0, "must be positive"),
        ],
        ids=["density", "power", "pathloss", "bias"],
    )
    def test_out_of_range_messages(self, field, name, bad, rule, value):
        # NaN and inf passed the old "<= bound" tests; a finite value out of
        # range keeps its wording
        kwargs = dict(density=0.01, power=1.0, antennas=1, users=1)
        kwargs[field] = bad if value == "finite" else value
        expected = f"{name} {rule}" if value == "finite" else f"{name} must be finite"
        with pytest.raises(ValueError, match=f"^{expected}, got"):
            TierParams(**kwargs)


class TestDeriveTier:
    def test_strategy_presets(self):
        siso = derive_tier(TierParams(density=1.0, power=1.0, antennas=1, users=1))
        assert siso.fading_order == 1 and siso.bias == 1.0
        subf = derive_tier(TierParams(density=1.0, power=1.0, antennas=8, users=1))
        assert subf.fading_order == 8
        assert_allclose(subf.bias, math.sqrt(1.0 / 8.0), rtol=1e-15)
        sdma = derive_tier(TierParams(density=1.0, power=1.0, antennas=8, users=8))
        assert sdma.fading_order == 1
        assert_allclose(sdma.bias, math.sqrt(8.0), rtol=1e-15)

    def test_fading_order_exhaustive(self):
        for antennas in range(1, 17):
            for users in range(1, antennas + 1):
                t = TierParams(density=1.0, power=1.0, antennas=antennas, users=users)
                assert derive_tier(t).fading_order == antennas - users + 1

    def test_override_wins(self):
        t = TierParams(density=1.0, power=1.0, antennas=8, users=1, bias=2.5)
        assert derive_tier(t).bias == 2.5

    def test_full_multiplex_matches_single_antenna(self):
        # antennas == users leaves the same per-link fading order as 1x1
        for n in (2, 4, 8):
            t = TierParams(density=1.0, power=1.0, antennas=n, users=n)
            assert derive_tier(t).fading_order == 1


class TestHatRatios:
    def test_symmetric(self):
        t = TierParams(density=0.02, power=3.0, antennas=4, users=2)
        r = hat_ratios(Scenario(macro=t, small=t))
        for value in (r.power, r.fading, r.bias, r.density, r.macro_advantage):
            assert_allclose(value, 1.0, rtol=1e-15)

    def test_power_ratio_only(self):
        macro = TierParams(density=0.01, power=10.0, antennas=1, users=1)
        small = TierParams(density=0.01, power=1.0, antennas=1, users=1)
        r = hat_ratios(Scenario(macro=macro, small=small))
        assert_allclose(r.power, 0.1, rtol=1e-15)
        assert_allclose(r.macro_advantage, 10.0, rtol=1e-15)

    def test_reference_scenario(self):
        r = hat_ratios(default_scenario())
        assert_allclose(r.power, 0.1, rtol=1e-12)
        assert_allclose(r.fading, 1.0, rtol=1e-15)
        assert_allclose(r.bias, 1.0, rtol=1e-15)
        assert_allclose(r.density, 4.0, rtol=1e-15)
        assert_allclose(r.macro_advantage, 10.0, rtol=1e-12)

    def test_multiantenna_advantage(self):
        # 8-antenna beamforming macro vs 4-antenna small: advantage 10*sqrt(2)
        r = hat_ratios(default_scenario(strategy="SUBF"))
        assert_allclose(r.fading, 0.5, rtol=1e-15)
        assert_allclose(r.bias, math.sqrt(2.0), rtol=1e-14)
        assert_allclose(r.macro_advantage, 10.0 * math.sqrt(2.0), rtol=1e-12)

    def test_swap_gives_reciprocals(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = float(rng.uniform(2.2, 5.0))
            mk = lambda: TierParams(
                density=float(rng.uniform(0.001, 0.1)),
                power=float(rng.uniform(0.1, 50.0)),
                antennas=int(rng.integers(1, 9)),
                users=1,
                pathloss=alpha,
            )
            a, b = mk(), mk()
            fwd = hat_ratios(Scenario(macro=a, small=b))
            rev = hat_ratios(Scenario(macro=b, small=a))
            assert_allclose(fwd.power * rev.power, 1.0, rtol=1e-12)
            assert_allclose(fwd.density * rev.density, 1.0, rtol=1e-12)
            assert_allclose(fwd.macro_advantage * rev.macro_advantage, 1.0, rtol=1e-12)

    def test_advantage_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            alpha = float(rng.uniform(2.2, 5.0))
            antennas = int(rng.integers(2, 9))
            s = Scenario(
                macro=TierParams(
                    density=0.01, power=float(rng.uniform(1, 40)),
                    antennas=antennas, users=int(rng.integers(1, antennas + 1)),
                    pathloss=alpha,
                ),
                small=TierParams(
                    density=0.04, power=float(rng.uniform(0.1, 5)),
                    antennas=4, users=int(rng.integers(1, 5)), pathloss=alpha,
                ),
            )
            r = hat_ratios(s)
            assert_allclose(r.macro_advantage * r.power * r.fading * r.bias, 1.0, rtol=1e-12)


class TestScenario:
    def test_cluster_size_validation(self):
        t = TierParams(density=0.01, power=1.0, antennas=1, users=1)
        with pytest.raises(ValueError):
            Scenario(macro=t, small=t, cluster_size=0)
        with pytest.raises(ValueError):
            Scenario(macro=t, small=t, cluster_size=1.5)

    def test_noise_validation(self):
        t = TierParams(density=0.01, power=1.0, antennas=1, users=1)
        with pytest.raises(ValueError):
            Scenario(macro=t, small=t, noise=-1e-9)

    @pytest.mark.parametrize(
        "noise, expected",
        [(-1e-9, "must be >= 0"), (math.nan, "must be finite"), (math.inf, "must be finite")],
        ids=["negative", "nan", "inf"],
    )
    def test_noise_range_messages(self, noise, expected):
        t = TierParams(density=0.01, power=1.0, antennas=1, users=1)
        with pytest.raises(ValueError, match=f"^noise power {expected}, got"):
            Scenario(macro=t, small=t, noise=noise)

    def test_seed_validation(self):
        # a Philox key is in [0, 2**128); seed 0 is the default
        t = TierParams(density=0.01, power=1.0, antennas=1, users=1)
        assert Scenario(macro=t, small=t, seed=0).seed == 0
        assert Scenario(macro=t, small=t, seed=2**128 - 1).seed == 2**128 - 1
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                Scenario(macro=t, small=t, seed=seed)

    def test_common_pathloss_enforced(self):
        a = TierParams(density=0.01, power=1.0, antennas=1, users=1, pathloss=3.0)
        b = TierParams(density=0.04, power=1.0, antennas=1, users=1, pathloss=3.5)
        with pytest.raises(ValueError):
            Scenario(macro=a, small=b)

    def test_pathloss_property(self):
        assert default_scenario().pathloss == 3.0


class TestStrategies:
    def test_presets(self):
        assert set(STRATEGIES) == {"SISO", "SUBF", "SDMA"}
        base = default_scenario()
        subf = apply_strategy(base, "SUBF")
        assert (subf.macro.antennas, subf.macro.users) == (8, 1)
        assert (subf.small.antennas, subf.small.users) == (4, 1)
        sdma = apply_strategy(base, "SDMA")
        assert (sdma.macro.antennas, sdma.macro.users) == (8, 8)
        assert (sdma.small.antennas, sdma.small.users) == (8, 8)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            apply_strategy(default_scenario(), "MIMO")

    def test_default_scenario(self):
        s = default_scenario()
        assert s.macro.density == 0.01 and s.small.density == 0.04
        assert_allclose(s.macro.power, dbm_to_watts(45.0), rtol=1e-15)
        assert_allclose(s.small.power, dbm_to_watts(35.0), rtol=1e-15)
        assert s.cluster_size == 2 and s.noise == 0.0
        assert s.pathloss == 3.0

    def test_modes_constant(self):
        assert MODES == ("noncooperative", "cooperative")


CONFIG_TEXT = """
[macro]
density_per_m2 = 0.01
power_dbm = 45
antennas = 8
users = 1
pathloss = 3.2

[small]
density_per_m2 = 0.04
power_dbm = 35
antennas = 4
users = 1
pathloss = 3.2
bias = 0.7

[scenario]
cluster_size = 2
noise_dbm = off
seed = 42
"""


class TestConfigIO:
    def test_load(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(CONFIG_TEXT)
        s = load_config(str(path))
        assert s.macro.antennas == 8 and s.small.antennas == 4
        assert_allclose(s.macro.power, dbm_to_watts(45.0), rtol=1e-12)
        assert s.small.bias == 0.7 and s.macro.bias is None
        assert s.cluster_size == 2 and s.noise == 0.0 and s.seed == 42
        assert s.pathloss == 3.2

    def test_noise_in_dbm(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(CONFIG_TEXT.replace("noise_dbm = off", "noise_dbm = -90"))
        s = load_config(str(path))
        assert_allclose(s.noise, dbm_to_watts(-90.0), rtol=1e-12)

    def test_roundtrip(self, tmp_path):
        original = replace(default_scenario(strategy="SUBF"), seed=9)
        path = tmp_path / "echo.ini"
        with open(path, "w") as f:
            scenario_to_config(original).write(f)
        loaded = load_config(str(path))
        assert loaded.cluster_size == original.cluster_size
        assert loaded.seed == original.seed
        for name in ("macro", "small"):
            a, b = getattr(loaded, name), getattr(original, name)
            assert (a.antennas, a.users, a.bias) == (b.antennas, b.users, b.bias)
            assert_allclose(a.density, b.density, rtol=1e-10)
            assert_allclose(a.power, b.power, rtol=1e-10)
            assert_allclose(a.pathloss, b.pathloss, rtol=1e-10)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[macro]\ndensity_per_m2 = 0.01\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace("users = 1\npathloss = 3.2\nbias", "users = 1\npathloss = 3.2\nheight = 10\nbias"))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_invalid_values_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace("antennas = 4", "antennas = 4.5"))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace("seed = 42", "seed = -1"))
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[small]\ndensity_per_m2 = 0.04", "[small]\ndensity_per_m2 = nan"),
            ("power_dbm = 45", "power_dbm = inf"),
            ("noise_dbm = off", "noise_dbm = nan"),
        ],
        ids=["nan-density", "inf-power", "nan-noise"],
    )
    def test_non_finite_values_rejected(self, tmp_path, old, new):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(ConfigError, match="must be finite"):
            load_config(str(path))

    def test_inconsistent_tier_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace("[small]\ndensity_per_m2 = 0.04", "[small]\ndensity_per_m2 = -1"))
        with pytest.raises(ConfigError):
            load_config(str(path))
