"""Sweep specification, sweep execution, CSV/sidecar output, the validate
subcommand, and exit codes."""

import configparser
import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetcov import cli
from hetcov.cli import (
    CSV_COLUMNS,
    CheckResult,
    SweepSpec,
    _scenario_for,
    run_sweep,
    validate,
    validate_rows,
    write_csv,
    write_sidecar,
)
from hetcov.model import (
    apply_strategy,
    dbm_to_watts,
    default_scenario,
    derive_tier,
    load_config,
    scenario_to_config,
)


def spec_kwargs(**overrides):
    kw = dict(
        variable="threshold_db",
        grid=(-5.0, 0.0, 5.0),
        strategies=("SISO",),
        modes=("noncooperative",),
        engines=("analytic",),
        trials=100,
        master_seed=0,
    )
    kw.update(overrides)
    return kw


class TestSweepSpec:
    def test_valid(self):
        spec = SweepSpec(**spec_kwargs())
        assert spec.metric == "coverage"
        assert spec.workers == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"variable": "frequency"},
            {"grid": ()},
            {"grid": (0.0, 0.0)},
            {"grid": (1.0, -1.0)},
            {"strategies": ()},
            {"strategies": ("MIMO",)},
            {"modes": ()},
            {"modes": ("solo",)},
            {"engines": ("fem",)},
            {"trials": 0},
            {"workers": 0},
            {"metric": "throughput"},
        ],
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            SweepSpec(**spec_kwargs(**bad))


class TestScenarioFor:
    def test_threshold_variable_leaves_scenario_alone(self):
        base = default_scenario()
        assert _scenario_for(base, "SISO", "threshold_db", 5.0) == apply_strategy(base, "SISO")

    def test_bias_ratio_scales_small_bias(self):
        base = default_scenario()
        scn = _scenario_for(base, "SUBF", "bias_ratio", 2.0)
        macro_bias = derive_tier(scn.macro).bias
        assert_allclose(scn.small.bias, 2.0 * macro_bias, rtol=1e-12)

    def test_density_ratio_scales_small_density(self):
        base = default_scenario()
        scn = _scenario_for(base, "SISO", "density_ratio", 16.0)
        assert_allclose(scn.small.density, 16.0 * scn.macro.density, rtol=1e-12)

    def test_power_sets_macro_watts(self):
        base = default_scenario()
        scn = _scenario_for(base, "SISO", "power_macro_dbm", 40.0)
        assert_allclose(scn.macro.power, dbm_to_watts(40.0), rtol=1e-12)


class TestRunSweep:
    def test_row_count_and_schema(self):
        spec = SweepSpec(**spec_kwargs(modes=("noncooperative", "cooperative")))
        rows = run_sweep(spec, default_scenario())
        assert len(rows) == 3 * 1 * 2 * 1
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)
            assert row["error"] == ""
            assert row["trials"] == ""  # analytic rows carry no trial count

    def test_analytic_coverage_decreases_with_threshold(self):
        spec = SweepSpec(**spec_kwargs())
        rows = run_sweep(spec, default_scenario())
        values = [float(r["result"]) for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_analytic_engine_never_simulates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("analytic sweep must not touch the simulator")

        monkeypatch.setattr(cli.mcsim, "run_trials", boom)
        rows = run_sweep(SweepSpec(**spec_kwargs()), default_scenario())
        assert all(r["error"] == "" for r in rows)

    def test_mc_engine_never_integrates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("mc sweep must not touch the analytic engine")

        monkeypatch.setattr(cli.analysis, "coverage_overall", boom)
        monkeypatch.setattr(cli.analysis, "mean_rate", boom)
        spec = SweepSpec(**spec_kwargs(engines=("mc",), trials=50))
        rows = run_sweep(spec, default_scenario())
        assert all(r["error"] == "" for r in rows)
        assert all(r["trials"] == "50" for r in rows)

    def test_mc_batch_shared_across_thresholds(self, monkeypatch):
        calls = []
        real = cli.mcsim.run_trials

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.mcsim, "run_trials", counting)
        spec = SweepSpec(**spec_kwargs(engines=("mc",), trials=40))
        run_sweep(spec, default_scenario())
        assert len(calls) == 1  # one batch reused across the 3 grid values

    def test_cell_error_is_recorded_not_raised(self):
        # bias_ratio -1 makes the small-tier bias invalid for that cell only
        spec = SweepSpec(**spec_kwargs(variable="bias_ratio", grid=(-1.0, 1.0)))
        rows = run_sweep(spec, default_scenario())
        assert len(rows) == 2
        assert rows[0]["error"] != "" and rows[0]["result"] == ""
        assert rows[1]["error"] == "" and rows[1]["result"] != ""


class TestCsvAndSidecar:
    def test_csv_layout(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = run_sweep(SweepSpec(**spec_kwargs()), default_scenario())
        write_csv(rows, str(out))
        text = out.read_text()
        assert "\r" not in text
        parsed = list(csv.reader(text.splitlines()))
        assert parsed[0] == list(CSV_COLUMNS)
        assert len(parsed) == 1 + len(rows)

    def test_identical_csv_for_any_worker_count(self, tmp_path):
        outputs = []
        for workers in (1, 4):
            spec = SweepSpec(
                **spec_kwargs(
                    grid=(-5.0, 0.0),
                    modes=("noncooperative", "cooperative"),
                    engines=("mc",),
                    trials=400,
                    workers=workers,
                )
            )
            out = tmp_path / f"w{workers}.csv"
            write_csv(run_sweep(spec, default_scenario()), str(out))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_sidecar_roundtrips_scenario(self, tmp_path):
        out = tmp_path / "sweep.csv"
        scenario = default_scenario(strategy="SUBF")
        sidecar = write_sidecar(str(out), scenario, {"command": "coverage-sweep"})
        assert sidecar == str(out) + ".config.ini"
        loaded = load_config(sidecar)  # the extra [run] section must not break parsing
        for tier_a, tier_b in ((loaded.macro, scenario.macro), (loaded.small, scenario.small)):
            assert_allclose(tier_a.density, tier_b.density, rtol=1e-9)
            assert_allclose(tier_a.power, tier_b.power, rtol=1e-9)
            assert tier_a.antennas == tier_b.antennas
            assert tier_a.users == tier_b.users
        assert loaded.cluster_size == scenario.cluster_size
        assert loaded.noise == scenario.noise
        assert loaded.seed == scenario.seed


class TestValidate:
    def test_all_checks_pass_on_consistent_engines(self):
        checks = validate(default_scenario(), trials=800, master_seed=0)
        names = {c.name for c in checks}
        assert names == {
            "association",
            "coverage_0dB",
            "mean_rate",
            "cluster_k1_reduction",
            "laplace_oracle",
        }
        failing = [c for c in checks if not c.passed]
        assert failing == []

    def test_inconsistent_simulator_is_caught(self):
        # feed the simulator a different antenna profile: the coverage checks
        # must fail while the analytic-only checks still pass
        scn = default_scenario()
        checks = validate(
            scn,
            trials=800,
            master_seed=0,
            mc_scenario=apply_strategy(scn, "SDMA"),
        )
        by_name = {}
        for c in checks:
            by_name.setdefault(c.name, []).append(c)
        assert any(not c.passed for c in by_name["coverage_0dB"])
        assert all(c.passed for c in by_name["cluster_k1_reduction"])
        assert all(c.passed for c in by_name["laplace_oracle"])

    def test_validate_rows_schema(self):
        checks = [CheckResult("demo", "-", 0.1, 0.5), CheckResult("demo2", "-", 0.9, 0.5)]
        rows = validate_rows(checks, trials=10, master_seed=3)
        assert [set(r) for r in rows] == [set(CSV_COLUMNS)] * 2
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == "check failed"


class TestMain:
    def test_missing_config_file_exits_2(self, capsys):
        code = cli.main(["validate", "--config", "/no/such/file.ini", "--trials", "10"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_without_out_exits_2(self, capsys):
        code = cli.main(["coverage-sweep", "--trials", "5", "--engines", "analytic"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "coverage-sweep"])
    def test_mixed_pathloss_config_exits_2(self, tmp_path, capsys, command):
        # no engine can evaluate tiers with distinct path-loss exponents
        cfg = scenario_to_config(default_scenario())
        cfg["small"]["pathloss"] = "3.5"
        config = tmp_path / "mixed.ini"
        with open(config, "w") as f:
            cfg.write(f)
        out = tmp_path / "cov.csv"
        code = cli.main([command, "--config", str(config), "--out", str(out), "--trials", "10"])
        assert code == 2
        assert "path-loss exponent" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_engine_list_exits_2(self, capsys):
        code = cli.main(
            ["coverage-sweep", "--out", "/tmp/x.csv", "--engines", "quantum"]
        )
        assert code == 2

    def test_validate_exit_codes_follow_checks(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "validate", lambda *a, **k: [CheckResult("stub", "-", 0.1, 0.5)]
        )
        assert cli.main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out
        monkeypatch.setattr(
            cli, "validate", lambda *a, **k: [CheckResult("stub", "-", 0.9, 0.5)]
        )
        assert cli.main(["validate"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_end_to_end_analytic_sweep(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        code = cli.main(
            [
                "coverage-sweep",
                "--out", str(out),
                "--engines", "analytic",
                "--strategies", "SISO",
                "--modes", "noncooperative",
                "--grid=-5,0,5",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert (tmp_path / "cov.csv.config.ini").exists()
        assert "wrote 3 rows" in capsys.readouterr().out

    def test_density_sweep_maps_to_density_ratio(self, tmp_path):
        out = tmp_path / "dens.csv"
        code = cli.main(
            [
                "density-sweep",
                "--out", str(out),
                "--engines", "analytic",
                "--strategies", "SISO",
                "--modes", "noncooperative",
                "--grid", "1,4",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["sweep_variable"] for r in rows} == {"density_ratio"}

    @pytest.mark.parametrize("argv_seed, expected", [([], "7"), (["--seed", "3"], "3")])
    def test_config_seed_is_the_default_seed(self, tmp_path, argv_seed, expected):
        config = tmp_path / "scenario.ini"
        with open(config, "w") as f:
            scenario_to_config(default_scenario(seed=7)).write(f)
        out = tmp_path / "cov.csv"
        code = cli.main(
            [
                "coverage-sweep",
                "--config", str(config),
                "--out", str(out),
                "--engines", "analytic",
                "--strategies", "SISO",
                "--modes", "noncooperative",
                "--grid", "0",
                *argv_seed,
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["seed"] for r in rows] == [expected]
        sidecar = configparser.ConfigParser()
        sidecar.read(str(out) + ".config.ini")
        assert sidecar["scenario"]["seed"] == sidecar["run"]["seed"] == expected
