"""Sweep specification, sweep execution, CSV/sidecar output, the validate
subcommand, and exit codes."""

import configparser
import csv
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetcov import cli, mcsim
from hetcov.cli import (
    CSV_COLUMNS,
    DEFAULT_GRIDS,
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
    MODES,
    NONCOOPERATIVE,
    STRATEGIES,
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
            {"master_seed": -1},
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
        monkeypatch.setattr(cli.mcsim, "run_modes", boom)
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

    @staticmethod
    def count_draws(monkeypatch, modes) -> int:
        """run_modes calls of an MC threshold sweep over the given modes."""
        calls = []
        real = cli.mcsim.run_modes

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.mcsim, "run_modes", counting)
        spec = SweepSpec(**spec_kwargs(engines=("mc",), trials=40, modes=modes))
        rows = run_sweep(spec, default_scenario())
        assert len(rows) == 3 * len(modes)
        assert all(r["error"] == "" for r in rows)
        return len(calls)

    def test_mc_batch_shared_across_thresholds(self, monkeypatch):
        # one batch reused across the 3 grid values
        assert self.count_draws(monkeypatch, ("noncooperative",)) == 1

    def test_mc_batch_shared_across_modes(self, monkeypatch):
        # one draw serves both modes as well as the 3 grid values
        assert self.count_draws(monkeypatch, ("noncooperative", "cooperative")) == 1

    def test_cell_error_is_recorded_not_raised(self):
        # bias_ratio -1 makes the small-tier bias invalid for that cell only
        spec = SweepSpec(**spec_kwargs(variable="bias_ratio", grid=(-1.0, 1.0)))
        rows = run_sweep(spec, default_scenario())
        assert len(rows) == 2
        assert rows[0]["error"] != "" and rows[0]["result"] == ""
        assert rows[1]["error"] == "" and rows[1]["result"] != ""


class TestOptimalBias:
    """The paper's claim that a finite bias maximizes coverage, on the CLI's
    default bias_ratio grid at 0 dB."""

    def test_coverage_peaks_inside_the_grid(self):
        grid = DEFAULT_GRIDS["bias_ratio"]
        spec = SweepSpec(**spec_kwargs(
            variable="bias_ratio", grid=grid, strategies=tuple(STRATEGIES), modes=MODES
        ))
        curves = {}
        for row in run_sweep(spec, default_scenario()):
            assert row["error"] == "", row
            curves.setdefault((row["strategy"], row["mode"]), []).append(float(row["result"]))
        assert len(curves) == 6
        peak = {}
        for key, cov in curves.items():
            i = peak[key] = int(np.argmax(cov))
            assert 0 < i < len(grid) - 1, (key, cov)
            assert all(a < b for a, b in zip(cov[:i], cov[1 : i + 1])), (key, cov)
            assert all(a > b for a, b in zip(cov[i:], cov[i + 1 :])), (key, cov)

        # simulation agrees at SDMA's noncooperative optimum, in both modes
        i = peak["SDMA", NONCOOPERATIVE]
        scn = _scenario_for(default_scenario(), "SDMA", "bias_ratio", grid[i])
        for mode, batch in mcsim.run_modes(scn, MODES, 4000, 0).items():
            mc = mcsim.coverage_from_batch(batch, 1.0)
            analytic = curves["SDMA", mode][i]
            assert abs(analytic - mc.value) <= 0.03 + 2.0 * mc.ci_halfwidth, (mode, analytic, mc)


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

    def test_validate_imports_no_scipy_integrate(self):
        # a fresh interpreter: the test modules themselves import scipy.integrate
        script = textwrap.dedent("""
            import contextlib, io, sys
            import hetcov, hetcov.cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = hetcov.cli.main(["validate", "--trials", "200"])
            heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse")
            print(code, *[m for m in heavy if m in sys.modules])
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.split() == ["0"], done.stdout

    def test_bad_engine_list_exits_2(self, capsys):
        code = cli.main(
            ["coverage-sweep", "--out", "/tmp/x.csv", "--engines", "quantum"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["--trials", "0"], ["--trials", "-5"], ["--workers", "0"]]
    )
    def test_validate_bad_counts_exit_2(self, argv, capsys):
        # a configuration error, not a traceback whose exit 1 reads as failed checks
        assert cli.main(["validate", *argv]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "coverage-sweep"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        code = cli.main([command, "--seed", "-1", "--out", str(out), "--trials", "10"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed_exits_2(self, tmp_path, capsys):
        cfg = scenario_to_config(default_scenario())
        cfg["scenario"]["seed"] = "-1"
        config = tmp_path / "seed.ini"
        with open(config, "w") as f:
            cfg.write(f)
        out = tmp_path / "cov.csv"
        code = cli.main(["coverage-sweep", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

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

    def test_noisy_config_validates(self, tmp_path, capsys):
        # a config file is how noise reaches the engines; at +30 dBm every
        # cross-engine check must still pass
        config = tmp_path / "noisy.ini"
        with open(config, "w") as f:
            scenario_to_config(default_scenario(noise=dbm_to_watts(30.0))).write(f)
        out = tmp_path / "validate.csv"
        code = cli.main(
            ["validate", "--config", str(config), "--trials", "1000", "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().out
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 8
        assert all(r["error"] == "" for r in rows), rows

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
