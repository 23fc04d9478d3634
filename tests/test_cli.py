import configparser
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclesync
from cyclesync import cli, empirics, phase
from cyclesync.dynamics import DEFAULT_QUARTIC
from cyclesync.cli import main
from cyclesync.networks import build_topology, uniform_coupling
from cyclesync.simulation import SimulationConfig


def run(args, tmp_path):
    return main(args + ["--outdir", str(tmp_path)])


def simulate_nothing(*args, **kwargs):
    raise AssertionError("simulated before rejecting the config")


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[network]\nkind = single\nbogus = 1\n")
        assert run(["simulate", "--config", str(cfg)], tmp_path) == 2

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[mystery]\nx = 1\n")
        assert run(["simulate", "--config", str(cfg)], tmp_path) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "nope.cfg")],
                   tmp_path) == 2

    def test_unknown_preset_listed(self, tmp_path, capsys):
        assert run(["simulate", "--preset", "not-a-preset"], tmp_path) == 2
        assert "available" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "--set", "run.steps=abc"], "run.steps"),
        (["msf", "--set", "msf.k_grid=linspace:0,1"], "msf.k_grid"),
        (["msf", "--set", "msf.k_grid="], "msf.k_grid"),
        (["simulate", "--set", "network.kind=two_clique", "--set", "network.sizes=3,x"],
         "network.sizes"),
        (["simulate", "--set", "DEFAULT.x=1"], "DEFAULT.x"),
        (["scenarios", "--set", "scenarios.detrend=ture"], "scenarios.detrend"),
        (["simulate", "--set", "network.kind=two_clique", "--set", "network.sizes=3"],
         "two_clique sizes"),
        (["simulate", "--set", "network.kind=two_clique", "--set", "network.sizes=3,3,3"],
         "two_clique sizes"),
        (["simulate", "--set", "network.kind=two_clique", "--set", "network.bridge=1"],
         "two_clique bridge"),
        (["simulate", "--set", "network.kind=two_clique", "--set", "network.bridge=1,3,4"],
         "two_clique bridge"),
        (["simulate", "--set", "run.stride=2"], "run.stride"),
        (["simulate", "--preset", "cycle-single", "--set", "measure.smooth_window=0"],
         "smooth_window must be at least 1, got 0"),
        (["simulate", "--preset", "cycle-single", "--set", "measure.smooth_window=-3"],
         "smooth_window must be at least 1, got -3"),
        (["scenarios", "--preset", "scenarios-smoke", "--set", "scenarios.stride=0"],
         "stride 0 must be at least 1 and divide retain 228"),
        (["scenarios", "--preset", "scenarios-smoke", "--set", "scenarios.stride=5"],
         "stride 5 must be at least 1 and divide retain 228"),
    ])
    def test_malformed_value_names_key(self, argv, key, tmp_path, capsys):
        assert run(argv, tmp_path) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "resolved-config.cfg").exists()
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text", ["kind = single\n",
                                      "[network]\nkind = single\nkind = star\n",
                                      "[DEFAULT]\nkind = single\n"],
                             ids=["no-header", "duplicate-key", "default-section"])
    def test_malformed_config_file(self, text, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["simulate", "--config", str(cfg)], tmp_path) == 2

    def test_numerical_error_exit_code(self, tmp_path):
        # an interaction response with huge slope blows the run up
        code = run(["simulate", "--preset", "cycle-single",
                    "--set", "dynamics.betas=0,50,0,0,0"], tmp_path)
        assert code == 3

    def test_data_error_exit_code(self, tmp_path):
        cfg = tmp_path / "io.cfg"
        # missing and malformed flows files are both data errors
        cfg.write_text("[network]\nkind = io\nflows = /nonexistent/f.csv\n")
        assert run(["simulate", "--config", str(cfg)], tmp_path) == 4
        flows = tmp_path / "flows.csv"
        flows.write_text("wrong,header\n1,2\n")
        cfg.write_text(f"[network]\nkind = io\nflows = {flows}\n")
        assert run(["simulate", "--config", str(cfg)], tmp_path) == 4


class TestSimulateCommand:
    def test_cycle_preset_outputs(self, tmp_path):
        assert run(["simulate", "--preset", "cycle-single"], tmp_path) == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "figure-simulate.csv").exists()
        assert (tmp_path / "resolved-config.cfg").exists()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        period = meta["measured_periods"]["0"]
        assert period == pytest.approx(36, abs=2)

    def test_uncoupled_spread_preset(self, tmp_path):
        assert run(["simulate", "--preset", "uncoupled-spread"], tmp_path) == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        periods = [p for p in meta["measured_periods"].values() if p]
        assert min(periods) == pytest.approx(20, abs=3)
        assert max(periods) == pytest.approx(66, abs=5)

    def test_fixed_point_start_constant_columns(self, tmp_path):
        code = run(["simulate", "--preset", "cycle-single",
                    "--set", "run.initial_mode=fixed_point",
                    "--set", "run.steps=200",
                    "--set", "run.burn_in=0"], tmp_path)
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        values = [float(line.split(",")[3]) for line in lines[1:]]
        # representation roundoff drifts off the unstable fixed point very
        # slowly; the column stays constant to well below visible precision
        assert max(values) - min(values) < 1e-9

    def test_null_period_gives_its_reason(self, tmp_path):
        # a converging node: no cycle, so no peaks to measure a period from
        assert run(["simulate", "--preset", "cycle-single", "--set", "dynamics.alpha1=-0.11",
                    "--set", "dynamics.delta=0.5"], tmp_path) == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["measured_periods"] == {"0": None}
        assert meta["period_failures"] == {"0": "found 0 peaks, need at least 3"}

    def test_measured_periods_have_no_failures(self, tmp_path):
        assert run(["simulate", "--preset", "cycle-single", "--set", "run.steps=1600"],
                   tmp_path) == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["measured_periods"]["0"] == pytest.approx(36, abs=2)
        assert meta["period_failures"] == {}

    def test_burn_in_past_the_run_is_named(self, tmp_path, capsys):
        assert run(["simulate", "--preset", "cycle-single", "--set", "run.steps=400"],
                   tmp_path) == 2
        assert "burn_in 1000 leaves no retained steps out of 400" in capsys.readouterr().err

    def test_idempotent_outputs(self, tmp_path):
        run(["simulate", "--preset", "cycle-single"], tmp_path)
        first = (tmp_path / "trajectory.csv").read_bytes()
        fig_first = (tmp_path / "figure-simulate.csv").read_bytes()
        run(["simulate", "--preset", "cycle-single"], tmp_path)
        assert (tmp_path / "trajectory.csv").read_bytes() == first
        assert (tmp_path / "figure-simulate.csv").read_bytes() == fig_first


QUOTED_FLOWS = (
    "source_sector,source_country,dest_sector,dest_country,value\n"
    '"Mining, quarrying",X,"Say ""B""",X,30\n'
    '"Mining, quarrying",X,FinD,X,70\n'
    '"Say ""B""",X,"Mining, quarrying",X,20\n'
    '"Say ""B""",X,FinD,X,40\n'
)


class TestQuotedLabels:
    """Sector names holding a comma or a quote stay one field in every table."""

    def test_io_labels_round_trip(self, tmp_path):
        flows = tmp_path / "flows.csv"
        flows.write_text(QUOTED_FLOWS)
        io_net = ["--set", "network.kind=io", "--set", f"network.flows={flows}"]
        assert run(["simulate", *io_net, "--set", "run.steps=300"], tmp_path) == 0
        assert run(["sync-centrality", *io_net, "--set", "centrality.n_draws=4"], tmp_path) == 0
        labels = {"Mining, quarrying|X", 'Say "B"|X', "FinD|X"}
        for name, width, column in [("trajectory.csv", 4, 0), ("figure-simulate.csv", 3, 2),
                                    ("sync-centrality.csv", 3, 0)]:
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {width}, name
            assert {row[column] for row in rows[1:]} == labels, name


class TestOtherCommands:
    def test_sweep_epsilon_reduced(self, tmp_path):
        code = run(["sweep-epsilon", "--preset", "entrainment-complete",
                    "--set", "sweep.eps_grid=0.1,0.25",
                    "--set", "run.steps=1800"], tmp_path)
        assert code == 0
        lines = (tmp_path / "entrainment.csv").read_text().strip().splitlines()
        assert lines[0] == "eps,coherence,mean_correlation,entrained,spread"
        flags = [line.split(",")[3] for line in lines[1:]]
        assert flags == ["0", "1"]

    def test_msf_small_grid(self, tmp_path):
        code = run(["msf", "--preset", "msf-default",
                    "--set", "msf.k_grid=0,0.6",
                    "--set", "msf.window=8000"], tmp_path)
        assert code == 0
        lines = (tmp_path / "msf.csv").read_text().strip().splitlines()
        assert lines[0] == "K,mu1,mu2"
        k0 = [float(v) for v in lines[1].split(",")]
        assert abs(k0[1]) < 1e-3                     # mu1 at K = 0
        k6 = [float(v) for v in lines[2].split(",")]
        assert k6[1] < 0

    def test_shock_response_two_agent(self, tmp_path):
        code = run(["shock-response", "--preset", "shock-two-agent"], tmp_path)
        assert code == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["phase_shift"] > 0
        header = (tmp_path / "shock-response.csv").read_text().splitlines()[0]
        assert header == "basis,node_or_mode,step,value"

    def test_shock_response_rejects_nonuniform_alpha1(self, tmp_path, capsys):
        code = run(["shock-response", "--preset", "shock-two-agent",
                    "--set", "dynamics.alpha1=-0.04,-0.09"], tmp_path)
        assert code == 2
        assert "dynamics.alpha1" in capsys.readouterr().err
        assert not (tmp_path / "shock-response.csv").exists()

    def test_sync_centrality_tiny(self, tmp_path):
        code = run(["sync-centrality",
                    "--set", "network.kind=star",
                    "--set", "network.n=4",
                    "--set", "network.eps=0.5",
                    "--set", "centrality.n_draws=4",
                    "--set", "run.steps=1200"], tmp_path)
        assert code == 0
        lines = (tmp_path / "sync-centrality.csv").read_text().strip().splitlines()
        assert lines[0] == "node,score,stderr"
        assert len(lines) == 5

    def test_scenarios_smoke_preset(self, tmp_path):
        code = run(["scenarios", "--preset", "scenarios-smoke",
                    "--set", "scenarios.sigma_u_grid=0.1,0.3",
                    "--set", "scenarios.dynamics=cycle,node"], tmp_path)
        assert code == 0
        lines = (tmp_path / "scenario-results.csv").read_text().strip().splitlines()
        assert lines[0] == \
            "dynamics,shock_type,sigma_u,group,mean_corr,sd_corr,n_seeds"
        assert len(lines) == 1 + 2 * 1 * 2 * 2
        assert (tmp_path / "figure-scenarios.csv").exists()

    def test_jobs_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["scenarios", "--preset", "scenarios-smoke", "--jobs", "2"], tmp_path)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "scenario-results.csv").exists()

    def test_scenarios_blowup_names_cell_and_seed(self, tmp_path, capsys):
        code = run(["scenarios", "--set", "network.kind=demo_io",
                    "--set", "scenarios.dynamics=cycle",
                    "--set", "scenarios.shock_types=idiosyncratic",
                    "--set", "scenarios.sigma_u_grid=0.1,3",
                    "--set", "scenarios.n_seeds=3"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        for part in ("'cycle'", "'idiosyncratic'", "sigma_u 3.0", "seed 2"):
            assert part in err
        assert not (tmp_path / "scenario-results.csv").exists()

    @pytest.mark.parametrize("n_seeds", ["0", "-1"])
    def test_scenarios_rejects_too_few_seeds(self, n_seeds, tmp_path, capsys):
        code = run(["scenarios", "--preset", "scenarios-smoke",
                    "--set", f"scenarios.n_seeds={n_seeds}"], tmp_path)
        assert code == 2
        assert "n_seeds" in capsys.readouterr().err
        assert not (tmp_path / "scenario-results.csv").exists()

    def test_msf_rejects_orbit_too_short_for_peaks(self, tmp_path, capsys):
        code = run(["msf", "--set", "msf.window=5", "--set", "msf.burn_in=0"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "msf.window" in err and "msf.burn_in" in err
        assert not (tmp_path / "msf.csv").exists()

    @pytest.mark.parametrize("setting, key", [
        ("msf.window=0", "window"), ("msf.window=-3", "window"), ("msf.burn_in=-5", "burn_in"),
    ])
    def test_msf_rejects_bad_window(self, setting, key, tmp_path, capsys):
        code = run(["msf", "--preset", "msf-default", "--set", "msf.k_grid=0,0.6",
                    "--set", "msf.window=2000", "--set", setting], tmp_path)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "msf.csv").exists()

    @pytest.mark.parametrize("n_draws", ["0", "-3"])
    def test_sync_centrality_rejects_too_few_draws(self, n_draws, tmp_path, capsys):
        code = run(["sync-centrality", "--set", "network.kind=star", "--set", "network.n=4",
                    "--set", "network.eps=0.5", "--set", f"centrality.n_draws={n_draws}"],
                   tmp_path)
        assert code == 2
        assert "n_draws" in capsys.readouterr().err
        assert not (tmp_path / "sync-centrality.csv").exists()

    @pytest.mark.parametrize("setting, key", [
        ("shock_response.window_periods=0", "window_periods"),
        ("shock_response.window_periods=-2", "window_periods"),
        ("shock_response.tau=-5", "tau"),
        ("shock_response.window_periods=20", "window_periods 20 and horizon_periods 10"),
        ("shock_response.horizon_periods=-3", "window_periods 3 and horizon_periods -3"),
        ("shock_response.horizon_periods=3", "window_periods 3 and horizon_periods 3"),
    ])
    def test_shock_response_rejects_bad_window(self, setting, key, tmp_path, capsys):
        code = run(["shock-response", "--preset", "shock-two-agent", "--set", setting],
                   tmp_path)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "shock-response.csv").exists()

    def test_simulate_rejects_zero_peak_separation(self, tmp_path, capsys):
        code = run(["simulate", "--preset", "cycle-single",
                    "--set", "measure.min_separation=0"], tmp_path)
        assert code == 2
        assert "min_separation" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("setting, message", [pytest.param(s, m, id=s) for s, m in [
        ("measure.smooth_window=0", "smooth_window must be at least 1, got 0"),
        ("measure.min_separation=0", "min_separation must be at least 1, got 0"),
        ("measure.min_prominence=nan", "min_prominence must be finite and non-negative, got nan"),
        ("measure.min_prominence=inf", "min_prominence must be finite and non-negative, got inf"),
        ("measure.min_prominence=-1", "min_prominence must be finite and non-negative, got -1.0"),
    ]])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "cycle-single"],
        ["sweep-epsilon", "--preset", "entrainment-complete"],
        ["sync-centrality", "--set", "network.kind=star", "--set", "network.n=6",
         "--set", "network.eps=0.5"],
    ], ids=["simulate", "sweep-epsilon", "sync-centrality"])
    def test_bad_peak_option_rejected_before_simulating(self, argv, setting, message, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.setattr(phase, "simulate_batch", simulate_nothing)
        monkeypatch.setattr(cli, "simulate", simulate_nothing)
        assert run(argv + ["--set", setting], tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv, retain", [
        (["simulate", "--preset", "cycle-single"], 3000),
        (["sweep-epsilon", "--preset", "entrainment-complete"], 2000),
        (["sync-centrality", "--set", "network.kind=star", "--set", "network.n=6",
          "--set", "network.eps=0.5"], 2000),
    ], ids=["simulate", "sweep-epsilon", "sync-centrality"])
    def test_smooth_window_beyond_retain_rejected_before_simulating(
            self, argv, retain, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(phase, "simulate_batch", simulate_nothing)
        monkeypatch.setattr(cli, "simulate", simulate_nothing)
        assert run(argv + ["--set", f"measure.smooth_window={retain + 1}"], tmp_path) == 2
        assert (f"smooth_window {retain + 1} exceeds the series length {retain}"
                in capsys.readouterr().err)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("settings, message", [
        (["scenarios.retain=28", "scenarios.detrend=true"], "retain 28 // stride 4 = 7"),
        (["scenarios.retain=8"], "retain 8 // stride 4 = 2"),
    ], ids=["detrended", "raw"])
    def test_scenarios_reject_too_short_window_before_simulating(
            self, settings, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(empirics, "simulate_batch", simulate_nothing)
        argv = ["scenarios", "--preset", "scenarios-smoke"]
        for setting in settings:
            argv += ["--set", setting]
        assert run(argv, tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--preset", "cycle-single", "--set", "shocks.sigma_u=nan"],
         "sigma_u must be finite and non-negative, got nan"),
        (["scenarios", "--preset", "scenarios-smoke", "--set", "scenarios.sigma_u_grid=0.1,nan"],
         "sigma_u_grid values must be finite and non-negative, got nan"),
        (["scenarios", "--preset", "scenarios-smoke", "--set", "scenarios.sigma_u_grid=0.1,0.2,-0.3",
          "--set", "scenarios.n_seeds=20"],
         "sigma_u_grid values must be finite and non-negative, got -0.3"),
    ], ids=["simulate-nan", "scenarios-nan", "scenarios-negative"])
    def test_bad_shock_sd_rejected_before_simulating(self, argv, message, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "simulate", simulate_nothing)
        monkeypatch.setattr(empirics, "simulate_batch", simulate_nothing)
        assert run(argv, tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv, seed", [
        (["simulate", "--preset", "cycle-single", "--set", "run.seed=-1"], -1),
        (["simulate", "--preset", "cycle-single", "--seed", "-3"], -3),
        (["sweep-epsilon", "--preset", "entrainment-complete", "--seed", "-2"], -2),
        (["sync-centrality", "--set", "network.kind=star", "--set", "network.eps=0.5",
          "--seed", "-5"], -5),
    ], ids=["simulate-set", "simulate-flag", "sweep-epsilon", "sync-centrality"])
    def test_negative_seed_rejected_before_simulating(self, argv, seed, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(cli, "simulate", simulate_nothing)
        monkeypatch.setattr(phase, "simulate_batch", simulate_nothing)
        assert run(argv, tmp_path) == 2
        assert f"seed must be a non-negative integer, got {seed}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_sync_centrality_rejects_single_node(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(phase, "simulate_batch", simulate_nothing)
        code = run(["sync-centrality", "--set", "network.kind=single",
                    "--set", "centrality.n_draws=2"], tmp_path)
        assert code == 2
        assert "at least 2 nodes, got 1" in capsys.readouterr().err
        assert not (tmp_path / "sync-centrality.csv").exists()

    @pytest.mark.parametrize("experiment, reads_run", [
        ("simulate", True), ("sweep-epsilon", True), ("sync-centrality", True),
        ("msf", False), ("shock-response", False), ("scenarios", False),
    ])
    def test_seed_only_where_run_is_read(self, experiment, reads_run, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([experiment, "--help"])
        # the option's usage form: the key listing mentions --seed as well
        assert ("--seed SEED" in capsys.readouterr().out) == reads_run
        if not reads_run:
            with pytest.raises(SystemExit) as exc:
                run([experiment, "--seed", "3"], tmp_path)
            assert exc.value.code == 2
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment, run_keys", [
        ("simulate", ["steps", "burn_in", "retain", "seed", "initial_mode"]),
        ("sweep-epsilon", ["steps", "burn_in", "retain", "seed"]),
        ("sync-centrality", ["steps", "burn_in", "retain", "seed"]),
    ])
    def test_help_lists_only_run_keys_read(self, experiment, run_keys, capsys):
        # the Monte Carlo commands take a run window and a seed, no initial
        # mode
        with pytest.raises(SystemExit):
            main([experiment, "--help"])
        listed = re.findall(r"^  run\.(\w+) = ", capsys.readouterr().out, re.MULTILINE)
        assert listed == run_keys

    def test_help_lists_experiments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "sweep-epsilon", "sync-centrality", "msf",
                     "shock-response", "scenarios"):
            assert name in out
        assert "master stability function" in out     # the msf description
        for name, steps in (("simulate", 2500), ("sync-centrality", 2000)):
            with pytest.raises(SystemExit):
                main([name, "--help"])
            out = capsys.readouterr().out
            assert f"run.steps = {steps}" in out
            assert "measure.min_separation = 5" in out


# case -> command line; a case is named after its subcommand unless the
# subcommand has more than one
RERUN_CASES = {
    "simulate": ["simulate", "--preset", "cycle-single", "--set", "run.steps=600",
                 "--set", "run.burn_in=100"],
    "sweep-epsilon": ["sweep-epsilon", "--preset", "entrainment-complete",
                      "--set", "sweep.eps_grid=0.1,0.25", "--set", "run.steps=1800"],
    "sync-centrality": ["sync-centrality", "--set", "network.kind=star", "--set", "network.n=4",
                        "--set", "network.eps=0.5", "--set", "centrality.n_draws=4",
                        "--set", "run.steps=1200"],
    "msf": ["msf", "--preset", "msf-default", "--set", "msf.k_grid=0,0.6",
            "--set", "msf.window=8000"],
    "shock-response": ["shock-response", "--preset", "shock-two-agent"],
    "scenarios": ["scenarios", "--preset", "scenarios-smoke",
                  "--set", "scenarios.sigma_u_grid=0.1", "--set", "scenarios.dynamics=cycle"],
    # 3 cells x 12 seeds = 36 runs: one full simulate_batch block and a partial one
    "scenarios-detrended": ["scenarios", "--preset", "scenarios-smoke",
                            "--set", "scenarios.sigma_u_grid=0.1", "--set", "scenarios.n_seeds=12",
                            "--set", "scenarios.detrend=true"],
}


class TestResolvedConfig:
    @pytest.mark.parametrize("case", sorted(RERUN_CASES))
    def test_rerun_from_resolved_config_alone(self, case, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*RERUN_CASES[case], "--outdir", str(first)]) == 0
        resolved = first / "resolved-config.cfg"
        experiment = RERUN_CASES[case][0]
        assert main([experiment, "--config", str(resolved), "--outdir", str(second)]) == 0
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert len(csvs) >= 2
        for name in csvs:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        assert (second / "resolved-config.cfg").read_text() == resolved.read_text()

    @pytest.mark.parametrize("experiment", ["sweep-epsilon", "sync-centrality"])
    def test_monte_carlo_commands_echo_only_the_run_window(self, experiment, tmp_path):
        assert run(RERUN_CASES[experiment], tmp_path) == 0
        cfg = configparser.ConfigParser()
        cfg.read(tmp_path / "resolved-config.cfg")
        assert list(cfg["run"]) == ["steps", "burn_in", "retain", "seed"]

    def test_resolved_config_fills_in_defaults(self, tmp_path):
        assert run(["simulate", "--preset", "cycle-single", "--set", "run.steps=600",
                    "--set", "run.burn_in=100", "--set", "sweep.entrain_tol=0.02"],
                   tmp_path) == 0
        cfg = configparser.ConfigParser()
        cfg.read(tmp_path / "resolved-config.cfg")
        assert cfg.sections() == ["network", "dynamics", "shocks", "run", "measure",
                                  "sweep"]
        assert cfg["run"]["initial_mode"] == "perturbed"
        assert cfg["dynamics"]["betas"] == "-0.5,0.1,0.2,0.5,-0.3"
        assert len(cfg["shocks"]) == 6
        assert dict(cfg["sweep"]) == {"entrain_tol": "0.02"}    # set, though unread


class TestLibraryParity:
    """The CLI hands the drivers its run window and agents unchanged."""

    def test_sync_centrality_matches_library_call(self, tmp_path):
        code = run(["sync-centrality", "--set", "network.kind=star", "--set", "network.n=4",
                    "--set", "network.eps=0.5", "--set", "centrality.n_draws=3",
                    "--set", "run.steps=1500"], tmp_path / "cli")
        assert code == 0
        net = uniform_coupling(build_topology("star", 4), 0.5)
        phase.sync_centrality(net, SimulationConfig(steps=1500, seed=0),
                              n_draws=3).to_csv(tmp_path / "library.csv")
        assert (tmp_path / "cli" / "sync-centrality.csv").read_bytes() == \
            (tmp_path / "library.csv").read_bytes()

    def test_sweep_epsilon_matches_library_call(self, tmp_path):
        code = run(["sweep-epsilon", "--preset", "entrainment-complete",
                    "--set", "sweep.eps_grid=0,0.25,0.5"], tmp_path / "cli")
        assert code == 0
        dynamics = {"alpha1": tuple(np.linspace(-0.1, -0.02, 10)), "alpha2": 0.4,
                    "delta": 0.1, "betas": DEFAULT_QUARTIC}
        phase.epsilon_sweep(build_topology("complete", 10), cli._agent_params(dynamics, 10),
                            [0.0, 0.25, 0.5], SimulationConfig(steps=2500, burn_in=500, seed=0),
                            entrain_tol=0.01).to_csv(tmp_path / "library.csv")
        assert (tmp_path / "cli" / "entrainment.csv").read_bytes() == \
            (tmp_path / "library.csv").read_bytes()


class TestEnvOutdir:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLESYNC_OUTDIR", str(tmp_path))
        assert main(["simulate", "--preset", "cycle-single",
                     "--set", "run.steps=600",
                     "--set", "run.burn_in=100"]) == 0
        assert (tmp_path / "trajectory.csv").exists()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle: the command line must start without it
    src = str(Path(cyclesync.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cyclesync.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
