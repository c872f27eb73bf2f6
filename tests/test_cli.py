"""Smoke tests for the ``python -m repro.experiments`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.experiments.__main__ import ARTIFACTS, main
from repro.experiments.spec import ExperimentSpec


class TestCLI:
    def test_unknown_artifact_rejected(self, capsys):
        assert main(["no-such-figure"]) == 2
        out = capsys.readouterr().out
        assert "unknown artifact" in out
        assert "fig5" in out  # lists what's available

    def test_every_documented_artifact_registered(self):
        assert set(ARTIFACTS) == {
            "fig3", "fig5", "fig6", "fig7", "fig8", "tab_throughput",
            "tab_costs", "tab_timeouts", "tab_params", "tab_related",
            "tab_waiting", "tab_scalability", "traffic",
        }

    def test_related_artifact_runs(self, capsys):
        assert main(["tab_related"]) == 0
        out = capsys.readouterr().out
        assert "Algorand" in out and "Bitcoin" in out

    def test_scalability_artifact_runs(self, capsys):
        assert main(["tab_scalability"]) == 0
        out = capsys.readouterr().out
        assert "giant component" in out

    def test_params_artifact_runs(self, capsys):
        assert main(["tab_params"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "2000" in out  # tau_step

    @pytest.mark.parametrize("name", ["fig3"])
    def test_analytic_artifact_runs(self, name, capsys):
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert "committee size" in out

    def test_unknown_artifact_mentions_sweep_subcommand(self, capsys):
        assert main(["nope"]) == 2
        assert "sweep" in capsys.readouterr().out

    def test_bad_jobs_flag_rejected(self, capsys):
        for argv in (["--jobs"], ["--jobs", "many", "fig3"],
                     ["--jobs", "0", "fig8"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            assert "usage:" in capsys.readouterr().err


class TestArtifactRegistry:
    def test_sweep_artifacts_declare_spec_grids(self):
        sweep_backed = {name: a for name, a in ARTIFACTS.items()
                        if a.specs is not None}
        assert set(sweep_backed) == {"fig5", "fig6", "fig7", "fig8",
                                     "tab_throughput", "tab_costs",
                                     "tab_timeouts", "tab_waiting"}
        for artifact in sweep_backed.values():
            specs = artifact.specs()
            assert specs and all(isinstance(s, ExperimentSpec)
                                 for s in specs)
            assert artifact.render is not None

    def test_analytic_artifacts_have_runners(self):
        for name, artifact in ARTIFACTS.items():
            if artifact.specs is None:
                assert artifact.runner is not None, name


class TestSweepSubcommand:
    GRID = ["--users", "6,8", "--seeds", "0", "--rounds", "1"]

    def test_merged_json_to_stdout(self, capsys):
        assert main(["sweep", *self.GRID, "--quiet"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["engine"] == "repro.experiments.sweep"
        assert [p["spec"]["config"]["num_users"]
                for p in merged["points"]] == [6, 8]
        assert all(p["error"] is None for p in merged["points"])

    def test_out_file_and_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "merged.json"
        checkpoint = tmp_path / "points.jsonl"
        argv = ["sweep", *self.GRID, "--quiet",
                "--out", str(out), "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        first = out.read_bytes()
        lines = checkpoint.read_text().strip().splitlines()
        assert len(lines) == 2
        # resume: same command recomputes nothing, output stays identical
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert len(checkpoint.read_text().strip().splitlines()) == 2

    def test_empty_grid_rejected(self, capsys):
        assert main(["sweep", "--seeds", "", "--quiet"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--grid", "waiting", "--users", "8,10", "--waits", "0.5"],
        ["--grid", "adversarial", "--users", "10", "--fractions", "0.5"],
        ["--jobs", "0"],
        ["--users", "6", "--retries", "-1"],
        ["--users", "6", "--timeout", "-1"],
        ["--users", "6", "--timeout", "0"],
    ])
    def test_bad_grid_rejected_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", *argv, "--seeds", "0", "--quiet"])
        assert exit_.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_adversarial_grid_carries_its_faults(self, capsys):
        assert main(["sweep", "--grid", "adversarial", "--users", "10",
                     "--seeds", "0", "--fractions", "0,0.2", "--quiet"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [len(p["spec"]["faults"]) for p in points] == [0, 2]
        assert [p["result"]["malicious_users"] for p in points] == [0, 2]

    @pytest.mark.parametrize("argv,option", [
        (["--grid", "blocksize", "--rounds", "5", "--sizes", "1000",
          "--users", "6"], "--rounds"),
        (["--grid", "adversarial", "--payload-bytes", "4000"],
         "--payload-bytes"),
        (["--grid", "waiting", "--population", "aggregated"],
         "--population"),
        (["--grid", "latency", "--sizes", "1000"], "--sizes"),
    ])
    def test_option_the_grid_does_not_read_rejected(self, argv, option,
                                                    capsys):
        """An option no spec of the grid reads is an error naming the
        grid, never a sweep that silently runs on the grid's default."""
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", *argv, "--seeds", "0", "--quiet"])
        assert exit_.value.code == 2
        error = capsys.readouterr().err
        assert f"--grid {argv[1]} does not read {option}" in error
