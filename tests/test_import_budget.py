"""Import budget: a process loads what it runs.

Every process that runs the protocol — a sim worker, each live node, the
CLIs — used to pay ~1 s and ~67 MB for ``scipy.stats`` (one call site)
and to load every experiment runner and baseline through eager package
``__init__``\\ s. These tests pin the import graph
from the outside, each case in a fresh interpreter so nothing another
test imported can mask a regression:

* the run-time stack never loads ``scipy`` or ``networkx`` (the
  ``analysis`` extra), even after a full simulated round;
* ``repro.live.node_main`` loads none of ``repro.experiments``,
  ``repro.baselines``, ``repro.analysis`` and stays under a recorded
  module ceiling;
* the lazy package surfaces still resolve every public name, and the
  CLIs behind them still start.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: ``repro.*`` modules ``import repro.live.node_main`` may load. 70 when
#: recorded (99 before the package surfaces went lazy); raise it only
#: with a reason a node process can state.
NODE_MAIN_REPRO_MODULES_CEILING = 75

#: What a node process must not load: figure runners, the Nakamoto
#: baseline, the committee analysis.
NODE_MAIN_FORBIDDEN = ("repro.experiments", "repro.baselines",
                       "repro.analysis")


def run_python(*argv: str, check: bool = True
               ) -> subprocess.CompletedProcess:
    """``python <argv>`` in a fresh interpreter with ``src`` importable."""
    result = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": SRC, "PATH": ""})
    if check:
        assert result.returncode == 0, result.stderr
    return result


def modules_after(code: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    result = run_python(
        "-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    return json.loads(result.stdout.splitlines()[-1])


def heavy(modules: list[str]) -> list[str]:
    return [name for name in modules
            if name.split(".")[0] in ("scipy", "networkx")]


class TestRuntimeStackIsNumpyOnly:
    def test_import_repro_loads_almost_nothing(self):
        modules = modules_after("import repro")
        assert heavy(modules) == []
        assert "numpy" not in modules
        assert [m for m in modules if m.startswith("repro")] == [
            "repro", "repro._lazy"]

    def test_a_simulated_round_needs_no_scipy(self):
        modules = modules_after(
            "from repro import Simulation, SimulationConfig\n"
            "sim = Simulation(SimulationConfig(num_users=10, seed=1))\n"
            "sim.submit_payments(10)\n"
            "sim.run_rounds(1)\n"
            "assert sim.all_chains_equal()")
        assert heavy(modules) == []
        # The facade pulls in the harness, not the figure runners.
        assert "repro.experiments.harness" in modules
        assert "repro.experiments.latency" not in modules
        assert not [m for m in modules if m.startswith("repro.baselines")]

    def test_node_process_loads_only_its_stack(self):
        modules = modules_after("import repro.live.node_main")
        assert heavy(modules) == []
        own = [m for m in modules if m.startswith("repro")]
        strays = [m for m in own
                  if m.startswith(NODE_MAIN_FORBIDDEN)]
        assert strays == []
        assert "repro.live.cluster" not in own  # the coordinator's half
        # numpy >= 2 loads numpy.random on first use; a node must have
        # paid for it before ``ready``, not inside its first round.
        assert "numpy.random" in modules
        assert len(own) <= NODE_MAIN_REPRO_MODULES_CEILING, own

    @pytest.mark.parametrize("module", [
        "repro.live.cluster", "repro.live.__main__",
        "repro.chaos.__main__", "repro.chaos.runner",
        "repro.conformance.__main__", "repro.obs.record",
        "repro.experiments.sweep",
    ])
    def test_runtime_entry_points_need_no_scipy(self, module):
        assert heavy(modules_after(f"import {module}")) == []


class TestLazySurfaces:
    @pytest.mark.parametrize("package", [
        "repro", "repro.experiments", "repro.chaos", "repro.live",
        "repro.baselines"])
    def test_every_public_name_resolves(self, package):
        """``__all__``, ``dir()`` and attribute access agree."""
        run_python("-c", "\n".join([
            f"import {package} as package",
            "listed = set(package.__all__)",
            "assert listed <= set(dir(package)), listed - set(dir(package))",
            "for name in package.__all__:",
            "    assert getattr(package, name) is not None, name",
            # Resolved names are cached on the package.
            "assert listed <= set(vars(package))",
            "try:",
            "    package.no_such_name",
            "except AttributeError as error:",
            "    assert 'no_such_name' in str(error)",
            "else:",
            "    raise SystemExit('missing name did not raise')",
        ]))

    def test_from_import_of_names_and_submodules(self):
        run_python("-c", "\n".join([
            "from repro.experiments import ExperimentSpec, run_sweep",
            "from repro.experiments import sweep as sweep_module",
            "assert sweep_module.run_sweep is run_sweep",
            "from repro.chaos import ChaosVerdict, generate_scenario",
            "from repro.live import LiveCluster, LIVE_SMOKE_PARAMS",
            "import repro",
            "assert repro.LiveCluster is LiveCluster",
        ]))

    def test_experiments_cli_still_lists_its_artifacts(self):
        result = run_python("-m", "repro.experiments", "no-such-artifact",
                            check=False)
        assert result.returncode == 2
        assert "available:" in result.stdout
        assert "tab_timeouts" in result.stdout

    def test_chaos_cli_still_prints_help(self):
        result = run_python("-m", "repro.chaos", "--help")
        assert "--builtin" in result.stdout


class TestAnalysisExtra:
    @pytest.mark.parametrize("module, dependency", [
        ("repro.analysis.committee", "scipy"),
        ("repro.analysis.graph", "networkx"),
        ("repro.baselines.doublespend", "scipy"),
    ])
    def test_missing_extra_is_a_typed_actionable_error(self, module,
                                                       dependency):
        # ``None`` in sys.modules is how the import system spells
        # "not installed" without uninstalling anything.
        run_python("-c", "\n".join([
            "import sys",
            f"sys.modules[{dependency!r}] = None",
            "from repro.common.errors import MissingExtraError, ReproError",
            "try:",
            f"    import {module}",
            "except MissingExtraError as error:",
            "    assert isinstance(error, ReproError)",
            "    assert isinstance(error, ImportError)",
            f"    assert error.dependency == {dependency!r}",
            "    assert \"repro[analysis]\" in str(error), str(error)",
            "else:",
            "    raise SystemExit('import succeeded without the extra')",
        ]))
