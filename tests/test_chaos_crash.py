"""Crash/restart faults: fail-stop mid-round, certificate-verified rejoin.

The headline test kills a node in the middle of a BA* round, restarts
it after its peers have moved on, and requires it to converge by
replaying their history through :func:`repro.node.catchup.resync_from_peers`
(full certificate verification — section 8.3), with the whole run
staying invariant-green.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultAction, ScenarioScript, run_scenario
from repro.common.errors import SimulationError
from repro.experiments.harness import Simulation, SimulationConfig
from tests.fixtures import run_traced


class TestCrashRestartUnit:
    def test_crash_disconnects_and_clears_volatile_state(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=9))
        node = sim.nodes[1]
        node.start(2)
        sim.env.run(until=1.0)
        node.crash()
        assert node.crashed
        assert node.interface.disconnected
        assert len(node.mempool) == 0
        assert node._trackers == {}

    def test_crash_is_idempotent(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=9))
        node = sim.nodes[1]
        node.crash()
        node.crash()
        assert node.crashed

    def test_crash_preserves_committed_chain(self):
        sim = Simulation(SimulationConfig(num_users=8, seed=9))
        sim.run_rounds(1)
        node = sim.nodes[1]
        height = node.chain.height
        assert height == 1
        node.crash()
        assert node.chain.height == height

    def test_restart_requires_a_crash(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=9))
        with pytest.raises(SimulationError, match="not crashed"):
            sim.nodes[1].restart(2)

    def test_restart_in_the_instant_of_the_crash_runs_once(self):
        """The run start queued before the crash is stale: only the
        restart's begins a round."""
        sim, bus = run_traced(0, num_users=8, seed=9)
        node = sim.nodes[1]
        for each in sim.nodes:
            each.start(1)
        node.crash()
        node.restart(1)
        sim.env.run(until=60.0, stop_when=lambda: not any(
            each.running for each in sim.nodes))
        assert node.chain.height == 1
        assert [event["round"] for event in bus.events_of_kind("round_start")
                if event["node"] == node.index] == [1]

    def test_restart_reconnects(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=9))
        node = sim.nodes[1]
        node.crash()
        node.restart(1)
        assert not node.crashed
        assert not node.interface.disconnected


class TestCrashScenarios:
    def test_crash_mid_step_rejoins_via_catchup_and_converges(self):
        # t=1.0 lands inside round 1's proposal/vote exchange; by the
        # t=8.0 restart the other seven nodes have finished both rounds,
        # so the victim can only converge by replaying their history.
        script = ScenarioScript(
            name="crash-mid-step", seed=5, num_users=8, rounds=2,
            actions=(FaultAction(kind="crash", start=1.0, end=8.0,
                                 nodes=(2,)),))
        verdict = run_scenario(script)
        assert verdict.ok, verdict.violations
        assert verdict.heights == [2] * 8
        obs = verdict.sim.obs
        assert [e["node"] for e in obs.events_of_kind("node_crashed")] == [2]
        assert [e["node"] for e in obs.events_of_kind("node_restarted")] == [2]
        adopted = obs.events_of_kind("catchup_adopted")
        assert any(e["node"] == 2 and e["to_height"] == 2
                   for e in adopted)

    def test_permanent_crash_excluded_from_convergence(self):
        script = ScenarioScript(
            name="crash-forever", seed=11, num_users=12, rounds=2,
            actions=(FaultAction(kind="crash", start=1.0, end=None,
                                 nodes=(5,)),))
        assert script.permanently_crashed() == frozenset({5})
        verdict = run_scenario(script)
        assert verdict.ok, verdict.violations
        # The survivors converged; the corpse keeps its honest prefix.
        heights = verdict.heights
        assert all(h == 2 for i, h in enumerate(heights) if i != 5)
        assert heights[5] < 2

    def test_crash_during_partition_still_green(self):
        # Compound fault: half-split while a node is down, then both
        # clear. Safety must hold throughout, liveness after the heal.
        script = ScenarioScript(
            name="crash-in-partition", seed=13, num_users=10, rounds=2,
            actions=(
                FaultAction(kind="partition", start=0.5, end=10.0,
                            groups=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))),
                FaultAction(kind="crash", start=1.5, end=12.0,
                            nodes=(7,)),
            ))
        verdict = run_scenario(script)
        assert verdict.ok, verdict.violations
        assert verdict.heights == [2] * 10
