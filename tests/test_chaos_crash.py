"""Crash/restart faults: fail-stop mid-round, certificate-verified rejoin.

The headline test kills a node in the middle of a BA* round, restarts
it after its peers have moved on, and requires it to converge by asking
them for their history over gossip and replaying it
(:class:`repro.node.catchup.ChainSync`, full certificate verification —
section 8.3), with the whole run staying invariant-green.
"""

from __future__ import annotations

import pytest

from repro.chaos import (FaultAction, ScenarioScript,
                         kill_partition_scenario, run_scenario)
from repro.chaos.scenario import KILL_PARTITION_SIM_OVERRIDES
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
        # Over gossip: the victim asked, and peers answered.
        nodes = verdict.sim.nodes
        assert nodes[2].catchup.requests_sent >= 1
        assert sum(node.catchup.served for node in nodes) >= 1

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

    def test_kill_partition_rejoins_through_a_served_request(self):
        """The live smoke scenario at the live runner's stake: the
        crashed node adopts what a peer served it before its first round
        after the restart, never by reading a peer's memory."""
        verdict = run_scenario(kill_partition_scenario(),
                               sim_overrides=KILL_PARTITION_SIM_OVERRIDES)
        assert verdict.ok, verdict.violations
        assert verdict.converged
        sim = verdict.sim
        obs = sim.obs

        def times(kind: str) -> list[float]:
            return [event["t"] for event in obs.events_of_kind(kind)
                    if event["node"] == 3]

        (restarted,) = times("node_restarted")
        adopted = [t for t in times("catchup_adopted") if t >= restarted]
        first_round = min(t for t in times("round_start") if t >= restarted)
        assert adopted and adopted[0] <= first_round
        assert sim.nodes[3].catchup.requests_sent >= 1
        assert sum(node.catchup.served for node in sim.nodes) >= 1


class TestRunRoundsWaitsForARestart:
    def test_a_node_down_until_its_restart_is_still_pending(self):
        """The crash ends node 2's run, but a restart is scheduled:
        ``run_rounds`` returns once the restarted node is caught up, not
        while it is still behind."""
        sim = Simulation(SimulationConfig(num_users=8, seed=5),
                         faults=[FaultAction("crash", start=1.0, end=3.0,
                                             nodes=(2,))])
        sim.submit_payments(8)
        sim.run_rounds(2)
        assert [node.chain.height for node in sim.nodes] == [2] * 8
        assert not sim.nodes[2].running
        assert sim.all_chains_equal()
