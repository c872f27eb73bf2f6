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
            name="crash-mid-step",
            config=SimulationConfig(num_users=8, seed=5), rounds=2,
            actions=(FaultAction(kind="crash", start=1.0, end=8.0,
                                 nodes=(2,)),))
        verdict = run_scenario(script)
        assert verdict.ok, verdict.violations
        assert verdict.heights == [2] * 8
        obs = verdict.deployment.obs
        assert [e["node"] for e in obs.events_of_kind("node_crashed")] == [2]
        assert [e["node"] for e in obs.events_of_kind("node_restarted")] == [2]
        adopted = obs.events_of_kind("catchup_adopted")
        assert any(e["node"] == 2 and e["to_height"] == 2
                   for e in adopted)
        # Over gossip: the victim asked, and peers answered.
        nodes = verdict.deployment.nodes
        assert nodes[2].catchup.requests_sent >= 1
        assert sum(node.catchup.served for node in nodes) >= 1

    def test_permanent_crash_excluded_from_convergence(self):
        script = ScenarioScript(
            name="crash-forever",
            config=SimulationConfig(num_users=12, seed=11), rounds=2,
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
            name="crash-in-partition",
            config=SimulationConfig(num_users=10, seed=13), rounds=2,
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
        """The live smoke scenario, simulated at the stake its config
        carries: the crashed node adopts what a peer served it before its
        first round after the restart, never by reading a peer's
        memory."""
        verdict = run_scenario(kill_partition_scenario())
        assert verdict.ok, verdict.violations
        assert verdict.converged
        sim = verdict.deployment
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


class TestHeldDown:
    """A node reconnects only when no ``dos``/``targeted-dos`` window
    holds it and it is not crashed: a fault that clears never lets go
    of a node another fault still holds down."""

    def _started(self, *faults: FaultAction) -> Simulation:
        sim = Simulation(SimulationConfig(num_users=8, seed=3),
                         faults=list(faults))
        sim.injector.rounds = 6
        for node in sim.nodes:
            node.start(6)
        return sim

    def test_overlapping_dos_windows_hold_until_the_last_clears(self):
        sim = self._started(
            FaultAction(kind="dos", start=0.2, end=3.0, nodes=(5,)),
            FaultAction(kind="dos", start=1.0, end=20.0, nodes=(5,)))
        interface = sim.nodes[5].interface
        sim.env.run(until=10.0)
        assert interface.disconnected
        sim.env.run(until=21.0)
        assert not interface.disconnected

    def test_a_dos_clearing_leaves_a_crashed_node_cut_off(self):
        sim = self._started(
            FaultAction(kind="crash", start=1.0, end=40.0, nodes=(3,)),
            FaultAction(kind="dos", start=0.5, end=5.0, nodes=(3,)))
        node = sim.nodes[3]
        sim.env.run(until=5.5)
        asked = []
        hook = node.interface.on_receive

        def counted(envelope, from_index):
            asked.append(envelope)
            return hook(envelope, from_index)

        node.interface.on_receive = counted
        sim.env.run(until=39.0)
        assert node.crashed and node.interface.disconnected
        assert asked == []

    def test_a_restart_inside_a_dos_window_stays_disconnected(self):
        sim = self._started(
            FaultAction(kind="crash", start=1.0, end=4.0, nodes=(3,)),
            FaultAction(kind="dos", start=0.5, end=10.0, nodes=(3,)))
        node = sim.nodes[3]
        sim.env.run(until=6.0)
        assert not node.crashed and node.interface.disconnected
        sim.env.run(until=11.0)
        assert not node.interface.disconnected
