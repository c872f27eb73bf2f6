"""Ingress robustness under live Byzantine attack (seeded, deterministic).

A 20%-Byzantine deployment — flooders, undecidable-message spammers, or
the paper's section 10.4 equivocate-and-double-vote adversary — must not
stop the honest majority: blocks keep committing, every honest buffer
stays inside its budget, and each honest node's gate blocks exactly the
attackers it meets, never an honest peer.
"""

from __future__ import annotations

from repro.chaos import (
    FaultAction,
    figure8_adversary,
    flood_recovery_scenario,
)
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import RuntimeConfig
from repro.node.deployment import node_counters
from repro.obs import TraceBus
from repro.obs.report import render_report

from tests.fixtures import run_chaos

ROUNDS = 2

#: Junk-vote attackers at the volume of the loops they were first built
#: with: 48 invalid-signature or 16 far-future votes every 0.5 s.
FLOOD = FaultAction(kind="flood", start=0.5, nodes=(8, 9), rate=96.0)
SPAM = FaultAction(kind="spam", start=0.5, nodes=(8, 9), rate=32.0)


def _attackers(sim) -> set[int]:
    return {index for action in sim.injector.actions
            for index in action.nodes}


def _honest(sim) -> list:
    return [node for node in sim.nodes if node.index not in _attackers(sim)]


def _run_attack(faults, *, num_users=10, seed=61,
                runtime=RuntimeConfig(), obs=None):
    """Run a Byzantine sim until every honest node commits ROUNDS."""
    sim = Simulation(
        SimulationConfig(num_users=num_users, seed=seed,
                         runtime=runtime),
        faults=faults, obs=obs)
    for node in sim.nodes:
        node.start(ROUNDS)
    honest = _honest(sim)
    sim.env.run(until=900.0, stop_when=lambda: not any(
        node.running for node in honest))
    assert not any(node.running for node in honest), \
        "honest nodes failed to commit"
    return sim


def _assert_honest_progress(sim):
    honest = _honest(sim)
    for node in honest:
        assert node.chain.height >= ROUNDS
    for round_number in range(1, ROUNDS + 1):
        assert len(sim.outcome().agreed_hashes(round_number)) == 1
    budget = sim.nodes[0].buffer.budget_messages
    for node in honest:
        assert node.buffer.high_water <= budget
    for node in honest:
        lane_budget = sim.network.interfaces[node.index].lane_budget
        assert (sim.network.interfaces[node.index].egress_high_water
                <= lane_budget)


def _local_blocks(sim) -> set[int]:
    """Every peer some honest node blocks at its own gate."""
    return {index for node in _honest(sim)
            for index in node.admission.health.quarantined_until}


def _assert_only_attackers_blamed(sim):
    """The attackers' honest neighbours block them at their own gates,
    and no honest node blocks an honest peer."""
    attackers = _attackers(sim)
    for node in _honest(sim):
        locally_blocked = set(node.admission.health.quarantined_until)
        assert locally_blocked <= attackers, (
            f"node {node.index} blocked honest peers: "
            f"{locally_blocked - attackers}")
        if attackers & set(sim.network.interfaces[node.index].neighbors):
            assert locally_blocked, (
                f"node {node.index} never blocked an attacking neighbour")


class TestFloodingQuarantine:
    def test_flooders_quarantined_network_commits(self):
        """Invalid-signature flooders (20% of peers) are blocked by the
        honest nodes they reach, and the honest majority keeps
        committing."""
        sim = _run_attack([FLOOD])
        _assert_honest_progress(sim)
        _assert_only_attackers_blamed(sim)
        # Both flooders were caught, not just one.
        assert _local_blocks(sim) == {8, 9}
        # Their junk was rejected pre-relay: honest nodes never forwarded
        # a single invalid-signature vote.
        total_rejections = sum(
            node.admission.rejected.get("invalid_signature", 0)
            for node in sim.nodes[:8])
        assert total_rejections > 0

    def test_flood_run_is_deterministic(self):
        def fingerprint():
            sim = _run_attack([FLOOD])
            return ([node.chain.tip_hash for node in sim.nodes[:8]],
                    [sorted(node.admission.health.quarantined_until.items())
                     for node in sim.nodes[:8]])

        assert fingerprint() == fingerprint()

    def test_report_counts_the_local_blocks(self):
        """The report's admission row reads the gate's own blocks, the
        number both substrates have."""
        bus = TraceBus()
        _run_attack([FLOOD], obs=bus)
        snapshot = bus.snapshot()
        blocked = snapshot["counters"]["admission.rejected.quarantined"]
        assert blocked > 0
        (row,) = [line for line in render_report(bus.events,
                                                 snapshot).splitlines()
                  if line.startswith("admission")]
        assert f"{blocked} from locally blocked peers" in row

    def test_flood_recovery_leaves_no_node_behind(self):
        """Nobody is cut out of the topology: under the flood scenario
        every node, the attackers included, reaches the target while
        honest gates drop what the blocked peers send."""
        spec = flood_recovery_scenario()
        verdict, sim = run_chaos(spec)
        assert verdict.ok, verdict.violations
        assert verdict.heights == [spec.rounds] * spec.config.num_users
        assert sim.summary()["admission.rejected.quarantined"] > 0


class TestSpamQuarantine:
    def test_spammers_exceed_flood_budget_and_are_cut(self):
        """Validly signed far-future votes pass every signature check;
        the per-origin flood budget is what catches the sender."""
        sim = _run_attack(
            [SPAM],
            runtime=RuntimeConfig(flood_budget_per_round=32))
        _assert_honest_progress(sim)
        _assert_only_attackers_blamed(sim)
        assert _local_blocks(sim)
        flood_rejections = sum(
            node.admission.rejected.get("flood", 0)
            for node in sim.nodes[:8])
        assert flood_rejections > 0


class TestMaliciousQuarantine:
    def test_double_voters_quarantined_by_evidence(self):
        """The section 10.4 adversary's conflicting votes are
        self-certifying evidence: the origin is scored, quarantined, and
        the chain never forks."""
        bus = TraceBus()
        sim = _run_attack(figure8_adversary((12, 13, 14)), num_users=15,
                          seed=67, obs=bus)
        honest = sim.nodes[:12]
        for node in honest:
            assert node.chain.height >= ROUNDS
        for round_number in range(1, ROUNDS + 1):
            assert len(sim.outcome().agreed_hashes(round_number)) == 1
        attackers = {12, 13, 14}
        caught = sum(
            node_counters(node).get("admission.rejected.equivocation", 0)
            for node in honest)
        assert caught, "no conflicting vote was rejected as equivocation"
        # Every quarantine for equivocation names an actual attacker.
        blamed = {event["peer"]
                  for event in bus.events_of_kind("peer_quarantined")
                  if event.get("offense") == "equivocation"}
        assert blamed and blamed <= attackers
        # Local blocks (if any) must only ever name the attackers.
        for node in honest:
            assert set(node.admission.health.quarantined_until) <= attackers
