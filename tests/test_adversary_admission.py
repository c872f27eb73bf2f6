"""Ingress robustness under live Byzantine attack (seeded, deterministic).

A 20%-Byzantine deployment — flooders, undecidable-message spammers, or
the paper's section 10.4 equivocate-and-double-vote adversary — must not
stop the honest majority: blocks keep committing, every honest buffer
stays inside its budget, and the admission layer's quarantine machinery
identifies exactly the attackers, never an honest peer.
"""

from __future__ import annotations

from repro.chaos import FaultAction, figure8_adversary
from repro.experiments.harness import (
    RuntimeConfig,
    Simulation,
    SimulationConfig,
)
from repro.node.deployment import node_counters
from repro.obs import TraceBus
from repro.runtime.admission import AdmissionConfig

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


def _run_attack(faults, *, num_users=10, seed=61, admission=None,
                obs=None):
    """Run a Byzantine sim until every honest node commits ROUNDS."""
    sim = Simulation(
        SimulationConfig(num_users=num_users, seed=seed,
                         runtime=RuntimeConfig(admission=admission)),
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
        assert len(sim.agreed_hashes(round_number)) == 1
    budget = sim.nodes[0].buffer.budget_messages
    for node in honest:
        assert node.buffer.high_water <= budget
    for node in honest:
        lane_budget = sim.network.interfaces[node.index].lane_budget
        assert (sim.network.interfaces[node.index].egress_high_water
                <= lane_budget)


def _assert_only_attackers_blamed(sim):
    attackers = _attackers(sim)
    served = set(sim.quarantine_directory._served)
    assert served, "no attacker was ever network-quarantined"
    assert served <= attackers, f"honest nodes quarantined: {served}"
    for node in _honest(sim):
        locally_blocked = set(node.admission.health.quarantined_until)
        assert locally_blocked <= attackers, (
            f"node {node.index} blocked honest peers: "
            f"{locally_blocked - attackers}")


class TestFloodingQuarantine:
    def test_flooders_quarantined_network_commits(self):
        """Invalid-signature flooders (20% of peers) are cut off and the
        honest majority keeps committing."""
        sim = _run_attack([FLOOD])
        _assert_honest_progress(sim)
        _assert_only_attackers_blamed(sim)
        # Both flooders were caught, not just one.
        assert set(sim.quarantine_directory._served) == {8, 9}
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
                    sorted(sim.quarantine_directory._served.items()))

        assert fingerprint() == fingerprint()


class TestSpamQuarantine:
    def test_spammers_exceed_flood_budget_and_are_cut(self):
        """Validly signed far-future votes pass every signature check;
        the per-origin flood budget is what catches the sender."""
        sim = _run_attack(
            [SPAM],
            admission=AdmissionConfig(flood_budget_per_round=32))
        _assert_honest_progress(sim)
        _assert_only_attackers_blamed(sim)
        assert sim.quarantine_directory.quarantines >= 1
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
            assert len(sim.agreed_hashes(round_number)) == 1
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
