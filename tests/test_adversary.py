"""Tests for Byzantine behaviour and adversarial network control.

The paper's safety claim is that no attack by < 1/3 of the stake can fork
the chain; these tests run the implemented attacks — the attacker fault
kinds, on the highest user slots for the whole run — and assert honest
nodes never diverge, while liveness degrades only gracefully.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos import (
    FaultAction,
    ScenarioError,
    ScenarioScript,
    figure8_adversary,
)
from repro.chaos.faults import FilterChain, Partitioner
from repro.experiments.harness import Simulation, SimulationConfig
from repro.obs import TraceBus


def _attacked(num_users: int, seed: int, attackers: int,
              *kinds: str) -> Simulation:
    """A deployment whose ``attackers`` highest users run ``kinds``."""
    nodes = tuple(range(num_users - attackers, num_users))
    return Simulation(
        SimulationConfig(num_users=num_users, seed=seed),
        faults=[FaultAction(kind=kind, start=0.0, nodes=nodes)
                for kind in kinds])


class TestEquivocatingProposer:
    def test_safety_with_equivocators(self):
        sim = _attacked(16, 13, 3, "equivocate")
        sim.submit_payments(20)
        sim.run_rounds(2)
        for round_number in (1, 2):
            assert len(sim.outcome().agreed_hashes(round_number)) == 1

    def test_equivocating_proposals_never_win(self):
        """When an equivocator holds the round's highest priority, honest
        users detect the two versions and fall back; the committed block
        is then either honest or empty, never one of the equivocator's."""
        sim = _attacked(16, 13, 3, "equivocate")
        sim.run_rounds(3)
        malicious_keys = {node.keypair.public for node in sim.nodes[13:]}
        for node in sim.nodes[:13]:
            for block in node.chain.blocks[1:]:
                assert block.proposer not in malicious_keys


class TestDoubleVoting:
    def test_safety_with_double_voters(self):
        sim = _attacked(16, 17, 3, "double-vote")
        sim.run_rounds(2)
        for round_number in (1, 2):
            assert len(sim.outcome().agreed_hashes(round_number)) == 1

    def test_full_attack_figure8_shape(self):
        """The combined attack (Figure 8): latency may grow with the
        malicious fraction but agreement and progress persist."""
        latencies = {}
        for bad in (0, 3):
            sim = Simulation(SimulationConfig(num_users=16, seed=23),
                             faults=figure8_adversary(range(16 - bad, 16)))
            sim.run_rounds(2)
            assert len(sim.outcome().agreed_hashes(1)) == 1
            assert len(sim.outcome().agreed_hashes(2)) == 1
            latencies[bad] = max(sim.outcome().round_latencies(2))
        # Attack may slow rounds, but must stay within the BA* budget.
        assert latencies[3] < 120


class TestSilentStake:
    def test_progress_with_silent_minority(self):
        """Offline stake below the threshold margin: liveness holds."""
        sim = _attacked(20, 29, 2, "silent")
        sim.run_rounds(2)
        assert len(sim.outcome().agreed_hashes(1)) == 1
        for node in sim.nodes[:18]:
            assert node.chain.height == 2


class TestPartitioner:
    def test_short_partition_stalls_then_heals(self):
        """While partitioned, neither side can reach BA* quorum (vote
        thresholds are calibrated to the full committee), so no blocks
        commit — and crucially no forks form. After healing (within the
        MaxSteps budget), the round completes, typically on the empty
        block."""
        sim = Simulation(SimulationConfig(num_users=16, seed=31))
        chain = FilterChain(sim.network)
        partition = Partitioner(chain, [set(range(8)), set(range(8, 16))])
        partition.schedule(sim.env, start=0.0, end=50.0)
        for node in sim.nodes:
            node.start(1)
        sim.env.run(until=40.0)
        # Mid-partition: nobody committed round 1.
        assert all(node.chain.height == 0 for node in sim.nodes)
        sim.env.run(until=600.0, stop_when=lambda: not any(
            node.running for node in sim.nodes))
        assert all(node.chain.height == 1 for node in sim.nodes)
        assert len(sim.outcome().agreed_hashes(1)) == 1

    def test_long_partition_halts_without_forking(self):
        """A partition outlasting MaxSteps * lambda_step makes BinaryBA*
        give up (the paper's HangForever): nodes halt and wait for the
        recovery protocol — but never commit divergent blocks."""
        sim = Simulation(SimulationConfig(num_users=16, seed=31))
        chain = FilterChain(sim.network)
        partition = Partitioner(chain, [set(range(8)), set(range(8, 16))])
        partition.activate()
        for node in sim.nodes:
            node.start(1)
        sim.env.run(until=300.0)
        assert all(node.halted for node in sim.nodes)
        assert all(node.chain.height == 0 for node in sim.nodes)

    def test_schedule_validation(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        chain = FilterChain(sim.network)
        partition = Partitioner(chain, [set(), set()])
        with pytest.raises(ValueError):
            partition.schedule(sim.env, start=5.0, end=5.0)


#: Four of sixteen users in reach, struck 1.5 s after they speak and
#: held past the end of the run.
PROPOSER_DOS = FaultAction(kind="targeted-dos", start=0.0, end=600.0,
                           nodes=(12, 13, 14, 15), extra_delay=1.5)


class TestTargetedDoS:
    def test_proposer_dos_does_not_stop_progress(self):
        """Participant replacement: DoS-ing each proposer after it speaks
        cannot stop Algorand — the proposer's job is already done and the
        committees of later steps are fresh users."""
        bus = TraceBus()
        sim = Simulation(SimulationConfig(num_users=16, seed=37), obs=bus,
                         faults=[PROPOSER_DOS])
        sim.run_rounds(2, time_limit=600)
        # The window outlasts the run, so every strike still holds.
        victims = {index for index, holds in sim.injector.holds.items()
                   if holds}
        assert victims  # the attack actually fired
        # A victim is struck for its own announcement: a node that
        # really proposed, not whoever relayed it.
        proposers = {event["node"]
                     for event in bus.events_of_kind("block_proposed")}
        assert victims <= proposers
        assert all(sim.nodes[index].interface.disconnected
                   for index in victims)
        assert len(sim.outcome().agreed_hashes(1)) == 1
        assert len(sim.outcome().agreed_hashes(2)) == 1

    def test_reaction_time_validation(self):
        """A negative reaction time, no reach, no end, or a reach
        holding >= 1/3 of the stake (6 of 16 equal users) is refused."""
        config = SimulationConfig(num_users=16, seed=37)
        ScenarioScript(name="targeted-dos", config=config,
                       actions=(PROPOSER_DOS,)).validate()
        for fields in ({"extra_delay": -1.0}, {"nodes": ()}, {"end": None},
                       {"nodes": tuple(range(10, 16))}):
            script = ScenarioScript(name="targeted-dos", config=config,
                                    actions=(replace(PROPOSER_DOS,
                                                     **fields),))
            with pytest.raises(ScenarioError):
                script.validate()


class TestIsolate:
    def test_isolated_minority_stalls_but_majority_progresses(self):
        sim = Simulation(SimulationConfig(num_users=20, seed=41), faults=[
            FaultAction(kind="dos", start=0.0, end=1000.0,
                        nodes=(18, 19))])
        online = sim.nodes[:18]
        for node in online:
            node.start(1)
        sim.env.run(until=600, stop_when=lambda: not any(
            node.running for node in online))
        assert all(node.chain.height == 1 for node in online)
        assert len({node.chain.tip_hash for node in online}) == 1
