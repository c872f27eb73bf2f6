"""End-to-end automatic recovery: partition -> halt -> daemon -> healed.

The full section 8.2 story without any harness intervention: a long
partition exhausts MaxSteps on both sides, nodes halt (HangForever), the
clock-driven recovery daemons fire after the partition heals, and the
network converges back onto one chain and can commit blocks again.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos.faults import FilterChain, Partitioner
from repro.common.params import TEST_PARAMS
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.recovery import RecoveryDaemon, attach_recovery_daemons

# Small MaxSteps so partitions halt quickly; short recovery interval so
# daemons fire within the test window.
PARAMS = dataclasses.replace(
    TEST_PARAMS, max_steps=9, lambda_step=1.0, lambda_block=2.0,
    lambda_priority=0.5, lambda_stepvar=0.5, recovery_interval=30.0)


class TestAutomaticRecovery:
    def test_partition_halt_then_automatic_recovery(self):
        sim = Simulation(SimulationConfig(num_users=16, seed=91,
                                          params=PARAMS))
        controls = FilterChain(sim.network)
        partition = Partitioner(controls,
                                [set(range(8)), set(range(8, 16))])
        # Partition from the start; heal at t=40 (after MaxSteps burns).
        partition.schedule(sim.env, start=0.0, end=40.0)
        daemons = attach_recovery_daemons(sim.nodes, skew_per_node=0.01,
                                          resume_target=1)

        for node in sim.nodes:
            node.start(1)
        sim.env.run(until=25.0)
        assert all(node.halted for node in sim.nodes)

        # Heal + let the daemons run a recovery attempt or two.
        sim.env.run(until=400.0)
        assert all(not node.halted for node in sim.nodes)
        assert sum(d.recoveries for d in daemons) > 0
        # Liveness fully restored: block production resumed and round 1
        # finally committed, identically everywhere.
        assert all(node.chain.height >= 1 for node in sim.nodes)
        assert len({node.chain.block_at(1).block_hash
                    for node in sim.nodes}) == 1

    def test_daemon_idle_when_healthy(self):
        sim = Simulation(SimulationConfig(num_users=12, seed=92,
                                          params=PARAMS))
        daemons = attach_recovery_daemons(sim.nodes)
        sim.run_rounds(1, time_limit=200.0)
        # Healthy run: daemons never fired a recovery.
        assert all(d.recoveries == 0 for d in daemons)
        assert len(sim.outcome().agreed_hashes(1)) == 1

    def test_daemon_validation(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=93,
                                          params=PARAMS))
        with pytest.raises(ValueError):
            RecoveryDaemon(sim.nodes[0], safety_margin=-1)


class TestForkMonitor:
    def test_clean_run_sees_no_foreign_chains(self):
        sim = Simulation(SimulationConfig(num_users=12, seed=94))
        sim.run_rounds(2)
        assert all(not node.fork_monitor for node in sim.nodes)

    def test_forked_vote_is_noticed(self):
        """A vote binding to an unknown prev-hash lands in the monitor."""
        from repro.baplus.messages import make_vote
        from repro.crypto.hashing import H
        from repro.network.message import vote_envelope

        sim = Simulation(SimulationConfig(num_users=8, seed=95))
        node = sim.nodes[0]
        stranger = sim.nodes[1]
        foreign = make_vote(
            sim.backend, stranger.keypair.secret, stranger.keypair.public,
            node.chain.next_round, "1", H(b"sort"), b"proof",
            H(b"some-other-chain"), H(b"value"))
        # Undecidable (a foreign tip), so the gate admits it signed.
        assert node.receive(vote_envelope(stranger.keypair.public,
                                          foreign), 1)
        assert node.fork_monitor.get(H(b"some-other-chain")) == 1