"""Running costs (section 10.3): bandwidth, certificate storage, sharding.

The paper reports, for 50,000 users and 1 MByte blocks:

* ~10 Mbit/s per-user bandwidth while a round is active;
* per-user communication independent of the total number of users
  (committee-sized, not population-sized);
* 300 KByte certificates (~30% overhead on 1 MB blocks), reduced
  proportionally by sharding (130 KB/block/user at 10 shards).

We measure the same quantities from the simulation's byte counters and
real certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.params import ProtocolParams, TEST_PARAMS
from repro.experiments.harness import NetworkConfig, Simulation, SimulationConfig
from repro.ledger.storage import ShardedStore
from repro.network.message import VOTE_MESSAGE_BYTES


@dataclass(frozen=True)
class CostReport:
    """Measured per-user costs for one deployment."""

    num_users: int
    rounds: int
    mean_bytes_sent_per_user: float
    mean_bandwidth_bits_per_sec: float
    certificate_bytes: float
    certificate_votes: float
    block_bytes: float
    certificate_overhead: float  # certificate / block size
    storage_per_round_unsharded: float
    storage_per_round_sharded_10: float
    # CPU proxy (section 10.3: "most of it for verifying signatures and
    # VRFs"): crypto operations per user per round, plus the CPU-seconds
    # estimate at production per-op costs.
    verifications_per_user_round: float
    cpu_seconds_per_user_round: float


def measure_costs(num_users: int = 40, *, rounds: int = 3, seed: int = 0,
                  params: ProtocolParams | None = None,
                  payload_bytes: int = 40_000) -> CostReport:
    """Run a deployment and collect the section 10.3 cost metrics."""
    from repro.crypto.backend import FastBackend
    from repro.crypto.counting import CountingBackend

    params = params if params is not None else TEST_PARAMS
    counting = CountingBackend(FastBackend())
    sim = Simulation(SimulationConfig(
        num_users=num_users, params=params, seed=seed,
        network=NetworkConfig(bandwidth_bps=20e6, latency_model="city"),
    ), backend=counting)
    for _ in range(rounds):
        sim.submit_payments(min(200, num_users * 2),
                            note_bytes=payload_bytes // 100)
    sim.run_rounds(rounds)

    duration = sim.env.now
    bytes_sent = sim.network.bytes_sent_per_node()
    mean_bytes = float(np.mean(bytes_sent))

    certificate_sizes, certificate_votes, block_sizes = [], [], []
    reference = sim.nodes[0].chain
    for round_number in range(1, rounds + 1):
        certificate = reference.certificate_at(round_number)
        if certificate is not None:
            certificate_sizes.append(certificate.size)
            certificate_votes.append(len(certificate.votes))
        block_sizes.append(reference.block_at(round_number).size)

    certificate_bytes = float(np.mean(certificate_sizes))
    block_bytes = float(np.mean(block_sizes))

    # Storage: every user stores every round unsharded; sharding by 10
    # divides the expectation.
    store = ShardedStore(10)
    publics = [keypair.public for keypair in sim.keypairs]
    for round_number in range(1, rounds + 1):
        block = reference.block_at(round_number)
        certificate = reference.certificate_at(round_number)
        certificate_size = certificate.size if certificate else 0
        for public in publics:
            store.record_block(public, block,
                               certificate_bytes=certificate_size)
    sharded = store.average_bytes_per_round(publics, rounds)

    user_rounds = num_users * rounds
    return CostReport(
        num_users=num_users,
        rounds=rounds,
        mean_bytes_sent_per_user=mean_bytes,
        mean_bandwidth_bits_per_sec=mean_bytes * 8.0 / duration,
        certificate_bytes=certificate_bytes,
        certificate_votes=float(np.mean(certificate_votes)),
        block_bytes=block_bytes,
        certificate_overhead=certificate_bytes / block_bytes,
        storage_per_round_unsharded=block_bytes + certificate_bytes,
        storage_per_round_sharded_10=sharded,
        verifications_per_user_round=(
            counting.counts.total_verifications / user_rounds),
        cpu_seconds_per_user_round=(
            counting.counts.cpu_seconds() / user_rounds),
    )


def expected_certificate_bytes(params: ProtocolParams) -> float:
    """Analytic certificate size: quorum votes x bytes per vote.

    With the paper's tau_step = 2000, T = 0.685 and ~250-byte votes this
    lands near the reported 300 KB.
    """
    quorum = int(params.t_step * params.tau_step) + 1
    return quorum * VOTE_MESSAGE_BYTES
