"""Running costs (section 10.3): bandwidth, certificate storage, sharding.

The paper reports, for 50,000 users and 1 MByte blocks:

* ~10 Mbit/s per-user bandwidth while a round is active;
* per-user communication independent of the total number of users
  (committee-sized, not population-sized);
* 300 KByte certificates (~30% overhead on 1 MB blocks), reduced
  proportionally by sharding (130 KB/block/user at 10 shards);
* CPU going mostly to verifying signatures and VRFs.

One :func:`costs_spec` run (the ``costs`` measure) yields all of them:
bytes from the sim network's counter, certificates and blocks from a
node's committed chain, and the crypto operations the deployment's
backend performed (``crypto.*``, counted by the backend itself) priced
at production per-op costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import SpecError
from repro.common.params import ProtocolParams
from repro.experiments.spec import ExperimentSpec
from repro.ledger.storage import ShardedStore
from repro.network.message import VOTE_MESSAGE_BYTES
from repro.node.config import NetworkConfig, SimulationConfig
from repro.node.deployment import RunOutcome, derive_genesis

#: Seconds per crypto operation in a production (C library)
#: implementation, by its ``crypto.*`` counter.
OP_SECONDS = {"crypto.signs": 25e-6, "crypto.verifies": 60e-6,
              "crypto.vrf_proves": 100e-6, "crypto.vrf_verifies": 130e-6}


def cpu_seconds(counters: dict) -> float:
    """Estimated CPU time of the counted crypto operations."""
    return sum(counters[name] * cost for name, cost in OP_SECONDS.items())


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


def measure_costs(outcome: RunOutcome, spec: ExperimentSpec) -> CostReport:
    """Read the section 10.3 cost metrics off a finished sim run."""
    counters = outcome.snapshot
    missing = [name for name in ("network.total_bytes_sent", *OP_SECONDS)
               if name not in counters]
    if missing:
        raise SpecError(f"costs reads {missing} off the run: a sim "
                        f"deployment")
    num_users, rounds = spec.config.num_users, spec.rounds
    # Every key pair is a network slot: observers and dormant stake too.
    publics = [keypair.public for keypair in
               derive_genesis(spec.config, outcome.backend).keypairs]
    mean_bytes = counters["network.total_bytes_sent"] / len(publics)

    reference = outcome.runs[0]
    blocks = reference.blocks[:rounds]
    votes = reference.certificate_votes[:rounds]
    certificate_votes = [count for count in votes if count is not None]
    certificate_bytes = float(np.mean(
        [count * VOTE_MESSAGE_BYTES for count in certificate_votes]))
    block_bytes = float(np.mean([block.size for block in blocks]))

    # Storage: every user stores every round unsharded; sharding by 10
    # divides the expectation.
    store = ShardedStore(10)
    for block, count in zip(blocks, votes):
        for public in publics:
            store.record_block(public, block, certificate_bytes=(
                (count or 0) * VOTE_MESSAGE_BYTES))
    sharded = store.average_bytes_per_round(publics, rounds)

    user_rounds = num_users * rounds
    return CostReport(
        num_users=num_users,
        rounds=rounds,
        mean_bytes_sent_per_user=mean_bytes,
        mean_bandwidth_bits_per_sec=mean_bytes * 8.0 / outcome.now,
        certificate_bytes=certificate_bytes,
        certificate_votes=float(np.mean(certificate_votes)),
        block_bytes=block_bytes,
        certificate_overhead=certificate_bytes / block_bytes,
        storage_per_round_unsharded=block_bytes + certificate_bytes,
        storage_per_round_sharded_10=sharded,
        verifications_per_user_round=(
            (counters["crypto.verifies"] + counters["crypto.vrf_verifies"])
            / user_rounds),
        cpu_seconds_per_user_round=cpu_seconds(counters) / user_rounds,
    )


def costs_spec(num_users: int, seed: int, *, rounds: int = 3,
               payload_bytes: int = 40_000) -> ExperimentSpec:
    """One point: a 20 Mbit/s city-latency deployment, one batch of
    payments per round carrying ``payload_bytes`` of notes."""
    config = SimulationConfig(
        num_users=num_users, seed=seed,
        network=NetworkConfig(bandwidth_bps=20e6, latency_model="city"))
    batch = (min(200, num_users * 2), payload_bytes // 100)
    return ExperimentSpec("costs", config, rounds,
                          payments=(batch,) * rounds)


def expected_certificate_bytes(params: ProtocolParams) -> float:
    """Analytic certificate size: quorum votes x bytes per vote.

    With the paper's tau_step = 2000, T = 0.685 and ~250-byte votes this
    lands near the reported 300 KB.
    """
    quorum = int(params.t_step * params.tau_step) + 1
    return quorum * VOTE_MESSAGE_BYTES
