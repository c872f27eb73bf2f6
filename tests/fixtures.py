"""Shared simulation helpers for the test suite.

Deduplicates the three shapes almost every integration test rebuilds:

* :func:`run_sim` / :func:`run_traced` — build, fund and run a seeded
  :class:`~repro.experiments.harness.Simulation` in one call;
* :func:`run_chaos` — ``run_point`` on a chaos spec, returning its
  verdict together with the deployment it built, for tests that look
  inside the run;
* :func:`chain_hash` — one digest over every committed byte and round
  record, for golden-value tests;
* :func:`assert_chains_byte_identical` — the byte-identity bar used by
  the admission, population and damping equivalence suites: same block
  dataclasses (timestamps included), same round records, on every node;
* :func:`signed_vote` — a validly-signed :class:`VoteMessage` from one
  of a simulation's users, with forgeable fields overridable per test;
* :func:`record_received` — a recording ``on_receive`` hook on every
  interface of a bare gossip network (what each node accepted);
* :func:`live_transport` — a socket-less :class:`LiveTransport` with the
  queue bounds a default deployment would hand it;
* :func:`live_config` — a small live cluster's config at the smoke
  scale.

Import from tests as ``from tests.fixtures import run_sim`` (the tests
directory is a package).
"""

from __future__ import annotations

import hashlib
from unittest import mock

from repro.baplus.messages import VoteMessage, make_vote
from repro.common.encoding import encode
from repro.crypto.hashing import H
from repro.common.params import LIVE_SMOKE_PARAMS
from repro.experiments import sweep
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import SubstrateConfig
from repro.ledger.block import Block
from repro.live.clock import LiveClock
from repro.live.transport import LiveTransport
from repro.obs import TraceBus


def run_sim(rounds: int, payments: int = 0, *, obs: TraceBus | None = None,
            **config) -> Simulation:
    """Build a :class:`Simulation` from config kwargs and run it."""
    sim = Simulation(SimulationConfig(**config), obs=obs)
    if payments:
        sim.submit_payments(payments)
    if rounds:
        sim.run_rounds(rounds)
    return sim


def sent_bytes(network) -> list[int]:
    """Bytes each slot sent; a slot that was never active sent 0."""
    return [iface.bytes_sent if iface is not None else 0
            for iface in network.interfaces]


def events_of(bus: TraceBus, kind: str) -> list[dict]:
    """The events of one kind a bus kept, in emission order."""
    return [event for event in bus.events if event["kind"] == kind]


def buffered_rounds(buffer) -> set[int]:
    """The rounds a ``VoteBuffer`` holds a bucket for."""
    return {key[0] for key, _ in buffer.buckets_between(0, 1 << 62)}


def run_traced(rounds: int, payments: int = 0,
               **config) -> tuple[Simulation, TraceBus]:
    """:func:`run_sim` with a fresh :class:`TraceBus` attached."""
    bus = TraceBus()
    return run_sim(rounds, payments, obs=bus, **config), bus


def run_chaos(spec, **kwargs):
    """``run_point(spec, **kwargs)``'s verdict and the deployment it
    built (a ``Simulation`` or a ``LiveCluster``)."""
    built = []

    def deploy(*args, **options):
        built.append(real(*args, **options))
        return built[-1]

    real = sweep.deploy
    with mock.patch.object(sweep, "deploy", deploy):
        verdict = sweep.run_point(spec, **kwargs).point
    (deployment,) = built
    return verdict, deployment


def forged_commit(node: int, round_number: int, block_hash: str,
                  t: float) -> dict:
    """A bare ``round_commit`` record, for feeding checkers forgeries."""
    return {"t": t, "kind": "round_commit", "node": node,
            "round": round_number, "block_hash": block_hash}


def chain_fingerprint(sim: Simulation) -> list[list[tuple]]:
    """Every committed byte, per node: block dataclasses + round records.

    Two runs whose fingerprints compare equal committed literally the
    same chains — hashes, seeds, transactions, and the timestamps that
    betray any event-ordering drift — and recorded the same per-round
    telemetry.
    """
    out = []
    for node in sim.nodes:
        blocks = [node.chain.block_at(r)
                  for r in range(1, node.chain.height + 1)]
        records = [node.metrics.round_record(r)
                   for r in range(1, node.chain.height + 1)]
        out.append([(block, record)
                    for block, record in zip(blocks, records)])
    return out


def canonical_block_dump(block: Block) -> bytes:
    """Every field of ``block`` through the canonical (frozen) codec.

    Deliberately not the transport encoding: the wire layouts are free
    to evolve, the golden hashes pinned on this dump must not move when
    they do. (Byte for byte the list format the wire used when the
    goldens were recorded, which is why the tags read ``w...``.)
    """
    return encode([
        "wblock", block.round_number, block.prev_hash, block.timestamp,
        block.seed, block.seed_proof, block.proposer,
        block.proposer_vrf_hash, block.proposer_vrf_proof,
        block.proposer_priority,
        [encode(["wtx", tx.sender, tx.recipient, tx.amount, tx.nonce,
                 tx.note, tx.signature]) for tx in block.transactions],
    ])


def chain_hash(sim: Simulation) -> str:
    """:func:`chain_fingerprint` as one hex digest, for golden tests.

    Every field of every block plus the ``repr`` of every round record
    (whose float durations move with any event-timing drift), per node.
    """
    digest = hashlib.sha256()
    for node in sim.nodes:
        for r in range(1, node.chain.height + 1):
            digest.update(canonical_block_dump(node.chain.block_at(r)))
            digest.update(repr(node.metrics.round_record(r)).encode())
    return digest.hexdigest()


def assert_chains_byte_identical(one: Simulation, other: Simulation,
                                 rounds: int) -> None:
    """The equivalence bar: both runs committed identical chains.

    Checks height, every block dataclass (covers every committed byte,
    timestamp included), tip hashes, and per-node round records.
    """
    chain_one = one.nodes[0].chain
    chain_other = other.nodes[0].chain
    assert chain_other.height == chain_one.height == rounds
    for r in range(1, rounds + 1):
        assert chain_other.block_at(r) == chain_one.block_at(r)
    assert chain_other.tip_hash == chain_one.tip_hash
    for node_one, node_other in zip(one.nodes, other.nodes):
        assert node_other.chain.tip_hash == node_one.chain.tip_hash
        for r in range(1, rounds + 1):
            assert (node_other.metrics.round_record(r)
                    == node_one.metrics.round_record(r))


def record_received(net, relay: bool = True) -> list[list]:
    """Install a recording ``on_receive`` hook on every interface of
    ``net``.

    Returns one list per interface, filled with the envelopes that
    interface accepts (every copy past duplicate suppression); each
    hook keeps what it is asked about and answers ``relay``.
    """
    received: list[list] = [[] for _ in net.interfaces]
    for interface, log in zip(net.interfaces, received):
        def on_receive(envelope, from_index, log=log):
            log.append(envelope)
            return relay
        interface.on_receive = on_receive
    return received


def live_transport(index: int = 0, clock: LiveClock | None = None,
                   **options) -> LiveTransport:
    """A :class:`LiveTransport` with no sockets behind it.

    The queue bounds and the dedup horizon are the module constants a
    node process runs on (:data:`~repro.live.transport.DRAIN_BUDGET`,
    :data:`~repro.live.transport.RX_QUEUE_LIMIT`,
    :data:`~repro.network.gossip.SEEN_HORIZON_ROUNDS`); a test shrinks
    one with ``monkeypatch.setattr`` on its module. ``options`` passes
    ``obs``/``incarnation``.
    """
    return LiveTransport(index, clock if clock is not None else LiveClock(),
                         **options)


def live_config(num_nodes: int = 5, *, seed: int = 7,
                runtime_dir: str | None = None) -> SimulationConfig:
    """A live cluster of ``num_nodes`` processes at the smoke scale:
    wall-clock lambdas and 40 units a user."""
    return SimulationConfig(
        num_users=num_nodes, seed=seed, params=LIVE_SMOKE_PARAMS,
        initial_balance=40,
        substrate=SubstrateConfig(kind="live", runtime_dir=runtime_dir))


def signed_vote(sim: Simulation, voter_index: int, round_number: int,
                step: str, *, value: bytes | None = None,
                sorthash: bytes | None = None,
                sortproof: bytes | None = None,
                prev_hash: bytes | None = None) -> VoteMessage:
    """A validly-signed vote from user ``voter_index``.

    The sortition fields default to junk (most ingress tests want a
    signature-valid, sortition-invalid or undecidable vote); pass real
    values to exercise the full path.
    """
    keypair = sim.keypairs[voter_index]
    return make_vote(
        sim.backend, keypair.secret, keypair.public, round_number, step,
        sorthash if sorthash is not None else H(b"test-sorthash"),
        sortproof if sortproof is not None else b"test-proof",
        prev_hash if prev_hash is not None
        else sim.nodes[0].chain.tip_hash,
        value if value is not None else H(b"test-value"),
    )
