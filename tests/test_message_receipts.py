"""A priority announcement and a block carry their verdicts.

Every node on one tip asks the same question of one gossiped instance,
so :class:`PriorityMessage` remembers its sortition/priority verdict,
keyed by ``(seed, tau, weight, total_weight)``, and :class:`Block` its
seed verdict, keyed by ``(previous_seed, round)`` — as a vote keeps its
weight (``tests/test_vote_receipts.py``). These receipts are the only
verification memo, so these tests pin what makes them safe:

* a receipt is read only under the context it was made in;
* a ``dataclasses.replace`` copy and a wire-decoded copy start bare;
* a forgery's ``False`` stays on the forged instance;
* post-run audits add nothing to a run's ``crypto.*``;
* the checks the receipts remember fail cleanly on bad crypto, and only
  on bad crypto: an error of any other kind propagates instead of
  becoming a remembered "invalid" verdict.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos.monitor import audit_chains
from repro.crypto.backend import Ed25519Backend, FastBackend
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.block import Block
from repro.ledger.transaction import make_transaction
from repro.network.wire import BLOCK, PRIORITY
from repro.node.proposal import make_priority_message
from repro.sortition.roles import proposer_role
from repro.sortition.seed import propose_seed, verify_seed
from repro.sortition.selection import sortition, verify_sort

from tests.fixtures import run_sim

SEED = H(b"selection seed")
TAU, WEIGHT, TOTAL = 5.0, 10, 20


def _checks(backend) -> tuple[int, int]:
    return backend.verifies, backend.vrf_verifies


def _announcement(backend, round_number: int = 3):
    """A selected proposer's announcement under ``SEED`` (and its key)."""
    for i in range(32):
        kp = backend.keypair(H(b"proposer", bytes([i])))
        proof = sortition(backend, kp.secret, SEED, TAU,
                          proposer_role(round_number), WEIGHT, TOTAL)
        if proof.j > 0:
            return make_priority_message(kp.public, round_number, proof), kp
    raise AssertionError("no key selected; pick another seed")


def _block(backend, previous_seed: bytes = SEED, round_number: int = 3):
    kp = backend.keypair(H(b"block proposer"))
    seed, proof = propose_seed(backend, kp.secret, previous_seed,
                               round_number)
    return Block(round_number=round_number, prev_hash=H(b"prev"),
                 timestamp=1.0, seed=seed, seed_proof=proof,
                 proposer=kp.public)


class TestPriorityReceipt:
    def test_read_only_under_its_own_context(self):
        backend = FastBackend()
        message, _ = _announcement(backend)
        assert message.verify(backend, SEED, TAU, WEIGHT, TOTAL)
        checks = _checks(backend)
        assert message.verify(backend, SEED, TAU, WEIGHT, TOTAL)
        assert _checks(backend) == checks  # read back, not re-checked
        # Another seed, weight or total: recomputed, not inherited.
        assert not message.verify(backend, H(b"other"), TAU, WEIGHT, TOTAL)
        assert not message.verify(backend, SEED, TAU, 0, TOTAL)
        message.verify(backend, SEED, TAU, WEIGHT, TOTAL + 1)
        assert _checks(backend)[1] == checks[1] + 3
        assert message.verify(backend, SEED, TAU, WEIGHT, TOTAL)
        assert _checks(backend)[1] == checks[1] + 4

    def test_copies_start_bare(self):
        backend = FastBackend()
        message, _ = _announcement(backend)
        assert message.verify(backend, SEED, TAU, WEIGHT, TOTAL)
        assert "_verdict_receipt" in vars(message)
        for copy in (dataclasses.replace(message),
                     PRIORITY.unpack(PRIORITY.pack(message))):
            assert copy == message
            assert "_verdict_receipt" not in vars(copy)
            checks = _checks(backend)
            assert copy.verify(backend, SEED, TAU, WEIGHT, TOTAL)
            assert _checks(backend)[1] == checks[1] + 1

    def test_a_forgery_keeps_its_false(self):
        backend = FastBackend()
        message, _ = _announcement(backend)
        assert message.verify(backend, SEED, TAU, WEIGHT, TOTAL)
        forgeries = (dataclasses.replace(message, vrf_proof=b"\x00" * 64),
                     dataclasses.replace(message, priority=b"\xff" * 32),
                     dataclasses.replace(message,
                                         sub_users=message.sub_users + 1))
        for forged in forgeries:
            assert not forged.verify(backend, SEED, TAU, WEIGHT, TOTAL)
            assert not forged.verify(backend, SEED, TAU, WEIGHT, TOTAL)
            assert vars(forged)["_verdict_receipt"][-1] is False
        assert message.verify(backend, SEED, TAU, WEIGHT, TOTAL)
        assert vars(message)["_verdict_receipt"][-1] is True


class TestSeedReceipt:
    def test_read_only_under_its_own_context(self):
        backend = FastBackend()
        block = _block(backend)
        assert block.seed_valid(backend, SEED, 3)
        checks = _checks(backend)
        assert block.seed_valid(backend, SEED, 3)
        assert _checks(backend) == checks
        assert not block.seed_valid(backend, H(b"other"), 3)
        assert not block.seed_valid(backend, SEED, 4)
        assert block.seed_valid(backend, SEED, 3)
        assert _checks(backend)[1] == checks[1] + 3

    def test_copies_start_bare(self):
        backend = FastBackend()
        block = _block(backend)
        assert block.seed_valid(backend, SEED, 3)
        for copy in (dataclasses.replace(block),
                     BLOCK.unpack(BLOCK.pack(block))):
            assert copy.block_hash == block.block_hash
            assert "_seed_receipt" not in vars(copy)
            checks = _checks(backend)
            assert copy.seed_valid(backend, SEED, 3)
            assert _checks(backend)[1] == checks[1] + 1

    def test_a_forgery_keeps_its_false(self):
        backend = FastBackend()
        block = _block(backend)
        assert block.seed_valid(backend, SEED, 3)
        for forged in (dataclasses.replace(block, seed=H(b"grinded")),
                       dataclasses.replace(block, seed_proof=b"\x00" * 64)):
            assert not forged.seed_valid(backend, SEED, 3)
            assert vars(forged)["_seed_receipt"][-1] is False
        assert block.seed_valid(backend, SEED, 3)
        assert vars(block)["_seed_receipt"][-1] is True


def test_post_run_audits_add_no_crypto_work():
    sim = run_sim(2, payments=10, num_users=10, seed=4)
    before = {name: value for name, value in sim.summary().items()
              if name.startswith("crypto.")}
    outcome = sim.outcome()
    assert audit_chains(list(outcome.runs.values()), backend=outcome.backend,
                        now=outcome.now) == []
    assert {name: value for name, value in sim.summary().items()
            if name.startswith("crypto.")} == before


# ---------------------------------------------------------------------
# Typed failures: bad crypto is a clean "no", anything else propagates
# ---------------------------------------------------------------------

BACKENDS = {"fast": FastBackend, "ed25519": Ed25519Backend}


class _Bug(Exception):
    """Not a crypto failure: a programming error inside a check."""


def _broken(backend_class):
    """``backend_class`` whose checks fail with a non-crypto error."""

    def fail(*_):
        raise _Bug("not a verdict")

    return type("Broken" + backend_class.__name__, (backend_class,),
                {"_verify": fail, "_vrf_verify": fail})()


@pytest.mark.parametrize("kind", sorted(BACKENDS))
class TestTypedFailures:
    def test_bad_crypto_is_a_clean_rejection(self, kind):
        backend = BACKENDS[kind]()
        message, kp = _announcement(backend)
        role = proposer_role(message.round_number)
        stranger = b"\x01" * 31  # no such key: wrong length, too
        for public, proof in ((kp.public, message.vrf_proof[:-1]),
                              (stranger, message.vrf_proof)):
            assert verify_sort(backend, public, message.vrf_hash, proof,
                               SEED, TAU, role, WEIGHT, TOTAL) == 0
            assert not verify_seed(backend, public, message.vrf_hash,
                                   proof, SEED, 3)

    def test_a_bad_transaction_signature_is_a_clean_rejection(self, kind):
        sim = Simulation(SimulationConfig(num_users=4, seed=3),
                         backend=BACKENDS[kind]())
        payer, node = sim.nodes[0], sim.nodes[1]
        tx = make_transaction(sim.backend, payer.keypair.secret,
                              payer.keypair.public,
                              node.keypair.public, 1, 0)
        forged = dataclasses.replace(tx, signature=bytes(len(tx.signature)))
        assert not node._handle_transaction(forged)
        stranger = dataclasses.replace(tx, sender=b"\x02" * 32)
        assert not node._handle_transaction(stranger)
        assert node._handle_transaction(tx)

    def test_a_non_crypto_error_propagates(self, kind):
        honest = BACKENDS[kind]()
        message, kp = _announcement(honest)
        block = _block(honest)
        sim = Simulation(SimulationConfig(num_users=4, seed=3),
                         backend=_broken(BACKENDS[kind]))
        payer, node = sim.nodes[0], sim.nodes[1]
        tx = make_transaction(sim.backend, payer.keypair.secret,
                              payer.keypair.public,
                              node.keypair.public, 1, 0)
        broken = sim.backend
        with pytest.raises(_Bug):
            message.verify(broken, SEED, TAU, WEIGHT, TOTAL)
        with pytest.raises(_Bug):
            block.seed_valid(broken, SEED, 3)
        with pytest.raises(_Bug):
            node._handle_transaction(tx)
        # Nothing was remembered for the failed checks.
        assert "_verdict_receipt" not in vars(message)
        assert "_seed_receipt" not in vars(block)
        assert "_signature_valid" not in vars(tx)
