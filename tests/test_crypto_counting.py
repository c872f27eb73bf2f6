"""A backend counts the operations it performs.

:class:`~repro.crypto.backend.CryptoBackend`'s ``signs``, ``verifies``,
``vrf_proves`` and ``vrf_verifies`` count each public operation once,
failed checks included (section 10.3's CPU-cost proxy, ``crypto.*`` in
a harvested snapshot). Nothing between the protocol and the backend
memoizes: a repeated check runs, and counts, again — what a deployment
does not recompute is remembered on the message instances (their
receipts). A backend's own internal calls (``FastBackend.verify``
re-signs, its ``vrf_verify`` re-proves), ``keypair`` and ``vrf_outputs``
count nothing.
"""

from __future__ import annotations

import pytest

from repro.common.errors import SignatureError, VRFError
from repro.crypto.backend import Ed25519Backend, FastBackend
from repro.crypto.hashing import H


def _counts(backend) -> tuple[int, int, int, int]:
    return (backend.signs, backend.verifies, backend.vrf_proves,
            backend.vrf_verifies)


@pytest.fixture
def counting():
    return FastBackend()


class TestCounting:
    def test_all_operations_counted(self, counting):
        kp = counting.keypair(H(b"c-user"))
        signature = counting.sign(kp.secret, b"m")
        counting.verify(kp.public, b"m", signature)
        vrf_hash, proof = counting.vrf_prove(kp.secret, b"a")
        counting.vrf_verify(kp.public, proof, b"a")
        assert _counts(counting) == (1, 1, 1, 1)
        # No memo in the backend: a repeated check is performed again.
        counting.verify(kp.public, b"m", signature)
        assert counting.vrf_verify(kp.public, proof, b"a") == vrf_hash
        assert _counts(counting) == (1, 2, 1, 2)

    def test_failed_verify_still_counted(self, counting):
        kp = counting.keypair(H(b"c-user"))
        with pytest.raises(SignatureError):
            counting.verify(kp.public, b"m", b"\x00" * 32)
        with pytest.raises(VRFError):
            counting.vrf_verify(kp.public, b"\x00" * 64, b"a")
        assert not counting.is_valid_signature(kp.public, b"m", b"x")
        assert _counts(counting) == (0, 2, 0, 1)

    def test_results_delegate_to_inner(self, counting):
        """A public operation returns what the uncounted primitive under
        it computes; ``vrf_outputs`` is ``vrf_prove``'s hash alone."""
        kp = counting.keypair(H(b"c-user"))
        assert counting.sign(kp.secret, b"m") == counting._sign(kp.secret,
                                                                b"m")
        vrf_hash, proof = counting.vrf_prove(kp.secret, b"x")
        assert (vrf_hash, proof) == counting._vrf_prove(kp.secret, b"x")
        assert counting.vrf_outputs([kp.secret], b"x") == [vrf_hash]
        assert counting.vrf_verify(kp.public, proof, b"x") == vrf_hash

    @pytest.mark.parametrize("backend_class", [FastBackend, Ed25519Backend],
                             ids=["fast", "ed25519"])
    def test_internal_calls_count_once(self, backend_class):
        backend = backend_class()
        kp = backend.keypair(H(b"c-user"))
        assert _counts(backend) == (0, 0, 0, 0)  # keypair is not counted
        signature = backend.sign(kp.secret, b"m")
        backend.verify(kp.public, b"m", signature)
        vrf_hash, proof = backend.vrf_prove(kp.secret, b"a")
        assert backend.vrf_verify(kp.public, proof, b"a") == vrf_hash
        assert backend.vrf_outputs([kp.secret], b"a") == [vrf_hash]
        assert _counts(backend) == (1, 1, 1, 1)
