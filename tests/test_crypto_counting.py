"""The deployment's one crypto wrapper counts what reaches its backend.

:class:`~repro.runtime.cache.VerificationCache` forwards signs and VRF
proves and memoizes verifies and VRF verifies; its ``signs``,
``vrf_proves``, ``verifies`` and ``vrf_verifies`` count the operations
that reached the inner backend (section 10.3's CPU-cost proxy).
"""

from __future__ import annotations

import pytest

from repro.common.errors import SignatureError
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.runtime.cache import VerificationCache


@pytest.fixture
def counting():
    return VerificationCache(FastBackend())


class TestCounting:
    def test_all_operations_counted(self, counting):
        kp = counting.keypair(H(b"c-user"))
        signature = counting.sign(kp.secret, b"m")
        counting.verify(kp.public, b"m", signature)
        vrf_hash, proof = counting.vrf_prove(kp.secret, b"a")
        counting.vrf_verify(kp.public, proof, b"a")
        assert counting.signs == 1
        assert counting.verifies == 1
        assert counting.vrf_proves == 1
        assert counting.vrf_verifies == 1
        # A repeated check is a hit: it never reaches the inner backend.
        counting.verify(kp.public, b"m", signature)
        counting.vrf_verify(kp.public, proof, b"a")
        assert (counting.verifies, counting.vrf_verifies) == (1, 1)
        assert counting.verifies + counting.vrf_verifies == counting.misses

    def test_failed_verify_still_counted(self, counting):
        kp = counting.keypair(H(b"c-user"))
        with pytest.raises(SignatureError):
            counting.verify(kp.public, b"m", b"\x00" * 32)
        assert counting.verifies == 1

    def test_results_delegate_to_inner(self, counting):
        inner = counting.inner
        kp = counting.keypair(H(b"c-user"))
        assert counting.sign(kp.secret, b"m") == inner.sign(kp.secret, b"m")
        assert counting.vrf_prove(kp.secret, b"x") == inner.vrf_prove(
            kp.secret, b"x")
        assert counting.vrf_outputs([kp.secret], b"x") == inner.vrf_outputs(
            [kp.secret], b"x")

    def test_name_reflects_inner(self, counting):
        assert "fast" in counting.name
