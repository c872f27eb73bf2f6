"""Tests for the pluggable crypto backends (shared behavioural contract)."""

from __future__ import annotations

import pytest

from repro.common.errors import CryptoError, SignatureError, VRFError
from repro.crypto.backend import Ed25519Backend, FastBackend
from repro.crypto.hashing import H


@pytest.fixture(params=["fast", "ed25519"])
def backend(request):
    if request.param == "fast":
        return FastBackend()
    return Ed25519Backend()


class TestBackendContract:
    """Both backends must satisfy the same interface semantics."""

    def test_keypair_deterministic(self, backend):
        seed = H(b"seed-a")
        kp1 = backend.keypair(seed)
        kp2 = backend.keypair(seed)
        assert kp1.public == kp2.public
        assert kp1.secret == seed

    def test_keypair_seed_length_enforced(self, backend):
        with pytest.raises(CryptoError):
            backend.keypair(b"short")

    def test_distinct_seeds_distinct_keys(self, backend):
        kp1 = backend.keypair(H(b"a"))
        kp2 = backend.keypair(H(b"b"))
        assert kp1.public != kp2.public

    def test_sign_verify(self, backend):
        kp = backend.keypair(H(b"signer"))
        sig = backend.sign(kp.secret, b"payload")
        backend.verify(kp.public, b"payload", sig)

    def test_verify_rejects_tampered_message(self, backend):
        kp = backend.keypair(H(b"signer"))
        sig = backend.sign(kp.secret, b"payload")
        with pytest.raises(SignatureError):
            backend.verify(kp.public, b"payload2", sig)

    def test_verify_rejects_wrong_key(self, backend):
        kp1 = backend.keypair(H(b"signer1"))
        kp2 = backend.keypair(H(b"signer2"))
        sig = backend.sign(kp1.secret, b"payload")
        with pytest.raises(SignatureError):
            backend.verify(kp2.public, b"payload", sig)

    def test_is_valid_signature(self, backend):
        kp = backend.keypair(H(b"signer"))
        sig = backend.sign(kp.secret, b"m")
        assert backend.is_valid_signature(kp.public, b"m", sig)
        assert not backend.is_valid_signature(kp.public, b"n", sig)

    def test_vrf_prove_verify(self, backend):
        kp = backend.keypair(H(b"vrf-user"))
        vrf_hash, proof = backend.vrf_prove(kp.secret, b"alpha")
        assert backend.vrf_verify(kp.public, proof, b"alpha") == vrf_hash

    def test_vrf_deterministic(self, backend):
        kp = backend.keypair(H(b"vrf-user"))
        assert (backend.vrf_prove(kp.secret, b"x")
                == backend.vrf_prove(kp.secret, b"x"))

    def test_vrf_rejects_wrong_alpha(self, backend):
        kp = backend.keypair(H(b"vrf-user"))
        _, proof = backend.vrf_prove(kp.secret, b"alpha")
        with pytest.raises(VRFError):
            backend.vrf_verify(kp.public, proof, b"other")

    def test_vrf_output_differs_per_alpha(self, backend):
        kp = backend.keypair(H(b"vrf-user"))
        other = backend.keypair(H(b"vrf-other"))
        h1, _ = backend.vrf_prove(kp.secret, b"a")
        h2, _ = backend.vrf_prove(kp.secret, b"b")
        assert h1 != h2
        # The proof-less sweep the stake pool screens with: one output
        # per secret, in order, each the hash vrf_prove returns.
        assert backend.vrf_outputs([kp.secret, other.secret], b"a") == [
            h1, backend.vrf_prove(other.secret, b"a")[0]]
        assert backend.vrf_outputs([kp.secret], b"b") == [h2]
        assert backend.vrf_outputs([], b"a") == []


class TestFastBackendSpecifics:
    def test_unknown_key_raises(self):
        backend = FastBackend()
        other = FastBackend().keypair(H(b"elsewhere"))
        with pytest.raises(CryptoError):
            backend.verify(other.public, b"m", b"\x00" * 32)

    def test_unknown_key_is_a_failed_verification(self):
        """A key nobody holds signed nothing: the boolean wrappers say
        no instead of raising (a forged voter field reaches them first)."""
        backend = FastBackend()
        other = FastBackend().keypair(H(b"elsewhere"))
        assert not backend.is_valid_signature(other.public, b"m", b"s" * 32)
        with pytest.raises(SignatureError):
            backend.verify(other.public, b"m", b"\x00" * 32)
        with pytest.raises(VRFError):
            backend.vrf_verify(other.public, b"proof", b"alpha")

    def test_registries_are_isolated(self):
        b1, b2 = FastBackend(), FastBackend()
        kp = b1.keypair(H(b"user"))
        sig = b1.sign(kp.secret, b"m")
        with pytest.raises(CryptoError):
            b2.verify(kp.public, b"m", sig)


def test_backends_cross_check_vrf_uniformity():
    """Fast and real VRF outputs should both look uniform: compare mean
    of the leading byte across inputs (coarse distributional check)."""
    fast = FastBackend()
    kp = fast.keypair(H(b"u"))
    values = [fast.vrf_prove(kp.secret, bytes([i]))[0][0]
              for i in range(64)]
    assert 80 < sum(values) / len(values) < 175
