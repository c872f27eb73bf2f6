"""Pluggable crypto backends.

Two interchangeable implementations of the same interface:

* :class:`Ed25519Backend` — real Ed25519 signatures (RFC 8032) and the
  ECVRF suite (RFC 9381). Bit-for-bit faithful to the paper's crypto, but
  pure Python and therefore slow.
* :class:`FastBackend` — a simulation-grade backend. Signatures and VRF
  outputs are SHA-512-derived from the secret key, so they have exactly the
  distributional properties sortition needs (deterministic, uniform,
  unforgeable-within-the-simulation) while costing a single hash.
  Verification resolves the secret through an in-process registry — the
  moral equivalent of the paper's section 10.1 trick of replacing signature
  verification with an equal-duration sleep.

All higher layers (sortition, BA*, the ledger) speak only to this
interface, so every experiment can run under either backend. A
backend counts the signs, verifies, VRF proves and VRF verifies it
performs (section 10.3's CPU-cost proxy, ``crypto.*`` in a harvested
snapshot); what is never asked twice is the messages' business — each
message instance remembers its own verdicts (its *receipts*).
"""

from __future__ import annotations

import hashlib
import hmac
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.common.errors import CryptoError, SignatureError, VRFError
from repro.crypto import ed25519, vrf
from repro.crypto.hashing import sha512


@dataclass(frozen=True)
class KeyPair:
    """A user's key pair. ``public`` doubles as the user's identity."""

    secret: bytes
    public: bytes


class CryptoBackend(ABC):
    """Signature + VRF operations used by the protocol.

    The four public operations count themselves, failed checks
    included: ``signs``, ``verifies``, ``vrf_proves`` and
    ``vrf_verifies`` are the operations this backend performed. A
    subclass implements the underscored primitives and calls those for
    its own internal work, so one operation counts once. ``keypair``
    and ``vrf_outputs`` are not counted.
    """

    name: str

    def __init__(self) -> None:
        self.signs = 0
        self.verifies = 0
        self.vrf_proves = 0
        self.vrf_verifies = 0
        #: The sortition tallies of the selections made with this
        #: backend (``sortition.*``), one deployment's: made by
        #: :func:`repro.sortition.selection.selection_stats` on first use.
        self.selection = None

    @abstractmethod
    def keypair(self, seed: bytes) -> KeyPair:
        """Deterministically derive a key pair from a 32-byte seed."""

    def sign(self, secret: bytes, message: bytes) -> bytes:
        """Sign ``message``; returns the signature bytes."""
        self.signs += 1
        return self._sign(secret, message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless the signature is valid."""
        self.verifies += 1
        self._verify(public, message, signature)

    def vrf_prove(self, secret: bytes, alpha: bytes) -> tuple[bytes, bytes]:
        """Evaluate the VRF on ``alpha``; returns ``(hash, proof)``.

        ``hash`` is the pseudorandom output (``beta``); ``proof`` lets
        anyone holding the public key verify it.
        """
        self.vrf_proves += 1
        return self._vrf_prove(secret, alpha)

    def vrf_verify(self, public: bytes, proof: bytes, alpha: bytes) -> bytes:
        """Verify a VRF proof and return its hash output.

        Raises:
            VRFError: if the proof does not verify for ``alpha``.
        """
        self.vrf_verifies += 1
        return self._vrf_verify(public, proof, alpha)

    # The uncounted primitives behind the four operations above.

    @abstractmethod
    def _sign(self, secret: bytes, message: bytes) -> bytes: ...

    @abstractmethod
    def _verify(self, public: bytes, message: bytes,
                signature: bytes) -> None: ...

    @abstractmethod
    def _vrf_prove(self, secret: bytes,
                   alpha: bytes) -> tuple[bytes, bytes]: ...

    @abstractmethod
    def _vrf_verify(self, public: bytes, proof: bytes,
                    alpha: bytes) -> bytes: ...

    def is_valid_signature(self, public: bytes, message: bytes,
                           signature: bytes) -> bool:
        """Boolean convenience wrapper over :meth:`verify`."""
        try:
            self.verify(public, message, signature)
        except SignatureError:
            return False
        return True

    def vrf_outputs(self, secrets: list[bytes], alpha: bytes) -> list[bytes]:
        """The VRF hash alone, without the proof, for each of ``secrets``.

        The stake pool's selection screen only needs the pseudorandom
        output of every staked account on one ``alpha``; proofs are
        produced (via :meth:`vrf_prove`) only for the few accounts that
        win. Backends that can compute the outputs for less than a proof
        each override this.
        """
        return [self._vrf_prove(secret, alpha)[0] for secret in secrets]


class Ed25519Backend(CryptoBackend):
    """Real crypto: Ed25519 signatures and ECVRF-EDWARDS25519-SHA512-TAI."""

    name = "ed25519"

    def keypair(self, seed: bytes) -> KeyPair:
        if len(seed) != 32:
            raise CryptoError("key seed must be 32 bytes")
        return KeyPair(secret=seed, public=ed25519.secret_to_public(seed))

    def _sign(self, secret: bytes, message: bytes) -> bytes:
        return ed25519.sign(secret, message)

    def _verify(self, public: bytes, message: bytes,
                signature: bytes) -> None:
        ed25519.verify(public, message, signature)

    def _vrf_prove(self, secret: bytes, alpha: bytes) -> tuple[bytes, bytes]:
        proof = vrf.prove(secret, alpha)
        return vrf.proof_to_hash(proof), proof

    def _vrf_verify(self, public: bytes, proof: bytes, alpha: bytes) -> bytes:
        return vrf.verify(public, proof, alpha)


class FastBackend(CryptoBackend):
    """Hash-based simulation backend with an in-process key registry.

    Security properties hold only against adversaries *inside the
    simulation*, which never inspect the registry; distributional
    properties (uniform VRF outputs, per-key determinism) are exact.
    """

    name = "fast"

    _SIG_LEN = 32
    _PROOF_LEN = 64

    def __init__(self) -> None:
        super().__init__()
        self._registry: dict[bytes, bytes] = {}

    def keypair(self, seed: bytes) -> KeyPair:
        if len(seed) != 32:
            raise CryptoError("key seed must be 32 bytes")
        public = sha512(b"fast-pk", seed)[:32]
        self._registry[public] = seed
        return KeyPair(secret=seed, public=public)

    def _secret_for(self, public: bytes,
                    failure: type[CryptoError]) -> bytes:
        """A key nobody holds signed nothing: ``failure`` is the caller's
        verification error, so a forged voter field is a bad signature."""
        try:
            return self._registry[public]
        except KeyError:
            raise failure(
                "unknown public key: FastBackend can only verify keys it "
                "generated (use one backend instance per simulation)"
            ) from None

    def _sign(self, secret: bytes, message: bytes) -> bytes:
        return sha512(b"fast-sig", secret, message)[:self._SIG_LEN]

    def _verify(self, public: bytes, message: bytes,
                signature: bytes) -> None:
        secret = self._secret_for(public, SignatureError)
        expected = self._sign(secret, message)
        if not hmac.compare_digest(expected, signature):
            raise SignatureError("signature mismatch")

    def _vrf_prove(self, secret: bytes, alpha: bytes) -> tuple[bytes, bytes]:
        beta = sha512(b"fast-vrf", secret, alpha)
        proof = sha512(b"fast-vrf-proof", secret, alpha)
        return beta, proof

    def vrf_outputs(self, secrets: list[bytes], alpha: bytes) -> list[bytes]:
        # vrf_prove's beta, in one sweep: no proof, no call per account.
        digest = hashlib.sha512
        return [digest(b"fast-vrf" + secret + alpha).digest()
                for secret in secrets]

    def _vrf_verify(self, public: bytes, proof: bytes, alpha: bytes) -> bytes:
        secret = self._secret_for(public, VRFError)
        beta, expected = self._vrf_prove(secret, alpha)
        if not hmac.compare_digest(expected, proof):
            raise VRFError("VRF proof verification failed")
        return beta
