"""Message-path runtime: routed dispatch + shared verification cache.

This package is the small runtime layer under the Algorand node: a
:class:`MessageRouter` that subsystems register gossip handlers with
(replacing hard-coded dispatch chains), a :class:`VerificationCache`
that memoizes context-independent crypto checks across every node of a
simulation (the paper's section 10.1 observation that verification
dominates CPU, applied to the simulator itself), and
the :class:`AdmissionControl` ingress layer — each node's one message
gate — that judges every delivered envelope on sortition proofs,
one-message-per-key, equivocation and peer health before the router
sees it. The cache is itself a
:class:`~repro.crypto.backend.CryptoBackend` wrapping the real Ed25519
backend or the fast simulation one, and counts the operations that
reach it (section 10.3's CPU-cost proxy).
"""

from repro.runtime.admission import (
    AdmissionConfig,
    AdmissionControl,
    PeerHealth,
)
from repro.runtime.cache import VerificationCache
from repro.runtime.router import MessageRouter

__all__ = [
    "AdmissionConfig",
    "AdmissionControl",
    "MessageRouter",
    "PeerHealth",
    "VerificationCache",
]
