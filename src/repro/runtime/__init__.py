"""Message-path runtime: routed dispatch + the message gate.

This package is the small runtime layer under the Algorand node: a
:class:`MessageRouter` that subsystems register gossip handlers with
(replacing hard-coded dispatch chains), and the
:class:`AdmissionControl` ingress layer — each node's one message
gate — that judges every delivered envelope on sortition proofs,
one-message-per-key, equivocation and peer health before the router
sees it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.runtime.admission import (
        AdmissionConfig, AdmissionControl, PeerHealth,
    )
    from repro.runtime.router import MessageRouter

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.admission": (
        "AdmissionConfig", "AdmissionControl", "PeerHealth",
    ),
    "repro.runtime.router": ("MessageRouter",),
})

__all__ = [
    "AdmissionConfig",
    "AdmissionControl",
    "MessageRouter",
    "PeerHealth",
]
