"""Message-path runtime: routed dispatch + the message gate.

This package is the small runtime layer under the Algorand node: a
:class:`~repro.runtime.router.MessageRouter` that subsystems register
gossip handlers with (replacing hard-coded dispatch chains), and the
:class:`~repro.runtime.admission.AdmissionControl` ingress layer —
each node's one message gate — that judges every delivered envelope on
sortition proofs, one-message-per-key, equivocation and peer health
before the router sees it.
"""
