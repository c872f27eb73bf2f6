"""Declarative gossip-message dispatch.

The node used to route envelopes through a hard-coded ``if/elif`` chain
plus an ad-hoc ``extra_handlers`` dict that protocol extensions (fork
recovery, chain sync) mutated behind its back. :class:`MessageRouter`
replaces both: every subsystem *registers* a handler for the message
kinds it owns, and the node's one receive hook calls one dispatch entry
point for every copy its admission gate lets through.

Handlers keep the relay decision of section 8.4: they receive the
envelope's payload, perform validate-before-relay, and return ``True``
iff the message should be forwarded to neighbors. Unknown kinds are
counted and dropped (never relayed) — gossip must not amplify messages
nobody can validate.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import NetworkError
from repro.network.message import Envelope

#: A handler takes the envelope payload, returns True to relay.
Handler = Callable[[Any], bool]


class MessageRouter:
    """Kind -> handler dispatch table for gossip envelopes."""

    __slots__ = ("_handlers", "unknown_kinds")

    def __init__(self) -> None:
        self._handlers: dict[str, Handler] = {}
        #: Count of envelopes dropped for lack of a registered handler
        #: (harvested as ``router.unknown_kind``; what a handler takes
        #: or relays is the relay core's ``gossip.recv.*`` /
        #: ``gossip.relayed.*``).
        self.unknown_kinds = 0

    def register(self, kind: str, handler: Handler, *,
                 replace: bool = False) -> None:
        """Register ``handler`` for ``kind``.

        Raises :class:`NetworkError` on double registration unless
        ``replace`` is set — two subsystems silently fighting over one
        message kind is a wiring bug, not a runtime condition.
        """
        if not kind:
            raise NetworkError("message kind must be non-empty")
        if not replace and kind in self._handlers:
            raise NetworkError(
                f"handler for kind {kind!r} already registered")
        self._handlers[kind] = handler

    def unregister(self, kind: str) -> None:
        """Remove the handler for ``kind`` (no-op if absent)."""
        self._handlers.pop(kind, None)

    def is_registered(self, kind: str) -> bool:
        return kind in self._handlers

    def kinds(self) -> frozenset[str]:
        """The currently routable message kinds."""
        return frozenset(self._handlers)

    def dispatch(self, envelope: Envelope) -> bool:
        """Route one envelope; returns the handler's relay decision."""
        handler = self._handlers.get(envelope.kind)
        if handler is None:
            self.unknown_kinds += 1
            return False
        return handler(envelope.payload)
