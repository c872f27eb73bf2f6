"""Gossip message envelopes.

The network layer treats protocol payloads as opaque; an envelope carries
the routing metadata it needs: an id (for duplicate suppression — unique,
in no particular order), the originator's public key, a message kind (so
the receiving node can gate and route it per kind), and the wire size in
bytes (driving bandwidth costs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: Wire size of a priority/proof gossip message ("about 200 bytes", §6).
PRIORITY_MESSAGE_BYTES = 200
#: Wire size of a committee vote (pk + sig + sortition hash/proof + value).
VOTE_MESSAGE_BYTES = 250


#: Process-wide id source. Ids are unique, not ordered: dedup keeps them
#: by round generation (:class:`repro.network.gossip.RelayCore`), and a
#: live process re-stamps its own into a per-process namespace.
_fresh_msg_id = itertools.count().__next__


@dataclass(frozen=True)
class Envelope:
    """One gossiped message."""

    origin: bytes
    kind: str
    payload: Any
    size: int
    msg_id: int = field(default_factory=_fresh_msg_id)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"message size must be positive, got {self.size}")


def priority_envelope(origin: bytes, payload: Any) -> Envelope:
    """Envelope for a block-proposal priority message (small, fast)."""
    return Envelope(origin=origin, kind="priority", payload=payload,
                    size=PRIORITY_MESSAGE_BYTES)


def block_envelope(origin: bytes, payload: Any, size: int) -> Envelope:
    """Envelope for a full proposed block."""
    return Envelope(origin=origin, kind="block", payload=payload, size=size)


def vote_envelope(origin: bytes, payload: Any) -> Envelope:
    """Envelope for a BA* committee vote."""
    return Envelope(origin=origin, kind="vote", payload=payload,
                    size=VOTE_MESSAGE_BYTES)


def transaction_envelope(origin: bytes, payload: Any, size: int) -> Envelope:
    """Envelope for a user-submitted pending transaction."""
    return Envelope(origin=origin, kind="tx", payload=payload, size=size)
