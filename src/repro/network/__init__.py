"""Simulated gossip network: topology, latency model, message envelopes."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.network.gossip import GossipNetwork, NetworkInterface
    from repro.network.latency import (
        CITIES, LatencyModel, UniformLatencyModel, base_latency_matrix,
        great_circle_km,
    )
    from repro.network.message import (
        Envelope, PRIORITY_MESSAGE_BYTES, VOTE_MESSAGE_BYTES, block_envelope,
        priority_envelope, transaction_envelope, vote_envelope,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.gossip": ("GossipNetwork", "NetworkInterface"),
    "repro.network.latency": (
        "CITIES", "LatencyModel", "UniformLatencyModel", "base_latency_matrix",
        "great_circle_km",
    ),
    "repro.network.message": (
        "Envelope", "PRIORITY_MESSAGE_BYTES", "VOTE_MESSAGE_BYTES",
        "block_envelope", "priority_envelope", "transaction_envelope",
        "vote_envelope",
    ),
})

__all__ = [
    "GossipNetwork",
    "NetworkInterface",
    "LatencyModel",
    "UniformLatencyModel",
    "CITIES",
    "base_latency_matrix",
    "great_circle_km",
    "Envelope",
    "priority_envelope",
    "block_envelope",
    "vote_envelope",
    "transaction_envelope",
    "PRIORITY_MESSAGE_BYTES",
    "VOTE_MESSAGE_BYTES",
]
