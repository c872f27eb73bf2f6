"""Shared building blocks: parameters, canonical encoding, errors."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.common.encoding import decode, encode
    from repro.common.errors import (
        ConsensusHalted, CryptoError, InvalidBlock, InvalidCertificate,
        InvalidTransaction, LedgerError, NetworkError, ReproError,
        SignatureError, SimulationError, SortitionError, VRFError,
    )
    from repro.common.params import PAPER_PARAMS, TEST_PARAMS, ProtocolParams

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.common.encoding": ("decode", "encode"),
    "repro.common.errors": (
        "ConsensusHalted", "CryptoError", "InvalidBlock", "InvalidCertificate",
        "InvalidTransaction", "LedgerError", "NetworkError", "ReproError",
        "SignatureError", "SimulationError", "SortitionError", "VRFError",
    ),
    "repro.common.params": ("PAPER_PARAMS", "TEST_PARAMS", "ProtocolParams"),
})

__all__ = [
    "PAPER_PARAMS",
    "TEST_PARAMS",
    "ProtocolParams",
    "encode",
    "decode",
    "ReproError",
    "CryptoError",
    "SignatureError",
    "VRFError",
    "SortitionError",
    "LedgerError",
    "InvalidTransaction",
    "InvalidBlock",
    "InvalidCertificate",
    "SimulationError",
    "NetworkError",
    "ConsensusHalted",
]
