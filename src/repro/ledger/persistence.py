"""Chain persistence: export/import a validated history.

Serializes a chain's blocks and certificates with the wire format, so a
node can persist its replica and a fresh process (or a brand-new user)
can reload it with *full revalidation* — loading is exactly the
bootstrap path of section 8.3, so a corrupted or tampered file is
rejected, never trusted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.baplus.certificate import Certificate
from repro.common.encoding import decode, encode
from repro.common.errors import LedgerError
from repro.common.params import ProtocolParams
from repro.crypto.backend import CryptoBackend
from repro.ledger.arraystate import AccountIndex
from repro.ledger.blockchain import Blockchain

#: Format marker + version for forward compatibility.
_MAGIC = "repro-chain-v2"


def chain_to_bytes(chain: Blockchain) -> bytes:
    """Serialize blocks (rounds 1..n) and their certificates."""
    from repro.network.wire import encode_block, encode_certificate

    blocks = []
    certificates = []
    for block in chain.blocks[1:]:
        blocks.append(encode_block(block))
        certificate = chain.certificate_at(block.round_number)
        certificates.append(
            encode_certificate(certificate)
            if isinstance(certificate, Certificate) else None)
    return encode([_MAGIC, blocks, certificates])


def chain_from_bytes(data: bytes, *,
                     initial_balances: Mapping[bytes, int],
                     genesis_seed: bytes, params: ProtocolParams,
                     backend: CryptoBackend,
                     index: AccountIndex | None = None) -> Blockchain:
    """Rebuild and revalidate a chain from :func:`chain_to_bytes` output,
    onto ``index`` (the caller's deployment's; a private one if omitted).

    Raises:
        LedgerError / InvalidCertificate: if the payload is malformed or
            fails the section 8.3 bootstrap validation.
    """
    # Imported lazily: persistence sits in the ledger package but the
    # bootstrap validator lives above it (node.catchup), and the wire
    # codec above that — importing either at module scope would cycle.
    from repro.network.wire import decode_block, decode_certificate
    from repro.node.catchup import replay_chain

    try:
        magic, raw_blocks, raw_certificates = decode(data)
    except (ValueError, TypeError) as exc:
        raise LedgerError(f"not a chain file: {exc}") from exc
    if magic != _MAGIC:
        raise LedgerError(f"unsupported chain format {magic!r}")
    if len(raw_blocks) != len(raw_certificates):
        raise LedgerError("blocks/certificates length mismatch")
    blocks = [decode_block(raw) for raw in raw_blocks]
    certificates = {
        block.round_number: decode_certificate(raw)
        for block, raw in zip(blocks, raw_certificates)
        if raw is not None
    }
    return replay_chain(
        blocks, certificates, initial_balances=initial_balances,
        genesis_seed=genesis_seed, params=params, backend=backend,
        index=index,
    )


def save_chain(chain: Blockchain, path: str | Path) -> int:
    """Write the chain to ``path``; returns bytes written."""
    payload = chain_to_bytes(chain)
    Path(path).write_bytes(payload)
    return len(payload)


def load_chain(path: str | Path, *,
               initial_balances: Mapping[bytes, int], genesis_seed: bytes,
               params: ProtocolParams, backend: CryptoBackend,
               index: AccountIndex | None = None) -> Blockchain:
    """Read and revalidate a chain previously written by :func:`save_chain`."""
    return chain_from_bytes(
        Path(path).read_bytes(), initial_balances=initial_balances,
        genesis_seed=genesis_seed, params=params, backend=backend,
        index=index,
    )
