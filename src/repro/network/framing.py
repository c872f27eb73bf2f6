"""Framing: length-prefixed payloads over a byte stream.

:func:`encode_frame` and :class:`FrameDecoder` length-prefix payloads so
they survive a TCP or Unix-socket byte stream: reads may arrive split or
coalesced arbitrarily, and the decoder reassembles exact payload
boundaries. Oversized or garbage frames raise :class:`WireError` instead
of silently desyncing the stream.

One framing serves both planes: the gossip links carry
:mod:`repro.network.wire` payloads in these frames, the coordinator's
control conversation (:mod:`repro.live.control`) canonically-encoded
dicts. It needs nothing of the protocol, so a coordinator frames its
control messages without loading the message codecs.
"""

from __future__ import annotations

import struct

from repro.common.errors import ReproError


class WireError(ReproError):
    """A wire payload could not be encoded or decoded."""


class FrameSizeError(WireError):
    """A frame length prefix is zero or beyond the size cap.

    A stream that produced one is desynced or hostile: there is no
    recoverable frame boundary, so the connection must be dropped. The
    dedicated type lets transports distinguish "drop this connection"
    from ordinary payload-decode garbage inside a well-formed frame.
    """


#: Frame header: 4-byte big-endian payload length.
FRAME_HEADER = struct.Struct(">I")

#: Ceiling on one frame's payload. Generous against the largest
#: legitimate message (a ~1 MB block plus envelope overhead) while small
#: enough that a garbage length prefix is detected immediately instead
#: of stalling a reader waiting for gigabytes that will never come.
MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix ``payload`` for transmission over a byte stream."""
    if not payload:
        raise FrameSizeError("cannot frame an empty payload")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameSizeError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return FRAME_HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunking.

    Feed raw stream bytes as they arrive (split or coalesced however the
    transport pleases); :meth:`feed` returns every complete payload the
    new bytes finished. A length prefix of zero or beyond
    :data:`MAX_FRAME_BYTES` raises :class:`FrameSizeError` — a desynced
    or malicious stream is unrecoverable, so the connection must be
    dropped, not resynced. The decoder never buffers more than one
    header plus :data:`MAX_FRAME_BYTES` of an incomplete frame, so a
    garbage length prefix cannot make it hoard memory.
    """

    __slots__ = ("_buffer", "frames_decoded", "bytes_fed")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    def residue(self) -> bytes:
        """The bytes of the incomplete frame held so far (a copy).

        Feeding them to another decoder continues the stream exactly
        where this one stopped — how a handshake reader hands the
        connection on without losing a frame it read the start of.
        """
        return bytes(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return all payloads completed by it.

        Linear in the bytes fed: frames are cut at a walking offset, one
        copy each, and the consumed prefix is dropped once at the end.
        """
        self.bytes_fed += len(data)
        buffer = self._buffer
        buffer += data
        frames: list[bytes] = []
        pos, available = 0, len(buffer)
        max_bytes = MAX_FRAME_BYTES
        try:
            with memoryview(buffer) as view:
                while available - pos >= FRAME_HEADER.size:
                    (length,) = FRAME_HEADER.unpack_from(view, pos)
                    if length == 0:
                        raise FrameSizeError("zero-length frame")
                    if length > max_bytes:
                        raise FrameSizeError(
                            f"frame length {length} exceeds the "
                            f"{max_bytes}-byte limit (desynced or "
                            f"garbage stream)")
                    end = pos + FRAME_HEADER.size + length
                    if end > available:
                        break
                    frames.append(bytes(view[pos + FRAME_HEADER.size:end]))
                    pos = end
        finally:
            del buffer[:pos]
            self.frames_decoded += len(frames)
        return frames
