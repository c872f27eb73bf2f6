"""Coordinator <-> node control protocol.

Control messages are canonically-encoded dicts
(:mod:`repro.common.encoding`) in the same length-prefixed frames the
gossip links use, so one framing implementation serves both planes.
The conversation is deliberately tiny:

===========  =========  ==========================================
message      direction  meaning
===========  =========  ==========================================
``hello``    node → co  node is up; carries its listen address
``peers``    co → node  full address map; start dialing
``ready``    node → co  all gossip links established
``start``    co → node  begin: payment count + target rounds
``result``   node → co  final chain (block bytes), trace path
``stop``     co → node  all results in; stop serving
``stopped``  node → co  redials nobody; trace closed with its snapshot
===========  =========  ==========================================

After ``result`` a node *lingers* — clock running, gossip links open,
catch-up requests still answered — until ``stop`` (or control EOF)
releases it. Fast finishers therefore stay useful to a chaos victim
that rejoins after everyone else has already reached target height. A
node closes its gossip links only at control EOF, which comes once
every released node answered ``stopped``: no peer redials it then.
"""

from __future__ import annotations

import asyncio

from repro.common.encoding import decode, encode
from repro.network.framing import FrameDecoder, WireError, encode_frame


#: Seconds a node waits for its peers and the coordinator, and the
#: coordinator for a node, before giving up.
CONNECT_TIMEOUT = 30.0


class ControlError(WireError):
    """The control conversation broke (bad frame, early EOF)."""


async def send_message(writer: asyncio.StreamWriter, message: dict) -> None:
    writer.write(encode_frame(encode(message)))
    await writer.drain()


class MessageStream:
    """Framed dict messages over one stream connection."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self.reader = reader
        self._decoder = FrameDecoder()
        self._pending: list[dict] = []

    async def next(self, timeout: float | None = None) -> dict:
        """The next control message; :class:`ControlError` on EOF."""
        while not self._pending:
            try:
                data = await asyncio.wait_for(self.reader.read(65536),
                                              timeout=timeout)
            except TimeoutError as exc:
                raise ControlError(
                    f"control peer silent for {timeout}s") from exc
            if not data:
                raise ControlError("control connection closed")
            for payload in self._decoder.feed(data):
                message = decode(payload)
                if not isinstance(message, dict) or "type" not in message:
                    raise ControlError(
                        f"malformed control message: {message!r}")
                self._pending.append(message)
        return self._pending.pop(0)

    async def expect(self, kind: str, timeout: float | None = None) -> dict:
        message = await self.next(timeout=timeout)
        if message["type"] != kind:
            raise ControlError(
                f"expected control message {kind!r}, "
                f"got {message['type']!r}")
        return message
