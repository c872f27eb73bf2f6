"""JSONL trace persistence.

One trace file is a sequence of JSON objects, one per line:

* ``{"type": "event", ...event fields...}`` — every emitted event, in
  order;
* ``{"type": "snapshot", "metrics": {...}}`` — the final registry
  snapshot, appended by :meth:`repro.obs.bus.TraceBus.close`. A file
  without it was never closed by its writer (a SIGKILLed process, or a
  run that raised first): that is the one way a trace is incomplete.

``bytes`` values (block hashes, public keys) are hex-encoded on write so
the file is plain text; :func:`read_trace` does *not* undo this — hex
strings are what the report CLI and downstream tooling consume.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO


def _json_default(value: object) -> str:
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError(
        f"unserializable trace field of type {type(value).__name__}")


class JsonlTraceSink:
    """Streams trace records to a ``.jsonl`` file.

    Records are serialized immediately but written through a line buffer
    of ``buffer_lines`` entries, so a hot emitter costs one ``dumps``
    and a list append per event rather than a syscall. The buffer is
    flushed when full, on :meth:`write_snapshot`, and on :meth:`close`.
    """

    def __init__(self, path: str | Path, *, buffer_lines: int = 1024,
                 durable: bool = False) -> None:
        if buffer_lines < 1:
            raise ValueError("buffer_lines must be >= 1")
        self.path = Path(path)
        self.buffer_lines = buffer_lines
        #: Push every flush through to the OS (``file.flush()``). Live
        #: node processes set this (with ``buffer_lines=1``) so a
        #: SIGKILL mid-run loses at most the line being written — the
        #: chaos coordinator reads the victim's trace back after the
        #: kill. The sim default keeps the cheap buffered writes.
        self.durable = durable
        self._buffer: list[str] = []
        self._file: IO[str] | None = self.path.open("w", encoding="utf-8")

    def _write(self, record: dict) -> None:
        if self._file is None:
            raise ValueError(f"trace sink {self.path} is closed")
        self._buffer.append(json.dumps(record, default=_json_default,
                                       separators=(",", ":")))
        if len(self._buffer) >= self.buffer_lines:
            self.flush()

    def write_event(self, record: dict) -> None:
        self._write({"type": "event", **record})

    def write_snapshot(self, snapshot: dict) -> None:
        self._write({"type": "snapshot", "metrics": snapshot})
        self.flush()

    def flush(self) -> None:
        if self._buffer and self._file is not None:
            self._file.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
            if self.durable:
                self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None


def read_trace(path: str | Path, *,
               tolerate_truncation: bool = False
               ) -> tuple[list[dict], dict | None]:
    """Load a JSONL trace: ``(events, snapshot_metrics_or_None)``.

    Unknown record types are ignored (forward compatibility: a newer
    writer may add record types an older reader doesn't know).
    ``tolerate_truncation`` forgives an invalid **final** line — a
    SIGKILLed live node can die mid-write, leaving half a record; every
    complete line before it is still good evidence. Garbage anywhere
    else still raises.
    """
    events: list[dict] = []
    snapshot: dict | None = None
    with Path(path).open("r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerate_truncation and line_number == len(lines):
                break
            raise ValueError(
                f"{path}:{line_number}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{line_number}: not a trace record")
        kind = record.get("type")
        if kind == "event":
            record.pop("type")
            events.append(record)
        elif kind == "snapshot":
            snapshot = record.get("metrics")
    return events, snapshot

