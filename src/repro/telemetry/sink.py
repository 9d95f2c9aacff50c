"""Spillable append-only sinks for the flat event trace.

The profiler used to keep every :class:`ProfileEvent` in one resident
Python list — fine at 10^4 units, but the dominant memory term at 10^6
(a unit's lifecycle is ~30 events and each event is an object plus an
attrs dict).  A *sink* abstracts where appended events live:

* :class:`MemorySink` — the historical behaviour: every event resident,
  O(1) random access.  The default; nothing changes for existing runs.
* :class:`SpoolSink` — events are serialized to a newline-delimited
  JSON spool file as they are appended (the exact format of
  ``Profiler.write_jsonl``, so ``repro trace`` subcommands read spool
  files directly) and only a bounded ring of recent events stays
  resident.  Iteration re-reads the spool and *revives* each line as a
  :class:`ProfileEvent`, so every consumer — ``SpanBuilder``,
  ``MetricsRegistry.from_events``, the Chrome export, analytics
  readers — works identically on either sink.

Revival is exact: JSON floats round-trip through ``repr`` so a trace
digested from a spool is byte-identical to one digested live (the
golden-hash determinism tests pin this).

``ProfileEvent`` itself is defined here (and re-exported by
:mod:`repro.pilot.profiler` under its historical import path) so this
module does not import the pilot layer — the session imports telemetry.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

__all__ = ["ProfileEvent", "EventSink", "MemorySink", "SpoolSink"]


@dataclass(slots=True)
class ProfileEvent:
    # Not frozen: a frozen dataclass pays object.__setattr__ per field on
    # every init, and this is the hottest allocation in a simulated run.
    # Treat instances as immutable all the same — nothing may mutate a
    # recorded event.
    time: float
    name: str
    uid: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def row(self) -> dict[str, Any]:
        """The event as one flat JSONL row: ``{"time","name","uid",**attrs}``."""
        record = {"time": self.time, "name": self.name, "uid": self.uid}
        record.update(self.attrs)
        return record


def is_row(event: Any) -> bool:
    """Whether *event* is a JSONL row (a mapping) rather than a live
    event.  A plain dict, the parsed-row form, is settled by one exact
    check; a live event never pays the abstract ``Mapping`` check."""
    if isinstance(event, dict):
        return True
    return not isinstance(event, ProfileEvent) and isinstance(event, Mapping)


def revive(row: dict[str, Any]) -> ProfileEvent:
    """The inverse of :meth:`ProfileEvent.row` for one parsed JSONL row."""
    time = row.pop("time")
    name = row.pop("name")
    uid = row.pop("uid", "")
    return ProfileEvent(float(time), str(name), str(uid), row)


class EventSink:
    """Append-only event storage; the profiler serializes all access.

    The contract is deliberately tiny: ``append`` one event, ``events``
    from an index onward, ``scan`` without a copy, ``len``, and
    lifecycle ``flush``/``close``.  Sinks need no locking of their own —
    the owning profiler already guards every call.
    """

    __slots__ = ()

    def append(self, ev: ProfileEvent) -> None:
        raise NotImplementedError

    def events(self, since: int = 0) -> list[ProfileEvent]:
        raise NotImplementedError

    def scan(self, reverse: bool = False) -> Iterator[ProfileEvent]:
        """Every event in recording order (newest first with *reverse*),
        without building a list where the sink can avoid it, so that a
        reader that stops early reads only what it needs."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[ProfileEvent]:
        return iter(self.events())

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink(EventSink):
    """Every event resident in one list (the historical profiler store)."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: list[ProfileEvent] = []

    def append(self, ev: ProfileEvent) -> None:
        self._events.append(ev)

    def events(self, since: int = 0) -> list[ProfileEvent]:
        return self._events[since:] if since else list(self._events)

    def scan(self, reverse: bool = False) -> Iterator[ProfileEvent]:
        return reversed(self._events) if reverse else iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


class SpoolSink(EventSink):
    """Stream events to an NDJSON spool file; keep a bounded ring resident.

    ``path`` is created (parents included) and truncated on first
    append.  ``ring`` bounds how many recent events stay in memory for
    cheap :meth:`tail` access; the full history lives only in the file.
    Reading (``events``/``scan``/``__iter__``) flushes the stream and
    revives the file's rows, so reads are O(file) — fine for end-of-run
    export and analytics, which is the only read pattern the runtime has.
    """

    __slots__ = ("path", "_ring", "_stream", "_count", "_opened")

    def __init__(self, path: str | Path, ring: int = 1024) -> None:
        self.path = Path(path)
        self._ring: deque[ProfileEvent] = deque(maxlen=max(ring, 1))
        self._stream = None
        self._count = 0
        self._opened = False

    def append(self, ev: ProfileEvent) -> None:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Truncate on the sink's first-ever open; a close()d sink that
            # sees further appends (session teardown events) reopens in
            # append mode so the history survives.
            self._stream = self.path.open("a" if self._opened else "w")
            self._opened = True
        self._stream.write(json.dumps(ev.row(), default=str) + "\n")
        self._ring.append(ev)
        self._count += 1

    def events(self, since: int = 0) -> list[ProfileEvent]:
        self.flush()
        if not self._opened:
            return []
        out: list[ProfileEvent] = []
        with self.path.open() as stream:
            for index, line in enumerate(stream):
                if index >= since and line.strip():
                    out.append(revive(json.loads(line)))
        return out

    def scan(self, reverse: bool = False) -> Iterator[ProfileEvent]:
        if reverse:
            return reversed(self.events())
        return self._stream_rows()

    def _stream_rows(self) -> Iterator[ProfileEvent]:
        """Revive the spool line by line; nothing but the current event
        stays resident."""
        self.flush()
        if not self._opened:
            return
        with self.path.open() as stream:
            for line in stream:
                if line.strip():
                    yield revive(json.loads(line))

    def tail(self) -> list[ProfileEvent]:
        """The most recent events still resident (at most the ring size)."""
        return list(self._ring)

    def __len__(self) -> int:
        return self._count

    def flush(self) -> None:
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
