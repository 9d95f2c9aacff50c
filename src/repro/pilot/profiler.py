"""Append-only event tracing.

Every state transition and every notable runtime action lands in one
:class:`Profiler` as ``(time, name, uid, attrs)``.  The analytics layer
(:mod:`repro.analytics`) turns these traces into the paper's TTC and
overhead decompositions; nothing else in the runtime ever reads the trace,
so profiling cannot perturb scheduling decisions.

Where appended events *live* is delegated to an
:class:`~repro.telemetry.sink.EventSink`: the default
:class:`~repro.telemetry.sink.MemorySink` keeps the historical
everything-resident list, while a
:class:`~repro.telemetry.sink.SpoolSink` streams events to an NDJSON
spool file and keeps only a bounded ring in memory — the million-unit
scale envelope.  ``ProfileEvent`` is defined next to the sinks and
re-exported here under its historical import path.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator

from repro.telemetry.sink import EventSink, MemorySink, ProfileEvent

__all__ = ["ProfileEvent", "Profiler"]


class Profiler:
    """Thread-safe, append-only event trace."""

    def __init__(
        self, clock: Callable[[], float], sink: EventSink | None = None
    ) -> None:
        self._clock = clock
        self._sink: EventSink = MemorySink() if sink is None else sink
        self._lock = threading.Lock()

    @property
    def sink(self) -> EventSink:
        return self._sink

    def event(self, name: str, uid: str = "", **attrs: Any) -> ProfileEvent:
        """Record one event stamped with the session clock."""
        ev = ProfileEvent(self._clock(), name, uid, attrs)
        with self._lock:
            self._sink.append(ev)
        return ev

    def record(self, name: str, uid: str, attrs: dict[str, Any]) -> ProfileEvent:
        """Like :meth:`event` but takes the attrs dict directly.

        Hot emitters (span open/close, metric points) build their attrs
        dict anyway; handing it over instead of exploding it through
        ``**kwargs`` skips one dict copy per event.  The caller must not
        reuse or mutate *attrs* afterwards.
        """
        ev = ProfileEvent(self._clock(), name, uid, attrs)
        with self._lock:
            self._sink.append(ev)
        return ev

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._sink)

    def __iter__(self) -> Iterator[ProfileEvent]:
        with self._lock:
            return iter(self._sink.events())

    def snapshot(self, since: int = 0) -> tuple[list[ProfileEvent], int]:
        """Incremental view: events recorded at index ``since`` onward.

        Returns ``(new_events, cursor)`` where ``cursor`` is the index
        to pass as ``since`` next time.  Because the trace is
        append-only, repeated calls see every event exactly once —
        the telemetry span builder and analytics poll large live traces
        through this.  O(new) on a memory sink; a spool sink pays a
        file re-read, which only end-of-run consumers do.
        """
        with self._lock:
            fresh = self._sink.events(since)
            cursor = len(self._sink)
        return fresh, cursor

    def events(self, name: str | None = None, uid: str | None = None) -> list[ProfileEvent]:
        """Events filtered by name and/or uid, in recording order."""
        with self._lock:
            return [
                ev
                for ev in self._sink.scan()
                if (name is None or ev.name == name)
                and (uid is None or ev.uid == uid)
            ]

    def group_by_name(
        self, names: Iterable[str]
    ) -> tuple[dict[str, list[ProfileEvent]], float]:
        """One read of the trace: the events of each of *names*, and the
        latest event time of the whole trace (0.0 when it is empty).

        Every name gets a key; each list is in recording order.  An
        analysis that needs several kinds of event reads the trace once
        through this rather than once per :meth:`events` call (on a
        spool sink every call re-reads the file).  Only the named events
        are kept, and nothing is cached.
        """
        groups: dict[str, list[ProfileEvent]] = {name: [] for name in names}
        lookup = groups.get
        latest = None
        with self._lock:
            for ev in self._sink.scan():
                group = lookup(ev.name)
                if group is not None:
                    group.append(ev)
                if latest is None or ev.time > latest:
                    latest = ev.time
        return groups, 0.0 if latest is None else latest

    def first(self, name: str, uid: str | None = None) -> ProfileEvent | None:
        """The earliest recorded *name* event (of *uid*); stops reading at
        the first match."""
        with self._lock:
            return _first_match(self._sink.scan(), name, uid)

    def last(self, name: str, uid: str | None = None) -> ProfileEvent | None:
        """The latest recorded *name* event (of *uid*); a memory sink is
        read backwards and stops at the first match."""
        with self._lock:
            return _first_match(self._sink.scan(reverse=True), name, uid)

    def span(self, start_name: str, end_name: str, uid: str | None = None) -> float | None:
        """Seconds from the first *start_name* to the last *end_name*, in
        one read of the trace."""
        start = end = None
        with self._lock:
            for ev in self._sink.scan():
                if uid is not None and ev.uid != uid:
                    continue
                if ev.name == end_name:
                    end = ev
                if start is None and ev.name == start_name:
                    start = ev
        if start is None or end is None:
            return None
        return end.time - start.time

    # -- persistence ---------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Dump the trace as JSON lines (one event per line); returns the
        event count.  The format matches what RADICAL-Analytics-style
        post-processing expects: ``{"time", "name", "uid", **attrs}`` —
        and is byte-identical to a :class:`SpoolSink`'s spool file."""
        import json
        from pathlib import Path

        path = Path(path)
        with self._lock:
            snapshot = self._sink.events()
        with path.open("w") as stream:
            for ev in snapshot:
                stream.write(json.dumps(ev.row(), default=str) + "\n")
        return len(snapshot)

    def close(self) -> None:
        """Flush and close the sink (a no-op for memory sinks)."""
        with self._lock:
            self._sink.close()


def _first_match(
    events: Iterator[ProfileEvent], name: str, uid: str | None
) -> ProfileEvent | None:
    for ev in events:
        if ev.name == name and (uid is None or ev.uid == uid):
            return ev
    return None
