"""Metrics time series on the session clock.

A :class:`MetricsRegistry` records counters (monotonic increments),
gauges (set to a value) and samples (observations of a distribution),
each timestamped by the injected clock — the virtual clock under
simulation, so metric timelines are bit-identical across same-seed
runs.

When constructed with an ``emit`` callable (the session wires in
``Profiler.event``), every recorded point is *also* appended to the
flat trace as a ``metric`` event (``uid`` = metric name, ``value`` =
point value).  That makes metrics part of the JSONL dump, the Chrome
export (as counter tracks) and the determinism comparison for free,
and lets the ``repro trace`` CLI rebuild series from a trace file with
:meth:`MetricsRegistry.from_events`.

Every series always maintains O(1) running aggregates (count, min,
max, sum, last).  Whether it *also* keeps the full (time, value) point
list is the registry's ``resident_points`` switch: a spooling
million-unit session turns it off so metrics stay bounded — the
points still ride inside the trace, and ``from_events`` can rebuild a
fully resident registry from the spool afterwards.

No pilot-layer imports here (the session imports us).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.telemetry.sink import is_row

__all__ = ["MetricSeries", "MetricsRegistry"]


@dataclass(slots=True)
class MetricSeries:
    """One named time series: running aggregates plus, when resident,
    the (time, value) points in record order."""

    name: str
    kind: str  # "counter" | "gauge" | "sample"
    points: list[tuple[float, float]] = field(default_factory=list)
    #: Whether :attr:`points` is populated; aggregates are always kept.
    resident: bool = True
    count: int = 0
    vmin: float = 0.0
    vmax: float = 0.0
    total: float = 0.0
    _last: float = 0.0

    def _push(self, time: float, value: float) -> None:
        if self.count == 0:
            self.vmin = self.vmax = value
        else:
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value
        self.count += 1
        self.total += value
        self._last = value
        if self.resident:
            self.points.append((time, value))

    def __len__(self) -> int:
        return self.count

    @property
    def last(self) -> float:
        return self._last

    def values(self) -> list[float]:
        """Recorded values in order (resident series only)."""
        self._require_points()
        return [value for _, value in self.points]

    def value_at(self, time: float) -> float:
        """The most recent value at or before *time* (0.0 before any);
        resident series only."""
        self._require_points()
        current = 0.0
        for t, value in self.points:
            if t > time:
                break
            current = value
        return current

    def stats(self) -> dict[str, float]:
        """min/max/mean/count over recorded values (empty series → zeros).

        Computed from the running aggregates, so it works identically
        on resident and bounded series.
        """
        if not self.count:
            return {"count": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": float(self.count),
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.total / self.count,
        }

    def _require_points(self) -> None:
        if not self.resident and self.count:
            raise RuntimeError(
                f"metric series {self.name!r} was recorded without resident "
                "points (bounded/spooling session); rebuild a resident "
                "registry from the trace with MetricsRegistry.from_events"
            )


class MetricsRegistry:
    """Counters, gauges and samples stamped by the session clock.

    ``clock`` is a zero-argument callable returning the current time
    (``Session`` passes its clock's ``now``); ``emit``, when given, is
    called as ``emit("metric", name, value=...)`` for every point so the
    series ride inside the profiler trace.  ``resident_points=False``
    bounds memory: series keep running aggregates only (see
    :class:`MetricSeries`).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        emit: Callable[..., Any] | None = None,
        resident_points: bool = True,
    ) -> None:
        self._clock = clock
        self._emit = emit
        self._resident = resident_points
        self._series: dict[str, MetricSeries] = {}
        # Local-mode units advance from executor worker threads; the
        # read-modify-write in count()/adjust() needs the same guard
        # the profiler's append has.
        self._lock = threading.Lock()

    def _record(self, name: str, kind: str, value: float, delta: bool) -> None:
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = MetricSeries(
                    name=name, kind=kind, resident=self._resident
                )
                self._series[name] = series
            if delta and series.count:
                value += series.last
            value = float(value)
            series._push(self._clock(), value)
        if self._emit is not None:
            self._emit("metric", name, value=value, kind=kind)

    def count(self, name: str, delta: float = 1.0) -> None:
        """Increment counter *name* by *delta*; records the new total."""
        self._record(name, "counter", delta, delta=True)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value*."""
        self._record(name, "gauge", value, delta=False)

    def adjust(self, name: str, delta: float) -> None:
        """Adjust gauge *name* by *delta* from its last value."""
        self._record(name, "gauge", delta, delta=True)

    def sample(self, name: str, value: float) -> None:
        """Record one observation of distribution *name*."""
        self._record(name, "sample", value, delta=False)

    # -- queries -----------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str) -> MetricSeries:
        """The series for *name* (an empty gauge series if never recorded)."""
        return self._series.get(name, MetricSeries(name=name, kind="gauge"))

    def __contains__(self, name: str) -> bool:
        return name in self._series

    # -- reconstruction from a trace --------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Any]) -> "MetricsRegistry":
        """Rebuild a registry from ``metric`` events in a trace.

        Accepts live profile events or dicts parsed from a JSONL dump
        (including spool files).  The returned registry's clock is
        frozen (recording into it stamps time 0.0); it is meant for
        querying only.
        """
        registry = cls(lambda: 0.0)
        for event in events:
            if is_row(event):
                name, uid = str(event["name"]), str(event.get("uid", ""))
                attrs: Mapping[str, Any] = event
                time = float(event["time"])
            else:
                name, uid = event.name, event.uid
                attrs = event.attrs
                time = event.time
            if name != "metric":
                continue
            kind = str(attrs.get("kind", "gauge"))
            series = registry._series.get(uid)
            if series is None:
                series = MetricSeries(name=uid, kind=kind)
                registry._series[uid] = series
            series._push(time, float(attrs.get("value", 0.0)))
        return registry
