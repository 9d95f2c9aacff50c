"""Critical-path extraction and reconciliation with the Fig. 3 breakdown.

At every instant inside a pattern's TTC window the run is blocked on
exactly one class of activity: tasks executing, the toolkit charging
pattern overhead, or the runtime doing everything else (scheduling,
staging, queue wait).  :func:`critical_path` materializes that as a
sequence of :class:`PathSegment`\\ s that *tile* the window — so the
path's total duration equals TTC exactly, and its per-component sums
can be reconciled against :class:`~repro.core.profiler.OverheadBreakdown`
(:func:`reconcile_with_breakdown`).

Attribution uses the same precedence the breakdown implies: time under
at least one ``unit:EXECUTING`` span is *execution*; remaining time
under a pattern-overhead span is *pattern*; remaining time under a
core span is *core*; everything else is *runtime* (the breakdown's
``runtime_overhead = ttc - execution - pattern`` catch-all).

Pure interval arithmetic over the span tree — no pilot imports, fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.telemetry.span import Span, SpanTree, component_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.profiler import OverheadBreakdown

__all__ = [
    "PathSegment",
    "CriticalPath",
    "critical_path",
    "reconcile_with_breakdown",
]

_Interval = tuple[float, float]


def _union(intervals: list[_Interval]) -> list[_Interval]:
    """Merge overlapping/touching intervals; drops empty ones."""
    merged: list[_Interval] = []
    for start, stop in sorted(intervals):
        if stop <= start:
            continue
        if merged and start <= merged[-1][1]:
            if stop > merged[-1][1]:
                merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return merged


def _subtract(base: list[_Interval], cut: list[_Interval]) -> list[_Interval]:
    """``base`` minus ``cut``; both must be sorted disjoint unions."""
    result: list[_Interval] = []
    for start, stop in base:
        pos = start
        for c_start, c_stop in cut:
            if c_stop <= pos:
                continue
            if c_start >= stop:
                break
            if c_start > pos:
                result.append((pos, c_start))
            pos = max(pos, c_stop)
            if pos >= stop:
                break
        if pos < stop:
            result.append((pos, stop))
    return result


def _clip(spans: list[Span], window: _Interval) -> list[_Interval]:
    t0, t1 = window
    return [
        (max(span.t_start, t0), min(span.t_end, t1))
        for span in spans
        if span.t_end > t0 and span.t_start < t1
    ]


def _length(intervals: list[_Interval]) -> float:
    return sum(stop - start for start, stop in intervals)


@dataclass(frozen=True)
class PathSegment:
    """One tile of the critical path.

    ``span_uid`` names a representative blocking span (``""`` when the
    runtime was between recorded activities — pure wait).
    """

    t_start: float
    t_end: float
    component: str
    span_uid: str
    name: str

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class CriticalPath:
    """The tiled critical path over one pattern's TTC window."""

    t_start: float
    t_end: float
    ref: str
    segments: tuple[PathSegment, ...]

    @property
    def total(self) -> float:
        return self.t_end - self.t_start

    def by_component(self) -> dict[str, float]:
        """Seconds attributed to each component (keys always present)."""
        totals = {"execution": 0.0, "pattern": 0.0, "core": 0.0,
                  "runtime": 0.0}
        for segment in self.segments:
            totals[segment.component] = (
                totals.get(segment.component, 0.0) + segment.duration
            )
        return totals


def _representative(
    spans: list[Span], t_start: float, t_end: float
) -> tuple[str, str]:
    """The covering span that started earliest (ties: by uid), from
    *spans* sorted by start."""
    best = None
    for span in spans:
        if span.t_start >= t_end or (
            best is not None and span.t_start > best.t_start
        ):
            break
        if span.t_end > t_start and (best is None or span.uid < best.uid):
            best = span
    return ("", "wait") if best is None else (best.uid, best.name)


def critical_path(
    tree: SpanTree, pattern_uid: str | None = None
) -> CriticalPath:
    """Extract the blocking-activity tiling of a pattern's TTC window.

    ``pattern_uid`` selects which pattern span frames the window; by
    default the innermost pattern span is used, falling back to the
    session root when the trace holds no pattern at all.
    """
    frame = tree.pattern(pattern_uid) or tree.root
    window = (frame.t_start, frame.t_end)

    by_component: dict[str, list[Span]] = {
        "execution": [], "pattern": [], "core": [], "runtime": [],
    }
    for span in tree.leaves():
        by_component[component_of(span)].append(span)

    execution = _union(_clip(by_component["execution"], window))
    pattern = _subtract(
        _union(_clip(by_component["pattern"], window)), execution
    )
    core = _subtract(
        _subtract(_union(_clip(by_component["core"], window)), execution),
        pattern,
    )
    claimed = _union(execution + pattern + core)
    runtime = _subtract([window], claimed)

    tiles: list[tuple[float, float, str, list[Span]]] = []
    for component, intervals in (
        ("execution", execution),
        ("pattern", pattern),
        ("core", core),
        ("runtime", runtime),
    ):
        tiles.extend(
            (start, stop, component, by_component[component])
            for start, stop in intervals
        )
    tiles.sort(key=lambda tile: tile[0])
    for spans in by_component.values():
        spans.sort(key=attrgetter("t_start"))

    segments = []
    for start, stop, component, spans in tiles:
        uid, name = _representative(spans, start, stop)
        segments.append(PathSegment(start, stop, component, uid, name))

    return CriticalPath(
        t_start=window[0],
        t_end=window[1],
        ref=frame.ref,
        segments=tuple(segments),
    )


def reconcile_with_breakdown(
    path: CriticalPath, breakdown: "OverheadBreakdown"
) -> dict[str, float]:
    """Deltas between the path's component sums and the Fig. 3 breakdown.

    Returns ``{"ttc": ..., "execution": ..., "pattern": ...,
    "runtime": ...}`` where each value is *path seconds minus breakdown
    seconds*.  For workloads where pattern-overhead charges do not
    overlap execution (the paper's characterization runs) every delta
    is zero up to float rounding; a large delta flags either trace
    corruption or genuinely overlapping overheads.

    Core overhead is excluded: it falls outside the pattern's TTC
    window by construction (init/alloc before, cancel after).
    """
    totals = path.by_component()
    return {
        "ttc": path.total - breakdown.ttc,
        "execution": totals["execution"] - breakdown.execution_time,
        "pattern": totals["pattern"] - breakdown.pattern_overhead,
        "runtime": (totals["runtime"] + totals["core"])
        - breakdown.runtime_overhead,
    }
