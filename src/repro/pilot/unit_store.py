"""Columnar (struct-of-arrays) storage for compute units.

At 10^4 units a dict-backed Python object per unit is invisible; at the
10^6-unit scale envelope it is the dominant memory term (~1 KB of object
headers, instance dict, timestamps dict and lock per unit before the
unit has done anything).  The :class:`UnitStore` keeps every dense
per-unit field in parallel ``array`` columns — state, cores, retry
counts, one timestamp column per lifecycle state, slot-arena offsets —
and every *sparse* field (result, exception, sandbox, node exclusions,
wait events) in side dicts that only pay for units that actually use
them.  :class:`~repro.pilot.unit.ComputeUnit` is a two-word view over
one row, so the public unit API is unchanged.

Every lifecycle stage moves a *batch* of units, and one unit is a batch
of one.  :meth:`UnitStore.batches` decides how finely a stage's units
are cut, and the store decides which record a batch writes; it is the
only place that reads ``Session(bulk_lifecycle=...)``:

* fine (the default): every unit is its own batch and writes the
  per-unit ``unit_new``/``unit_state``/``unit_slots`` records, in the
  order the golden-trace hashes pin;
* coarse (``bulk_lifecycle=True``, sim only): units sharing a key move
  together with one ``units_new``/``units_state``/``units_slots``
  record, one metrics update and one DES event per batch.

Unit uids are *lazy*: the store reserves serial blocks from the global
id counter (:func:`repro.utils.ids.reserve_id_block`) and formats
``unit.%06d`` on demand, so a million units do not hold a million
resident uid strings while remaining bit-identical to eagerly
generated ids.
"""

from __future__ import annotations

import threading
from array import array
from itertools import groupby
from math import isnan, nan
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.pilot.states import UnitState, validate_unit_edge
from repro.utils.ids import reserve_id_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pilot.description import ComputeUnitDescription
    from repro.pilot.unit import ComputeUnit

__all__ = ["UnitStore", "UnitTimestamps", "execution_intervals"]

#: Stable state <-> small-int codec (enum definition order).
_STATES: list[UnitState] = list(UnitState)
_STATE_INDEX: dict[UnitState, int] = {s: i for i, s in enumerate(_STATES)}

#: Gauge name per unit state, precomputed once — ``advance`` runs for every
#: transition of every unit and must not rebuild these strings each time.
_STATE_GAUGES = {state: f"units.{state.value}" for state in UnitState}

_UID_WIDTH = 6
_EMPTY_EXCLUSIONS: frozenset[tuple[str, int]] = frozenset()


class UnitTimestamps:
    """Mapping view over one unit's row in the timestamp columns.

    Mirrors the historical ``unit.timestamps`` dict: keys are state
    values (``"NEW"``, ``"EXECUTING"``, ...) present only once entered,
    values are the session time of the *latest* entry into that state.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: "UnitStore", i: int) -> None:
        self._store = store
        self._i = i

    def get(self, key: str, default: Any = None) -> Any:
        column = self._store._ts.get(key)
        if column is None:
            return default
        value = column[self._i]
        return default if isnan(value) else value

    def __getitem__(self, key: str) -> float:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self.get(key) is not None

    def __iter__(self) -> Iterator[str]:
        for state in _STATES:
            if self.get(state.value) is not None:
                yield state.value

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def keys(self) -> list[str]:
        return list(self)

    def items(self) -> list[tuple[str, float]]:
        return [(key, self[key]) for key in self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnitTimestamps({dict(self.items())!r})"


class UnitStore:
    """Struct-of-arrays backing store for every unit of one session."""

    def __init__(self, session: Any) -> None:
        self._session = session
        self._metrics = getattr(session, "metrics", None)
        #: Batch granularity: coarse batches group units by key (see
        #: :meth:`batches`); fine ones hold a single unit.
        self._coarse = bool(getattr(session, "bulk_lifecycle", False))
        # One coarse lock replaces the historical per-unit locks: the
        # only concurrent writers are local-mode executor threads, and
        # they contend for the profiler's single lock anyway.
        self._lock = threading.Lock()

        # Dense columns, one slot per unit.
        self._serial = array("q")  # global id-counter value behind the uid
        self._state = array("b")  # index into _STATES
        self._cores = array("i")
        self._attempts = array("i")
        self._pilot = array("i")  # index into _pilot_uids; -1 = unassigned
        self._cb_group = array("i")  # index into _group_cbs; -1 = none
        self._slots_off = array("q")  # offset into the slot arena
        self._slots_len = array("i")
        #: state value -> per-unit entry time column (NaN = never entered).
        self._ts: dict[str, array] = {s.value: array("d") for s in _STATES}

        #: Occupied core ids, packed; append-only (freed rows keep their
        #: cells — at one int per core-occupancy this is noise next to
        #: what resident slot lists used to cost).
        self._slots_arena = array("i")

        self._descriptions: list["ComputeUnitDescription"] = []
        self._pilot_uids: list[str] = []
        self._pilot_index: dict[str, int] = {}
        #: Final-state callbacks, each shared by a whole submitted batch.
        self._group_cbs: list[Callable] = []

        # Sparse side tables (unit index -> value); only units that
        # actually fail / stage / block pay for an entry.
        self._results: dict[int, Any] = {}
        self._exceptions: dict[int, BaseException] = {}
        self._sandboxes: dict[int, str] = {}
        self._excluded: dict[int, set[tuple[str, int]]] = {}
        self._extra_cbs: dict[int, list[Callable]] = {}
        self._final_events: dict[int, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._serial)

    # -- registration -------------------------------------------------------

    def add(self, description: "ComputeUnitDescription",
            group: int = -1) -> int:
        """Register one unit; returns its row (see :meth:`add_bulk`)."""
        return self.add_bulk([description], group)[0]

    def add_bulk(self, descriptions: Iterable["ComputeUnitDescription"],
                 group: int = -1) -> range:
        """Register a batch: one id-block reservation, one extension of
        each column, one metrics update.  *group* is a final-state
        callback group from :meth:`callback_group` (``-1``: none)."""
        descriptions = list(descriptions)
        for description in descriptions:
            description.validate()
        n = len(descriptions)
        first = len(self._serial)
        if not n:
            return range(first, first)
        serial = reserve_id_block("unit", n)
        self._serial.extend(range(serial, serial + n))
        self._state.extend(array("b", [_STATE_INDEX[UnitState.NEW]]) * n)
        self._cores.extend([d.cores for d in descriptions])
        self._attempts.extend(array("i", [0]) * n)
        self._pilot.extend(array("i", [-1]) * n)
        self._cb_group.extend(array("i", [group]) * n)
        self._slots_off.extend(array("q", [0]) * n)
        self._slots_len.extend(array("i", [0]) * n)
        now = self._session.now()
        for state in _STATES:
            fill = now if state is UnitState.NEW else nan
            self._ts[state.value].extend(array("d", [fill]) * n)
        self._descriptions.extend(descriptions)
        if self._metrics is not None:
            self._metrics.adjust("units.NEW", n)
        return range(first, first + n)

    # -- dense fields -------------------------------------------------------

    def execution_intervals(
        self, rows: Iterable[int]
    ) -> list[tuple[float, float] | None]:
        """The execution interval of each of *rows*, in order.

        An interval runs from the entry into EXECUTING to the entry into
        AGENT_STAGING_OUTPUT or, for a unit that failed or was cancelled
        mid-execution, to the stamp of its current (final) state.
        ``None`` stands for a row that never executed.  This is the one
        place the rule lives: TTC breakdown, phase metrics and the core
        accounting check all read intervals through it.
        """
        starts = self._ts[UnitState.EXECUTING.value]
        stops = self._ts[UnitState.AGENT_STAGING_OUTPUT.value]
        by_code = [self._ts[state.value] for state in _STATES]
        codes = self._state
        out: list[tuple[float, float] | None] = []
        for i in rows:
            start = starts[i]
            if isnan(start):
                out.append(None)
                continue
            stop = stops[i]
            if isnan(stop):
                # Every transition stamps the state it enters, so the
                # current state's stamp is always set.
                stop = by_code[codes[i]][i]
            out.append((start, stop))
        return out

    def uid(self, i: int) -> str:
        return f"unit.{self._serial[i]:0{_UID_WIDTH}d}"

    def state(self, i: int) -> UnitState:
        return _STATES[self._state[i]]

    def cores(self, i: int) -> int:
        return self._cores[i]

    def description(self, i: int) -> "ComputeUnitDescription":
        return self._descriptions[i]

    def attempts(self, i: int) -> int:
        return self._attempts[i]

    def set_attempts(self, i: int, value: int) -> None:
        self._attempts[i] = value

    def pilot_uid(self, i: int) -> str | None:
        index = self._pilot[i]
        return None if index < 0 else self._pilot_uids[index]

    def set_pilot_uid(self, i: int, uid: str | None) -> None:
        if uid is None:
            self._pilot[i] = -1
            return
        index = self._pilot_index.get(uid)
        if index is None:
            index = len(self._pilot_uids)
            self._pilot_uids.append(uid)
            self._pilot_index[uid] = index
        self._pilot[i] = index

    def slots(self, i: int) -> list[int]:
        length = self._slots_len[i]
        if not length:
            return []
        off = self._slots_off[i]
        return list(self._slots_arena[off:off + length])

    def set_slots(self, i: int, slots: list[int]) -> None:
        if not slots:
            self._slots_len[i] = 0
            return
        self._slots_off[i] = len(self._slots_arena)
        self._slots_len[i] = len(slots)
        self._slots_arena.extend(slots)

    # -- sparse fields ------------------------------------------------------

    def result(self, i: int) -> Any:
        return self._results.get(i)

    def set_result(self, i: int, value: Any) -> None:
        if value is None:
            self._results.pop(i, None)
        else:
            self._results[i] = value

    def exception(self, i: int) -> BaseException | None:
        return self._exceptions.get(i)

    def set_exception(self, i: int, exc: BaseException | None) -> None:
        if exc is None:
            self._exceptions.pop(i, None)
        else:
            self._exceptions[i] = exc

    def sandbox(self, i: int) -> str | None:
        return self._sandboxes.get(i)

    def set_sandbox(self, i: int, path: str | None) -> None:
        if path is None:
            self._sandboxes.pop(i, None)
        else:
            self._sandboxes[i] = path

    def excluded_nodes(self, i: int) -> frozenset[tuple[str, int]] | set:
        return self._excluded.get(i, _EMPTY_EXCLUSIONS)

    def exclude_node(self, i: int, pilot_uid: str, node: int) -> None:
        self._excluded.setdefault(i, set()).add((pilot_uid, node))

    # -- callbacks ----------------------------------------------------------

    def callback_group(self, callback: Callable | None) -> int:
        """Register *callback* to be shared by many units; returns the
        group to pass to :meth:`add` / :meth:`add_bulk` (``-1`` for
        ``None``).  A group callback fires once per unit, on its final
        transition only."""
        if callback is None:
            return -1
        with self._lock:
            self._group_cbs.append(callback)
            return len(self._group_cbs) - 1

    def add_callback(self, i: int, callback: Callable) -> None:
        """Attach a per-unit callback that fires on every transition."""
        self._extra_cbs.setdefault(i, []).append(callback)

    def remove_callback(self, i: int, callback: Callable) -> None:
        with self._lock:
            extras = self._extra_cbs.get(i)
            if extras and callback in extras:
                extras.remove(callback)
                if not extras:
                    del self._extra_cbs[i]

    def _callbacks(self, i: int, target: UnitState) -> list[Callable]:
        """What a transition of row *i* into *target* calls, in order: the
        group callback (final states only), then the per-unit ones."""
        group = self._cb_group[i] if target.is_final else -1
        extras = self._extra_cbs.get(i, ())
        if group < 0:
            return list(extras)
        return [self._group_cbs[group], *extras]

    def final_event(self, i: int, *, create: bool = False) -> threading.Event | None:
        event = self._final_events.get(i)
        if event is None and create:
            event = self._final_events[i] = threading.Event()
        return event

    # -- lifecycle ----------------------------------------------------------

    def batches(self, units: Iterable[Any],
                key: Callable[[Any], Any] | None = None) -> Iterator[list]:
        """Cut *units* into the batches a lifecycle stage moves together.

        Fine: one batch per unit, in order.  Coarse: one batch per *key*
        value, in order of first appearance (``key=None``: one batch).
        A stage finishes a batch before it starts the next: spans and
        metric points are trace events with global ids, so a fine run
        traces unit by unit, as the golden hashes pin.
        """
        if not self._coarse:
            for unit in units:
                yield [unit]
            return
        if key is None:
            units = list(units)
            if units:
                yield units
            return
        groups: dict[Any, list] = {}
        for unit in units:
            groups.setdefault(key(unit), []).append(unit)
        yield from groups.values()

    def record(self, name: str, units: list["ComputeUnit"], **attrs: Any) -> None:
        """Write the ``name`` record of one batch from :meth:`batches`:
        ``unit_<name>`` per unit (fine) or one ``units_<name>`` carrying
        ``n`` and ``last`` (coarse)."""
        event = self._session.prof.event
        if self._coarse:
            event(f"units_{name}", self.uid(units[0]._i), n=len(units),
                  last=self.uid(units[-1]._i), **attrs)
            return
        for unit in units:
            event(f"unit_{name}", self.uid(unit._i), **attrs)

    def advance(self, unit: "ComputeUnit", target: UnitState) -> None:
        """Move one unit into *target* (see :meth:`_advance_one`)."""
        self._advance_one(unit, target)

    def advance_many(self, units: list["ComputeUnit"], target: UnitState) -> None:
        """Move a batch into *target*.

        Fine: each unit in turn, exactly as :meth:`advance`.  Coarse: one
        ``units_state`` record and one gauge update pair per homogeneous
        (same current state) group; callbacks still fire per unit, in the
        order :meth:`advance` fires them, and a non-final wave with no
        per-unit callbacks calls nothing.
        """
        if not self._coarse:
            for unit in units:
                self._advance_one(unit, target)
            return
        if not units:
            return
        session = self._session
        groups: dict[UnitState, list["ComputeUnit"]] = {}
        for unit in units:
            groups.setdefault(_STATES[self._state[unit._i]], []).append(unit)
        metrics = self._metrics
        for previous, group in groups.items():
            validate_unit_edge(
                f"ComputeUnit {self.uid(group[0]._i)}", previous, target
            )
            code = _STATE_INDEX[target]
            column = self._ts[target.value]
            now = session.now()
            with self._lock:
                for unit in group:
                    self._state[unit._i] = code
                    column[unit._i] = now
            session.prof.event(
                "units_state", self.uid(group[0]._i),
                state=target.value, n=len(group),
                last=self.uid(group[-1]._i),
            )
            if metrics is not None:
                metrics.adjust(_STATE_GAUGES[previous], -len(group))
                metrics.adjust(_STATE_GAUGES[target], len(group))
            if target.is_final or self._extra_cbs:
                for unit in group:
                    for cb in self._callbacks(unit._i, target):
                        cb(unit, target)
            if target.is_final:
                for unit in group:
                    event = self._final_events.get(unit._i)
                    if event is not None:
                        event.set()

    def _advance_one(self, unit: "ComputeUnit", target: UnitState) -> None:
        """One unit's transition; the emission order is pinned by the
        golden traces: stamp → ``unit_state`` event → gauge adjustments →
        callbacks → final-event set."""
        i = unit._i
        session = self._session
        with self._lock:
            previous = _STATES[self._state[i]]
            validate_unit_edge(f"ComputeUnit {self.uid(i)}", previous, target)
            self._state[i] = _STATE_INDEX[target]
            self._ts[target.value][i] = session.now()
            callbacks = self._callbacks(i, target)
        session.prof.event("unit_state", self.uid(i), state=target.value)
        metrics = self._metrics
        if metrics is not None:
            metrics.adjust(_STATE_GAUGES[previous], -1)
            metrics.adjust(_STATE_GAUGES[target], 1)
        for cb in callbacks:
            cb(unit, target)
        if target.is_final:
            with self._lock:
                event = self._final_events.get(i)
            if event is not None:
                event.set()


def execution_intervals(
    units: Iterable["ComputeUnit"],
) -> list[tuple[float, float] | None]:
    """:meth:`UnitStore.execution_intervals` for *units*, in order.

    One store call per run of units that share a store (a pattern's
    units normally all do), instead of one timestamp view per unit.
    """
    out: list[tuple[float, float] | None] = []
    for store, run in groupby(units, key=attrgetter("_store")):
        out += store.execution_intervals([unit._i for unit in run])
    return out
