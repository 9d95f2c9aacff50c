"""Trace validators: check runtime invariants after the fact.

These are the paper-critical invariants of DESIGN.md §6, checked against
executed units' timestamps.  The property-based test suite throws random
workloads at the runtime and runs these validators over the outcome.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.pilot.states import UnitState
from repro.pilot.unit_store import execution_intervals

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

__all__ = [
    "peak_concurrent_cores",
    "check_core_accounting",
    "check_state_timestamps_monotonic",
]


def peak_concurrent_cores(units: Iterable["ComputeUnit"]) -> int:
    """Maximum cores simultaneously occupied by EXECUTING units.

    Sweep line over (start, +cores) / (stop, -cores) events; stop sorts
    before start at equal timestamps (a core freed at *t* is reusable at
    *t*, which matches the agent's reschedule-on-completion behaviour).
    """
    units = list(units)
    events: list[tuple[float, int, int]] = []
    for unit, interval in zip(units, execution_intervals(units)):
        if interval is None:
            continue
        start, stop = interval
        cores = unit.description.cores
        events.append((start, 1, cores))
        events.append((stop, 0, -cores))
    events.sort()
    active = peak = 0
    for _, _, delta in events:
        active += delta
        peak = max(peak, active)
    return peak


def check_core_accounting(
    units: Iterable["ComputeUnit"], total_cores: int
) -> None:
    """Raise AssertionError if occupied cores ever exceeded the pilot size."""
    peak = peak_concurrent_cores(units)
    assert peak <= total_cores, (
        f"core accounting violated: peak {peak} cores on a "
        f"{total_cores}-core pilot"
    )


_STATE_ORDER = [
    UnitState.NEW,
    UnitState.UMGR_SCHEDULING,
    UnitState.AGENT_STAGING_INPUT,
    UnitState.AGENT_SCHEDULING,
    UnitState.EXECUTING,
    UnitState.AGENT_STAGING_OUTPUT,
    UnitState.DONE,
]


def check_state_timestamps_monotonic(units: Iterable["ComputeUnit"]) -> None:
    """Raise AssertionError unless every unit's recorded state timestamps
    are non-decreasing along the canonical state order."""
    for unit in units:
        previous = None
        for state in _STATE_ORDER:
            stamp = unit.timestamps.get(state.value)
            if stamp is None:
                continue
            if previous is not None:
                assert stamp >= previous - 1e-9, (
                    f"unit {unit.uid}: {state.value} stamped before its "
                    f"predecessor ({stamp} < {previous})"
                )
            previous = stamp
