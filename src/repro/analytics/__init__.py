"""Analysis of runtime traces into the paper's metrics and tables."""

from repro.analytics.faults import (
    FaultRecoverySummary,
    fault_recovery_summary,
)
from repro.analytics.metrics import (
    group_units,
    phase_execution_time,
    phase_total_time,
    speedup,
    parallel_efficiency,
    utilization,
)
from repro.analytics.tables import format_table, Series
from repro.analytics.validation import (
    check_core_accounting,
    check_state_timestamps_monotonic,
    peak_concurrent_cores,
)

__all__ = [
    "FaultRecoverySummary",
    "fault_recovery_summary",
    "group_units",
    "phase_execution_time",
    "phase_total_time",
    "speedup",
    "parallel_efficiency",
    "utilization",
    "format_table",
    "Series",
    "peak_concurrent_cores",
    "check_core_accounting",
    "check_state_timestamps_monotonic",
]
