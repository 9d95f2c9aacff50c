"""Trace analysis reads the trace once and gives the answers it always gave.

Three properties of one analysis (``breakdown_from_profile``, then
``SpanBuilder.ingest``/``build``):

* the breakdown reads the trace once — a counting sink wrapped around a
  run's spool file sees a single read, and the profiler keeps nothing;
* ``breakdown_from_profile``, ``fault_recovery_summary`` and the
  execution-interval metrics match, field by field, a reference copy of
  the per-event-name / per-unit code they replaced, on classic, bulk,
  spooled, node- and pilot-fault runs, with a unit killed mid-execution
  and a unit that never executed;
* ``SpanBuilder`` builds the same span list from live events, revived
  spool rows and dict rows fed in another order.
"""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest

from repro.analytics.faults import FaultRecoverySummary, fault_recovery_summary
from repro.analytics.metrics import phase_total_time, utilization
from repro.analytics.validation import peak_concurrent_cores
from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks, EnsembleOfPipelines
from repro.core.profiler import (
    OverheadBreakdown,
    breakdown_from_profile,
    merge_interval_length,
)
from repro.core.resource_handle import ResourceHandle
from repro.exceptions import PatternError
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.profiler import Profiler
from repro.pilot.retry import RetryPolicy
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
from repro.pilot.unit_store import execution_intervals
from repro.telemetry.sink import EventSink, MemorySink, ProfileEvent, revive
from repro.telemetry.span import SpanBuilder
from repro.utils.ids import reset_id_counters


def _sleep(duration):
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    return kernel


class TwoStageEoP(EnsembleOfPipelines):
    def stage_1(self, instance):
        return _sleep(40)

    def stage_2(self, instance):
        return _sleep(20)


class FaultedBag(BagOfTasks):
    retry_policy = RetryPolicy(
        max_attempts=8, backoff_base=2.0, backoff_factor=2.0,
        backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False,
    )

    def task(self, instance):
        return _sleep(100)


FAULTS = dict(node_mtbf=120.0, node_repair_time=120.0, fault_rate=0.2)

#: name -> (pattern factory, seed, handle options besides the spool).
RUNS = {
    "classic": (lambda: TwoStageEoP(ensemble_size=24, pipeline_size=2), 7, {}),
    "bulk": (lambda: TwoStageEoP(ensemble_size=24, pipeline_size=2), 7,
             {"bulk_lifecycle": True}),
    "spooled": (lambda: TwoStageEoP(ensemble_size=24, pipeline_size=2), 7,
                {"spooled": True}),
    "node_faults": (lambda: FaultedBag(size=48), 11, FAULTS),
    "node_faults_spooled": (lambda: FaultedBag(size=48), 11,
                            dict(FAULTS, spooled=True)),
    "pilot_faults": (lambda: FaultedBag(size=48), 0,
                     dict(FAULTS, pilot_mtbf=150.0, max_pilot_resubmits=10)),
}


def _run(name, tmp_path):
    factory, seed, options = RUNS[name]
    options = dict(options)
    if options.pop("spooled", False):
        options["spool_dir"] = tmp_path
    reset_id_counters()
    handle = ResourceHandle("xsede.comet", cores=32, walltime=600,
                            mode="sim", seed=seed, **options)
    handle.allocate()
    pattern = factory()
    try:
        handle.run(pattern)
    except PatternError:
        # Fault runs may exhaust a unit's retries; the trace and the
        # pattern's units are complete all the same.
        if "fault_rate" not in options:
            raise
    finally:
        handle.deallocate()
    return handle, pattern


def _hand_made_units(session):
    """A unit that never executed and one killed mid-execution."""
    never = ComputeUnit(ComputeUnitDescription(name="never"), session)
    never.advance(UnitState.CANCELED)
    killed = ComputeUnit(ComputeUnitDescription(name="killed"), session)
    for state in (UnitState.UMGR_SCHEDULING, UnitState.AGENT_STAGING_INPUT,
                  UnitState.AGENT_SCHEDULING, UnitState.EXECUTING,
                  UnitState.FAILED):
        killed.advance(state)
    return never, killed


def _no_clock() -> float:
    """Clock of the read-only profilers wrapped around a run's sink."""
    return 0.0


class CountingSink(EventSink):
    """Delegates to a real sink and counts reads and events handed out."""

    def __init__(self, inner: EventSink) -> None:
        self.inner = inner
        self.reads = 0
        self.pulled = 0

    def append(self, ev: ProfileEvent) -> None:
        self.inner.append(ev)

    def events(self, since: int = 0) -> list[ProfileEvent]:
        self.reads += 1
        out = self.inner.events(since)
        self.pulled += len(out)
        return out

    def scan(self, reverse: bool = False):
        self.reads += 1
        for ev in self.inner.scan(reverse):
            self.pulled += 1
            yield ev

    def __len__(self) -> int:
        return len(self.inner)


# -- the code the analysis replaced, kept as the reference -------------------


def _ref_events(prof, name, uid=None):
    return [ev for ev in list(prof)
            if ev.name == name and (uid is None or ev.uid == uid)]


def _ref_exec_intervals(units):
    intervals = []
    for u in units:
        start = u.timestamps.get(UnitState.EXECUTING.value)
        stop = u.timestamps.get(UnitState.AGENT_STAGING_OUTPUT.value)
        if stop is None:
            stop = u.timestamps.get(u.state.value)
        if start is not None and stop is not None:
            intervals.append((start, stop))
    return intervals


def _ref_span_sum(prof, start_name, stop_name, uid):
    starts = _ref_events(prof, start_name, uid)
    stops = _ref_events(prof, stop_name, uid)
    return sum(stop.time - start.time for start, stop in zip(starts, stops))


def _ref_fault_summary(prof):
    node_fails = _ref_events(prof, "node_fail")
    node_repairs = _ref_events(prof, "node_repair")
    pilot_faults = _ref_events(prof, "pilot_fault")
    resubmits = _ref_events(prof, "pilot_resubmit")
    task_faults = _ref_events(prof, "task_fault")
    node_kills = _ref_events(prof, "unit_node_kill")
    pilot_kills = _ref_events(prof, "unit_pilot_kill")
    requeues = _ref_events(prof, "unit_requeue")
    retries = _ref_events(prof, "entk_task_retry")

    wasted = sum(ev.attrs.get("wasted", 0.0) for ev in node_kills)
    wasted += sum(ev.attrs.get("wasted", 0.0) for ev in pilot_kills)
    wasted += sum(ev.attrs.get("at", 0.0) for ev in task_faults)
    backoff = sum(ev.attrs.get("delay", 0.0) for ev in requeues)
    backoff += sum(ev.attrs.get("delay", 0.0) for ev in retries)

    trace_end = max((ev.time for ev in prof), default=0.0)
    agent_starts = {}
    for ev in _ref_events(prof, "agent_start"):
        agent_starts.setdefault(ev.uid, []).append(ev.time)
    resubmit_downtime = 0.0
    for ev in resubmits:
        later = [t for t in agent_starts.get(ev.uid, []) if t >= ev.time]
        resubmit_downtime += (min(later) if later else trace_end) - ev.time

    repair_times = {}
    for ev in node_repairs:
        key = (ev.uid, ev.attrs.get("node", -1))
        repair_times.setdefault(key, []).append(ev.time)
    node_downtime = 0.0
    for ev in node_fails:
        key = (ev.uid, ev.attrs.get("node", -1))
        later = [t for t in repair_times.get(key, []) if t >= ev.time]
        node_downtime += (min(later) if later else trace_end) - ev.time

    return FaultRecoverySummary(
        node_failures=len(node_fails),
        node_repairs=len(node_repairs),
        pilot_faults=len(pilot_faults),
        pilot_resubmits=len(resubmits),
        task_faults=len(task_faults),
        units_killed=len(node_kills) + len(pilot_kills),
        unit_requeues=len(requeues),
        task_retries=len(retries),
        wasted_execution=wasted,
        backoff_delay=backoff,
        resubmit_downtime=resubmit_downtime,
        node_downtime=node_downtime,
    )


def _ref_breakdown(prof, pattern):
    units = list(pattern.units)
    starts = _ref_events(prof, "entk_pattern_start", pattern.uid)
    stops = _ref_events(prof, "entk_pattern_stop", pattern.uid)
    span = stops[-1].time - starts[0].time if starts and stops else None
    ttc = span or 0.0
    intervals = _ref_exec_intervals(units)
    execution_time = merge_interval_length(intervals)
    makespan = (
        max(stop for _, stop in intervals) - min(start for start, _ in intervals)
        if intervals
        else 0.0
    )
    core_overhead = (
        _ref_span_sum(prof, "entk_init_start", "entk_init_stop", None)
        + _ref_span_sum(prof, "entk_alloc_start", "entk_alloc_stop", None)
        + _ref_span_sum(prof, "entk_cancel_start", "entk_cancel_stop", None)
    )
    create = _ref_span_sum(prof, "entk_stage_create_start",
                           "entk_stage_create_stop", pattern.uid)
    charged = sum(ev.attrs.get("seconds", 0.0)
                  for ev in _ref_events(prof, "entk_pattern_overhead",
                                        pattern.uid))
    pattern_overhead = create + charged
    return OverheadBreakdown(
        ttc=ttc,
        execution_time=execution_time,
        makespan=makespan,
        core_overhead=core_overhead,
        pattern_overhead=pattern_overhead,
        runtime_overhead=max(ttc - execution_time - pattern_overhead, 0.0),
        ntasks=len(units),
        fault_overhead=_ref_fault_summary(prof).overhead,
    )


# -- one read ----------------------------------------------------------------


class TestOneRead:
    def test_breakdown_reads_a_spool_once(self, tmp_path):
        handle, pattern = _run("node_faults_spooled", tmp_path)
        session_prof = handle.profile
        counting = CountingSink(session_prof.sink)
        prof = Profiler(_no_clock, sink=counting)
        before = dict(vars(prof))

        breakdown = breakdown_from_profile(prof, pattern)

        assert counting.reads == 1
        assert counting.pulled == len(session_prof)
        # Nothing of the trace stays on the profiler after the analysis.
        assert vars(prof) == before
        assert breakdown == breakdown_from_profile(session_prof, pattern)

    def test_fault_summary_reads_once(self, tmp_path):
        handle, _ = _run("node_faults", tmp_path)
        counting = CountingSink(handle.profile.sink)
        fault_recovery_summary(Profiler(_no_clock, sink=counting))
        assert counting.reads == 1

    def test_span_is_one_pass_and_first_stops_early(self, tmp_path):
        handle, pattern = _run("classic", tmp_path)
        counting = CountingSink(handle.profile.sink)
        prof = Profiler(_no_clock, sink=counting)
        ttc = prof.span("entk_pattern_start", "entk_pattern_stop", pattern.uid)
        assert counting.reads == 1
        assert ttc == pytest.approx(
            breakdown_from_profile(handle.profile, pattern).ttc
        )

        counting.reads = counting.pulled = 0
        first = prof.first("session_start")
        assert first is not None and counting.pulled == 1
        last = prof.last("session_close")
        assert last is not None and counting.pulled == 2
        assert counting.reads == 2

    def test_queries_match_the_filtered_trace(self, tmp_path):
        handle, pattern = _run("spooled", tmp_path)
        spooled = handle.profile
        memory = MemorySink()
        for ev in spooled:
            memory.append(ev)
        resident = Profiler(_no_clock, sink=memory)
        unit = pattern.units[3].uid
        queries = (("unit_state", None), ("unit_state", unit),
                   ("entk_pattern_start", pattern.uid), ("agent_start", None),
                   ("none", None))
        for prof in (spooled, resident):
            for name, uid in queries:
                expected = _ref_events(prof, name, uid)
                assert prof.events(name, uid) == expected
                assert prof.first(name, uid) == (
                    expected[0] if expected else None)
                assert prof.last(name, uid) == (
                    expected[-1] if expected else None)
                span = prof.span(name, name, uid)
                assert span == (expected[-1].time - expected[0].time
                                if expected else None)
            groups, t_end = prof.group_by_name(["unit_new", "node_fail"])
            assert groups == {"unit_new": _ref_events(prof, "unit_new"),
                              "node_fail": []}
            assert t_end == max(ev.time for ev in prof)

    def test_span_pairs_first_start_with_last_end(self):
        prof = Profiler(iter([1.0, 2.0, 3.0, 4.0, 5.0]).__next__)
        for name in ("b", "a", "a", "b", "c"):
            prof.event(name, "u")
        assert prof.span("a", "b") == 4.0 - 2.0
        assert prof.span("b", "a") == 3.0 - 1.0
        assert prof.span("a", "c", uid="other") is None

    def test_group_by_name_takes_the_latest_time_not_the_last(self):
        prof = Profiler(iter([5.0, 1.0]).__next__)
        prof.event("x")
        prof.event("y")
        assert prof.group_by_name(["y"]) == ({"y": prof.events("y")}, 5.0)
        groups, t_end = Profiler(lambda: 0.0).group_by_name(["x"])
        assert groups == {"x": []} and t_end == 0.0


# -- same answers as the per-name / per-unit code ----------------------------


@pytest.mark.parametrize("run", sorted(RUNS))
def test_breakdown_and_faults_match_reference(run, tmp_path):
    handle, pattern = _run(run, tmp_path)
    never, killed = _hand_made_units(handle.session)
    subject = SimpleNamespace(uid=pattern.uid,
                              units=[*pattern.units, never, killed])
    prof = handle.profile

    assert (breakdown_from_profile(prof, subject).as_dict()
            == _ref_breakdown(prof, subject).as_dict())
    assert (fault_recovery_summary(prof).as_dict()
            == _ref_fault_summary(prof).as_dict())

    units = subject.units
    intervals = execution_intervals(units)
    assert intervals[-2] is None  # never executed
    assert intervals[-1] == (
        killed.timestamps["EXECUTING"], killed.timestamps["FAILED"]
    )
    assert [iv for iv in intervals if iv is not None] == (
        _ref_exec_intervals(units)
    )
    assert phase_total_time(units) == sum(
        stop - start for start, stop in _ref_exec_intervals(units)
    )
    assert peak_concurrent_cores(units) == _ref_peak(units)
    assert utilization(units, 32, 1000.0) == _ref_utilization(units, 32, 1000.0)


def test_breakdown_matches_reference_on_a_doctored_trace(tmp_path):
    """Repeated pattern starts/stops and client spans of other uids: the
    first start, the last stop and the uid filters are what count."""
    handle, pattern = _run("classic", tmp_path)
    events = list(handle.profile)
    t_end = events[-1].time
    sink = MemorySink()
    for ev in events:
        sink.append(ev)
    for offset, name, uid, attrs in (
        (1.0, "entk_pattern_start", pattern.uid, {}),
        (2.0, "entk_stage_create_start", "pattern.other", {}),
        (3.0, "entk_pattern_overhead", "pattern.other", {"seconds": 9.0}),
        (4.0, "entk_stage_create_stop", "pattern.other", {}),
        (5.0, "entk_pattern_overhead", pattern.uid, {"seconds": 0.5}),
        (6.0, "entk_pattern_stop", pattern.uid, {}),
        (7.0, "entk_cancel_start", "", {}),
        (8.0, "entk_cancel_stop", "", {}),
    ):
        sink.append(ProfileEvent(t_end + offset, name, uid, attrs))
    prof = Profiler(_no_clock, sink=sink)

    doctored = breakdown_from_profile(prof, pattern)
    assert doctored.as_dict() == _ref_breakdown(prof, pattern).as_dict()
    first_start = _ref_events(prof, "entk_pattern_start", pattern.uid)[0]
    assert doctored.ttc == t_end + 6.0 - first_start.time


def test_pilot_fault_run_spans(tmp_path):
    """Every agent start after a submit or resubmit opens a startup span,
    and every fault-recovery event reaches the builder."""
    handle, _ = _run("pilot_faults", tmp_path)
    tree = _built(handle.profile)
    resubmits = _ref_events(handle.profile, "pilot_resubmit")
    assert resubmits
    assert len(tree.find(name="pilot_startup")) == len(
        _ref_events(handle.profile, "agent_start")
    )


def test_fault_run_holds_units_failed_mid_execution(tmp_path):
    """The fault runs above exercise the final-state stop stamp for real."""
    handle, pattern = _run("node_faults", tmp_path)
    failed_running = [
        u for u in pattern.units
        if "EXECUTING" in u.timestamps
        and "AGENT_STAGING_OUTPUT" not in u.timestamps
    ]
    assert failed_running
    assert all(u.state is UnitState.FAILED for u in failed_running)
    assert fault_recovery_summary(handle.profile).units_killed > 0
    handle, _ = _run("pilot_faults", tmp_path)
    assert fault_recovery_summary(handle.profile).resubmit_downtime > 0


def test_intervals_across_two_stores(tmp_path):
    first, pattern_a = _run("classic", tmp_path)
    second, pattern_b = _run("node_faults", tmp_path)
    units = [*pattern_a.units[:5], *pattern_b.units[:7], *pattern_a.units[5:9]]
    assert [iv for iv in execution_intervals(units) if iv is not None] == (
        _ref_exec_intervals(units)
    )
    assert len(execution_intervals(units)) == len(units)


def _ref_peak(units):
    events = []
    for u in units:
        start = u.timestamps.get("EXECUTING")
        stop = u.timestamps.get("AGENT_STAGING_OUTPUT")
        if stop is None:
            stop = u.timestamps.get(u.state.value)
        if start is not None and stop is not None:
            events.append((start, 1, u.description.cores))
            events.append((stop, 0, -u.description.cores))
    events.sort()
    active = peak = 0
    for _, _, delta in events:
        active += delta
        peak = max(peak, active)
    return peak


def _ref_utilization(units, total_cores, span):
    busy = 0.0
    for u in units:
        intervals = _ref_exec_intervals([u])
        if intervals:
            start, stop = intervals[0]
            busy += (stop - start) * u.description.cores
    return busy / (total_cores * span)


# -- one span list, whatever form the events come in -------------------------


def _span_list(tree):
    return [
        (span.uid, span.name, span.t_start, span.t_end, span.parent,
         span.ref, span.attrs, [child.uid for child in span.children])
        for span in tree
    ]


def _tie_preserving_shuffle(rows, seed):
    """Shuffle rows, keeping rows of one timestamp in their order: the
    builder sorts stably by time, so only that order is significant."""
    blocks = {}
    for row in rows:
        blocks.setdefault(row["time"], []).append(row)
    order = list(blocks.values())
    random.Random(seed).shuffle(order)
    return [row for block in order for row in block]


@pytest.mark.parametrize("run", ["classic", "node_faults"])
def test_span_builder_same_spans_from_every_form(run, tmp_path):
    handle, _ = _run(run, tmp_path)
    live = list(handle.profile)
    live_tree = SpanBuilder().add_events(live).build()

    revived = [revive(json.loads(json.dumps(ev.row()))) for ev in live]
    rows = _tie_preserving_shuffle(
        [json.loads(json.dumps(ev.row())) for ev in live], seed=5
    )
    assert rows != [ev.row() for ev in live]

    builder = SpanBuilder()
    assert builder.ingest(handle.profile) == len(live)
    expected = _span_list(live_tree)
    assert _span_list(builder.build()) == expected
    assert _span_list(SpanBuilder().add_events(revived).build()) == expected
    assert _span_list(SpanBuilder().add_events(rows).build()) == expected
    # Live events are taken as they are, never copied or changed.
    assert all(a is b for a, b in zip(SpanBuilder().add_events(live).events,
                                      live))
    assert [ev.row() for ev in live] == [ev.row() for ev in handle.profile]


def test_span_builder_reads_a_spool_file_like_the_live_trace(tmp_path):
    handle, _ = _run("spooled", tmp_path)
    spool = handle.session.spool_path
    with spool.open() as stream:
        rows = [json.loads(line) for line in stream if line.strip()]
    assert (_span_list(SpanBuilder().add_events(rows).build())
            == _span_list(_built(handle.profile)))


def _built(prof):
    builder = SpanBuilder()
    builder.ingest(prof)
    return builder.build()
