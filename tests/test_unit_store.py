"""The million-unit scale envelope: columnar store, sinks, bulk lifecycle.

Three layers under test:

* :class:`repro.pilot.unit_store.UnitStore` — the struct-of-arrays
  backing store behind the :class:`ComputeUnit` view;
* :mod:`repro.telemetry.sink` — the spillable event sinks the profiler
  writes through, and the bounded (aggregate-only) metrics mode that
  rides with spooling;
* ``Session(bulk_lifecycle=True)`` — coarse lifecycle batches, which
  must leave virtual time untouched relative to the fine (one unit per
  batch) cut, with and without fault injection.
"""

import json

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks, EnsembleOfPipelines
from repro.core.resource_handle import ResourceHandle
from repro.exceptions import ConfigurationError, StateTransitionError
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.retry import RetryPolicy
from repro.pilot.session import Session
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sink import MemorySink, ProfileEvent, SpoolSink, revive
from repro.utils.ids import reset_id_counters


@pytest.fixture
def session():
    reset_id_counters()
    with Session(mode="sim", platform="xsede.comet") as s:
        yield s


@pytest.fixture
def coarse_session():
    reset_id_counters()
    with Session(mode="sim", platform="xsede.comet",
                 bulk_lifecycle=True) as s:
        yield s


def _desc(cores=1):
    return ComputeUnitDescription(
        executable="sleep", cores=cores, mpi=cores > 1
    )


# -- the columnar store ------------------------------------------------------


class TestUnitStore:
    def test_add_assigns_sequential_lazy_uids(self, session):
        store = session.unit_store
        a = store.add(_desc())
        b = store.add(_desc())
        assert store.uid(a) == "unit.000000"
        assert store.uid(b) == "unit.000001"
        assert len(store) == 2

    def test_add_bulk_matches_per_unit_serials(self, session):
        store = session.unit_store
        store.add(_desc())
        rows = store.add_bulk([_desc() for _ in range(3)])
        assert list(rows) == [1, 2, 3]
        assert [store.uid(i) for i in rows] == [
            "unit.000001", "unit.000002", "unit.000003",
        ]
        # The classic path continues from the same counter.
        assert store.uid(store.add(_desc())) == "unit.000004"

    def test_view_round_trips_every_field(self, session):
        unit = ComputeUnit(_desc(cores=4), session)
        assert unit.state is UnitState.NEW
        assert unit.description.cores == 4
        unit.pilot_uid = "pilot.000000"
        unit.slots = [3, 7, 9]
        unit.result = {"answer": 42}
        unit.sandbox = "/sim/unit.000000"
        unit.attempts = 2
        unit.exclude_node("pilot.000000", 5)
        assert unit.pilot_uid == "pilot.000000"
        assert unit.slots == [3, 7, 9]
        assert unit.result == {"answer": 42}
        assert unit.sandbox == "/sim/unit.000000"
        assert unit.attempts == 2
        assert unit.excluded_nodes == {("pilot.000000", 5)}
        unit.result = None
        unit.sandbox = None
        assert unit.result is None
        assert unit.sandbox is None
        # Cleared sparse fields release their side-table entries.
        assert unit._i not in session.unit_store._results
        assert unit._i not in session.unit_store._sandboxes

    def test_timestamps_view_is_mapping_like(self, session):
        unit = ComputeUnit(_desc(), session)
        stamps = unit.timestamps
        assert "NEW" in stamps
        assert "EXECUTING" not in stamps
        assert stamps.get("EXECUTING") is None
        assert stamps.get("EXECUTING", -1.0) == -1.0
        with pytest.raises(KeyError):
            stamps["EXECUTING"]
        unit.advance(UnitState.UMGR_SCHEDULING)
        assert set(stamps.keys()) == {"NEW", "UMGR_SCHEDULING"}
        assert len(stamps) == 2
        assert dict(stamps.items())["NEW"] == pytest.approx(
            stamps["NEW"]
        )

    def test_advance_validates_edges(self, session):
        unit = ComputeUnit(_desc(), session)
        with pytest.raises(StateTransitionError):
            unit.advance(UnitState.EXECUTING)

    def test_advance_updates_state_gauges(self, session):
        unit = ComputeUnit(_desc(), session)
        assert session.metrics.series("units.NEW").last == 1
        unit.advance(UnitState.UMGR_SCHEDULING)
        assert session.metrics.series("units.NEW").last == 0
        assert session.metrics.series("units.UMGR_SCHEDULING").last == 1

    def test_slots_are_independent_snapshots(self, session):
        unit = ComputeUnit(_desc(), session)
        unit.slots = [1, 2]
        first = unit.slots
        first.append(99)
        assert unit.slots == [1, 2]

    @pytest.mark.parametrize("bulk", [False, True], ids=["classic", "bulk"])
    def test_group_callback_sees_final_state_extras_see_every_state(
        self, session, bulk
    ):
        store = session.unit_store
        calls = []
        group = store.callback_group(
            lambda u, s: calls.append(("group", u.uid, s))
        )
        if bulk:
            rows = store.add_bulk([_desc(), _desc()], group)
        else:
            rows = [store.add(_desc(), group) for _ in range(2)]
        units = [ComputeUnit._of(store, i) for i in rows]
        units[0].add_callback(lambda u, s: calls.append(("extra", u.uid, s)))

        def advance(target):
            if bulk:
                store.advance_many(units, target)
            else:
                for unit in units:
                    unit.advance(target)

        advance(UnitState.UMGR_SCHEDULING)
        advance(UnitState.CANCELED)
        assert calls == [
            ("extra", "unit.000000", UnitState.UMGR_SCHEDULING),
            ("group", "unit.000000", UnitState.CANCELED),
            ("extra", "unit.000000", UnitState.CANCELED),
            ("group", "unit.000001", UnitState.CANCELED),
        ]

    def test_submit_callback_fires_once_per_unit_on_final_state(self):
        reset_id_counters()
        handle = ResourceHandle("xsede.comet", cores=32, walltime=60,
                                mode="sim")
        handle.allocate()
        try:
            seen = []
            units = handle.umgr.submit_units(
                [_desc() for _ in range(3)],
                callback=lambda u, s: seen.append((u.uid, s)),
            )
            handle.umgr.wait_units(units)
        finally:
            handle.deallocate()
        assert seen == [(u.uid, UnitState.DONE) for u in units]

    def test_advance_many_emits_one_batch_event_per_group(
        self, coarse_session
    ):
        session = coarse_session
        store = session.unit_store
        rows = store.add_bulk([_desc() for _ in range(5)])
        units = [ComputeUnit._of(store, i) for i in rows]
        before = len(session.prof)
        store.advance_many(units, UnitState.UMGR_SCHEDULING)
        batch = [
            ev for ev in session.prof.events()[before:]
            if ev.name == "units_state"
        ]
        assert len(batch) == 1
        assert batch[0].uid == "unit.000000"
        assert batch[0].attrs["n"] == 5
        assert batch[0].attrs["last"] == "unit.000004"
        assert batch[0].attrs["state"] == "UMGR_SCHEDULING"
        assert all(u.state is UnitState.UMGR_SCHEDULING for u in units)
        assert session.metrics.series("units.UMGR_SCHEDULING").last == 5

    def test_advance_many_groups_by_current_state(self, coarse_session):
        session = coarse_session
        store = session.unit_store
        rows = store.add_bulk([_desc() for _ in range(4)])
        units = [ComputeUnit._of(store, i) for i in rows]
        # Put half the batch one state ahead, then cancel all: two
        # homogeneous groups (NEW and UMGR_SCHEDULING), two batch events.
        store.advance_many(units[:2], UnitState.UMGR_SCHEDULING)
        before = len(session.prof)
        store.advance_many(units, UnitState.CANCELED)
        sizes = [
            ev.attrs["n"] for ev in session.prof.events()[before:]
            if ev.name == "units_state"
        ]
        assert sorted(sizes) == [2, 2]
        assert all(u.state is UnitState.CANCELED for u in units)

    @pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
    def test_advance_many_validates_each_unit(self, coarse):
        reset_id_counters()
        with Session(mode="sim", platform="xsede.comet",
                     bulk_lifecycle=coarse) as session:
            store = session.unit_store
            units = [ComputeUnit._of(store, i)
                     for i in store.add_bulk([_desc(), _desc()])]
            store.advance_many(units[:1], UnitState.UMGR_SCHEDULING)
            with pytest.raises(StateTransitionError):
                store.advance_many(units, UnitState.AGENT_STAGING_INPUT)

    def test_advance_many_validates_every_group(self, coarse_session):
        store = coarse_session.unit_store
        rows = store.add_bulk([_desc()])
        units = [ComputeUnit._of(store, i) for i in rows]
        with pytest.raises(StateTransitionError):
            store.advance_many(units, UnitState.EXECUTING)

    @staticmethod
    def _records(target_many):
        """The trace and callback log of two units taken through
        UMGR_SCHEDULING and CANCELED by *target_many* (a fine store's
        ``advance_many``) or, if ``None``, one ``advance`` at a time."""
        reset_id_counters()
        calls = []
        with Session(mode="sim", platform="xsede.comet") as session:
            store = session.unit_store
            group = store.callback_group(
                lambda u, s: calls.append(("group", u.uid, s))
            )
            units = [ComputeUnit._of(store, i)
                     for i in store.add_bulk([_desc(), _desc()], group)]
            units[1].add_callback(
                lambda u, s: calls.append(("extra", u.uid, s))
            )
            before = len(session.prof)
            for target in (UnitState.UMGR_SCHEDULING, UnitState.CANCELED):
                if target_many:
                    store.advance_many(units, target)
                else:
                    for unit in units:
                        store.advance(unit, target)
            events = [(ev.time, ev.name, ev.uid, ev.attrs)
                      for ev in session.prof.events()[before:]]
        return events, calls

    def test_advance_many_fine_writes_advance_records_in_order(self):
        """A fine store moves a batch one unit at a time: the same
        ``unit_state`` records, gauge points and callbacks as a loop of
        :meth:`UnitStore.advance`, interleaved per unit."""
        events, calls = self._records(target_many=True)
        assert (events, calls) == self._records(target_many=False)
        assert [(name, uid) for _, name, uid, _ in events
                if name != "metric"] == [
            ("unit_state", "unit.000000"), ("unit_state", "unit.000001"),
        ] * 2
        assert calls[0] == ("extra", "unit.000001", UnitState.UMGR_SCHEDULING)

    @pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
    def test_batches_cut_by_granularity(self, coarse):
        reset_id_counters()
        with Session(mode="sim", platform="xsede.comet",
                     bulk_lifecycle=coarse) as session:
            store = session.unit_store
            items = [3, 1, 3, 2, 1]
            by_key = list(store.batches(items, key=lambda x: x))
            whole = list(store.batches(items))
            assert list(store.batches([])) == []
        if coarse:
            assert by_key == [[3, 3], [1, 1], [2]]
            assert whole == [items]
        else:
            assert by_key == whole == [[x] for x in items]


# -- sinks -------------------------------------------------------------------


class TestSinks:
    def test_memory_sink_is_default(self, session):
        assert isinstance(session.prof.sink, MemorySink)

    def test_profile_event_row_round_trip(self):
        ev = ProfileEvent(1.5, "unit_state", "unit.000001",
                          {"state": "EXECUTING", "n": 3})
        row = ev.row()
        assert row == {"time": 1.5, "name": "unit_state",
                       "uid": "unit.000001", "state": "EXECUTING", "n": 3}
        assert revive(dict(row)) == ev

    def test_spool_sink_writes_ndjson_and_revives(self, tmp_path):
        sink = SpoolSink(tmp_path / "trace.jsonl", ring=2)
        events = [
            ProfileEvent(float(i), "tick", f"uid.{i}", {"i": i})
            for i in range(5)
        ]
        for ev in events:
            sink.append(ev)
        assert len(sink) == 5
        assert sink.tail() == events[-2:]  # bounded ring
        assert sink.events() == events
        assert sink.events(since=3) == events[3:]
        with (tmp_path / "trace.jsonl").open() as stream:
            rows = [json.loads(line) for line in stream]
        assert rows[0] == {"time": 0.0, "name": "tick", "uid": "uid.0", "i": 0}
        sink.close()

    def test_spool_sink_append_after_close_preserves_history(self, tmp_path):
        sink = SpoolSink(tmp_path / "trace.jsonl")
        sink.append(ProfileEvent(0.0, "a", "u"))
        sink.close()
        # Post-close appends (session teardown events) must not truncate.
        sink.append(ProfileEvent(1.0, "b", "u"))
        sink.close()
        assert [ev.name for ev in sink.events()] == ["a", "b"]

    def test_spool_sink_empty_reads(self, tmp_path):
        sink = SpoolSink(tmp_path / "missing" / "trace.jsonl")
        assert sink.events() == []
        assert len(sink) == 0
        sink.close()

    def test_session_spool_dir_streams_trace(self, tmp_path):
        reset_id_counters()
        with Session(mode="sim", platform="xsede.comet",
                     spool_dir=tmp_path) as s:
            ComputeUnit(_desc(), s)
            spool = s.spool_path
        assert spool is not None and spool.exists()
        names = [ev.name for ev in s.prof.events()]
        assert names[0] == "session_start"
        assert "session_close" in names


# -- bounded metrics ---------------------------------------------------------


class TestBoundedMetrics:
    def _registry(self, resident):
        clock = {"t": 0.0}
        reg = MetricsRegistry(lambda: clock["t"], resident_points=resident)
        for value in (3.0, 1.0, 4.0, 1.0, 5.0):
            clock["t"] += 1.0
            reg.sample("latency", value)
        reg.adjust("gauge", 2)
        reg.adjust("gauge", -1)
        return reg

    def test_stats_identical_with_and_without_points(self):
        resident = self._registry(True)
        bounded = self._registry(False)
        assert (resident.series("latency").stats()
                == bounded.series("latency").stats())
        assert bounded.series("latency").last == 5.0
        assert bounded.series("gauge").last == 1
        assert len(bounded.series("latency")) == 5

    def test_bounded_series_refuses_point_reads(self):
        bounded = self._registry(False)
        with pytest.raises(RuntimeError, match="latency"):
            bounded.series("latency").values()
        with pytest.raises(RuntimeError, match="latency"):
            bounded.series("latency").value_at(1.0)
        assert bounded.series("latency").points == []


# -- bulk lifecycle ----------------------------------------------------------


def _sleep(duration):
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    return kernel


class TwoStage(EnsembleOfPipelines):
    def stage_1(self, instance):
        return _sleep(40)

    def stage_2(self, instance):
        return _sleep(20)


def _run(n=48, **handle_kwargs):
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=32, walltime=60, mode="sim", **handle_kwargs
    )
    handle.allocate()
    pattern = TwoStage(ensemble_size=n, pipeline_size=2)
    try:
        handle.run(pattern)
        ttc = handle.session.now()
    finally:
        handle.deallocate()
    return handle, pattern, ttc


class TestBulkLifecycle:
    def test_bulk_run_matches_classic_virtual_time(self):
        _, classic_pattern, classic_ttc = _run()
        handle, pattern, ttc = _run(bulk_lifecycle=True)
        assert ttc == classic_ttc
        assert len(pattern.units) == len(classic_pattern.units)
        assert all(u.state is UnitState.DONE for u in pattern.units)

    def test_bulk_run_emits_batch_events(self):
        handle, _, _ = _run(bulk_lifecycle=True)
        names = [ev.name for ev in handle.profile]
        assert "units_new" in names
        assert "units_state" in names
        assert "units_slots" in names
        assert "unit_new" not in names
        assert "unit_state" not in names

    def test_bulk_trace_is_much_smaller(self):
        classic_handle, _, _ = _run()
        bulk_handle, _, _ = _run(bulk_lifecycle=True)
        assert len(list(bulk_handle.profile)) * 5 < len(
            list(classic_handle.profile)
        )

    def test_bulk_matches_classic_when_wave_mixes_stages(self):
        """Regression: a scheduling pass that launches stage-1 leftovers
        and stage-2 units together produces *two* executor groups from
        one ``launch_units`` call.  The group callbacks used to close
        over the loop variable ``finish``, so every group's start
        scheduled the last group's completion — one group finished
        twice (an illegal DONE -> AGENT_STAGING_OUTPUT edge) and the
        other never finished.  100 pipelines on 32 cores hits a mixed
        wave; bulk must match classic exactly."""
        _, classic_pattern, classic_ttc = _run(n=100)
        handle, pattern, ttc = _run(n=100, bulk_lifecycle=True)
        assert ttc == classic_ttc
        assert all(u.state is UnitState.DONE for u in pattern.units)
        assert len(pattern.units) == len(classic_pattern.units) == 200

    def test_bulk_with_spool_matches_too(self, tmp_path):
        _, _, classic_ttc = _run()
        handle, pattern, ttc = _run(bulk_lifecycle=True, spool_dir=tmp_path)
        assert ttc == classic_ttc
        assert all(u.state is UnitState.DONE for u in pattern.units)
        assert handle.session.spool_path.exists()

    def test_bulk_rejects_local_mode(self):
        with pytest.raises(ConfigurationError):
            Session(mode="local", bulk_lifecycle=True)


#: The golden-hash retry policy (tests/test_determinism.py).
_RETRY = RetryPolicy(
    max_attempts=8, backoff_base=2.0, backoff_factor=2.0,
    backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False,
)


class SleepBag(BagOfTasks):
    def task(self, instance):
        return _sleep(100)


class RetriedBag(SleepBag):
    retry_policy = _RETRY


def _digest(events):
    import hashlib

    from repro.telemetry.export import chrome_trace

    payload = json.dumps(
        chrome_trace(events), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestBulkLifecycleFaults:
    """Coarse batches under every fault model: deterministic, every unit
    final, and no core or gauge left behind."""

    RUNS = {
        "node_mtbf": (
            lambda: TwoStage(ensemble_size=48, pipeline_size=2), 7,
            dict(node_mtbf=120.0, node_repair_time=120.0,
                 retry_policy=_RETRY),
            "unit_node_kill",
        ),
        "fault_rate": (
            lambda: RetriedBag(size=64), 11,
            dict(fault_rate=0.2, retry_policy=_RETRY),
            "task_fault",
        ),
        "pilot_mtbf": (
            lambda: TwoStage(ensemble_size=48, pipeline_size=2), 2,
            dict(pilot_mtbf=30.0, max_pilot_resubmits=4, retry_policy=_RETRY),
            "unit_pilot_kill",
        ),
    }

    @staticmethod
    def _run(make, seed, options, coarse=True, spool_dir=None):
        reset_id_counters()
        handle = ResourceHandle(
            "xsede.comet", cores=32, walltime=600, mode="sim", seed=seed,
            bulk_lifecycle=coarse, spool_dir=spool_dir, **options,
        )
        handle.allocate()
        try:
            handle.run(make())
        finally:
            handle.deallocate()
        return handle

    @pytest.mark.parametrize("spooled", [False, True],
                             ids=["resident", "spooled"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_coarse_fault_run(self, run, spooled, tmp_path):
        make, seed, options, fault_event = self.RUNS[run]
        digests = []
        for attempt in ("a", "b"):
            spool_dir = tmp_path / attempt if spooled else None
            handle = self._run(make, seed, options, spool_dir=spool_dir)
            events = list(handle.profile)
            digests.append(_digest(events))
            if spooled:
                with handle.session.spool_path.open() as stream:
                    rows = [revive(json.loads(line)) for line in stream]
                assert _digest(rows) == digests[-1]
        assert digests[0] == digests[1]
        names = {ev.name for ev in events}
        assert {fault_event, "units_state"} <= names
        if run != "fault_rate":
            assert "unit_requeue" in names
        assert all(u.state.is_final for u in handle.umgr.units)
        agent = handle.pilot.agent
        busy = handle.session.metrics.series(
            f"agent.{handle.pilot.uid}.cores_busy"
        )
        assert busy.last == 0
        assert agent.slots.used_cores == 0
        assert agent.executing_units == 0

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_coarse_fault_run_matches_fine_virtual_time(self, run):
        make, seed, options, _ = self.RUNS[run]
        fine = self._run(make, seed, options, coarse=False)
        coarse = self._run(make, seed, options)
        assert coarse.session.now() == fine.session.now()

    def test_kill_takes_one_unit_out_of_a_started_batch(self):
        """A node dies mid-execution under a batch of 32 units spread over
        both nodes: the units on it waste exactly the time since the
        batch launched, and the rest finish at the batch's time."""
        options = dict(retry_policy=_RETRY)
        quiet = self._run(lambda: SleepBag(size=32), 1, options)
        (launch,) = quiet.profile.events("units_slots")
        finished = {ev.time for ev in quiet.profile.events("units_state")
                    if ev.attrs["state"] == "AGENT_STAGING_OUTPUT"}
        assert len(finished) == 1

        kill_at = launch.time + 50.0
        reset_id_counters()
        handle = ResourceHandle(
            "xsede.comet", cores=32, walltime=600, mode="sim", seed=1,
            bulk_lifecycle=True, **options,
        )
        handle.allocate()
        pattern = SleepBag(size=32)
        handle.session.sim.schedule_at(
            kill_at, lambda: handle.pilot.agent._on_node_failure(1)
        )
        try:
            handle.run(pattern)
        finally:
            handle.deallocate()
        kills = handle.profile.events("unit_node_kill")
        assert len(kills) == 8  # 24-core nodes: cores 24..31 sit on node 1
        assert {ev.attrs["wasted"] for ev in kills} == {kill_at - launch.time}
        killed = {ev.uid for ev in kills}
        survivors = [u for u in pattern.units if u.uid not in killed]
        assert len(survivors) == 24
        assert {u.timestamps["AGENT_STAGING_OUTPUT"] for u in survivors} \
            == finished
        busy = handle.session.metrics.series(
            f"agent.{handle.pilot.uid}.cores_busy"
        )
        assert busy.value_at(kill_at) == 24
        assert busy.last == 0
        assert all(u.state is UnitState.DONE for u in pattern.units)
