"""Differential test: the bucketed agent wait queue vs. the deque scan.

The agent's wait queue keeps waiting units in per-core-count buckets and
a lane of units that avoid nodes of the pilot, and a scheduling pass
merges them by arrival order, trying only buckets that can still fit.
It must start, fail and keep exactly the units the scan of one deque did,
in the same order, because launches feed the deterministic traces.  The
deque implementation is kept here verbatim as the executable
specification; hypothesis drives both through random arrivals (widths,
exclusion lists), completions, node failures and repairs, cancellations,
requeues and pilot suspensions, under both queue policies and both slot
strategies, and compares every observable after every step.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.pilot.agent.agent import Agent
from repro.pilot.faults import NodeFailure
from repro.pilot.states import UnitState

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

PILOT = "pilot.0000"
OTHER_PILOT = "pilot.0001"


# -- reference implementation (one deque, scanned on every pass) --------------


class _ReferenceAgent(Agent):
    """The agent with its wait queue as one deque, scanned per pass."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._waiting: deque["ComputeUnit"] = deque()
        #: Uids of waiting units (O(1) membership for cancel_unit).
        self._waiting_uids: set[str] = set()
        #: Core-count multiset of waiting units; ``_min_waiting`` caches its
        #: minimum so a wake-up that cannot place anything returns in O(1)
        #: (see ``_schedule_waiting``'s short-circuit).
        self._waiting_sizes: dict[int, int] = {}
        self._min_waiting: int | None = None
        #: Uids of waiting units carrying a node-exclusion list for this
        #: pilot.  While non-empty every wake-up must run the full scan:
        #: such units can fail *terminally* during it (emitting events), so
        #: the event-silent short-circuit would change traces.
        self._waiting_excluded: set[str] = set()

    def _waiting_add(self, unit: "ComputeUnit") -> None:
        """Track *unit* entering the wait queue (caller holds the lock)."""
        self._waiting.append(unit)
        self._waiting_uids.add(unit.uid)
        size = unit.description.cores
        self._waiting_sizes[size] = self._waiting_sizes.get(size, 0) + 1
        if self._min_waiting is None or size < self._min_waiting:
            self._min_waiting = size
        if unit.excluded_nodes:
            self._waiting_excluded.add(unit.uid)

    def _waiting_forget(self, unit: "ComputeUnit") -> None:
        """Untrack *unit* leaving the wait queue (caller holds the lock).

        The caller removes the unit from the deque itself (pop or
        ``remove``); this maintains the uid set and the size multiset.
        """
        self._waiting_uids.discard(unit.uid)
        self._waiting_excluded.discard(unit.uid)
        size = unit.description.cores
        count = self._waiting_sizes.get(size, 0) - 1
        if count > 0:
            self._waiting_sizes[size] = count
        else:
            self._waiting_sizes.pop(size, None)
            if size == self._min_waiting:
                self._min_waiting = (
                    min(self._waiting_sizes) if self._waiting_sizes else None
                )

    def _waiting_clear(self) -> list["ComputeUnit"]:
        """Drop the whole wait queue (caller holds the lock)."""
        waiting = list(self._waiting)
        self._waiting.clear()
        self._waiting_uids.clear()
        self._waiting_sizes.clear()
        self._waiting_excluded.clear()
        self._min_waiting = None
        return waiting


    def cancel_unit(self, unit: "ComputeUnit") -> None:
        """Cancel a unit; waiting units are dequeued, running ones flagged."""
        with self._lock:
            self._cancelled.add(unit.uid)
            if unit.uid in self._waiting_uids:
                self._waiting.remove(unit)
                self._waiting_forget(unit)
                to_cancel = True
            else:
                to_cancel = False
        if to_cancel:
            unit.advance(UnitState.CANCELED)
            self._notify_final(unit)


    def _reschedule(self) -> None:
        """Start every waiting unit the policy and free slots allow."""
        with self._tracer.span("agent.schedule", self.pilot.uid):
            self._schedule_waiting()
        if self._metrics is not None and self._started:
            self._metrics.gauge(
                f"agent.{self.pilot.uid}.queue_depth", len(self._waiting)
            )
            self._metrics.gauge(
                f"agent.{self.pilot.uid}.cores_held", self.slots.used_cores
            )

    def _schedule_waiting(self) -> None:
        """One scheduling pass over the wait queue.

        Wake-ups are *coalesced*: a pass whose free-core count cannot
        satisfy the smallest waiting request returns in O(1), so a wave
        of same-timestamp deallocations accumulates capacity silently
        until one pass can actually place units — behaviorally identical
        to scanning on every wake-up (failed allocation attempts emit no
        events and leave the queue order untouched), but without the
        O(waiting × cores) rescans.  The same bound stops a scan early
        once launches drop the free count below every waiting request.
        Both short-circuits are disabled while any waiting unit carries a
        node-exclusion list: those units can fail terminally *during* the
        scan, which is observable in the trace.
        """
        launched: list["ComputeUnit"] = []
        unplaceable: list["ComputeUnit"] = []
        with self._lock:
            if not self._started or not self._waiting:
                return
            can_skip = not self._waiting_excluded
            if (
                can_skip
                and self._min_waiting is not None
                and self.slots.free_cores < self._min_waiting
            ):
                return
            if self.policy == "fifo":
                while self._waiting:
                    head = self._waiting[0]
                    avoid = self._avoid_for(head)
                    if (
                        avoid
                        and self.slots.eligible_cores(avoid)
                        < head.description.cores
                    ):
                        self._waiting.popleft()
                        self._waiting_forget(head)
                        unplaceable.append(head)
                        continue
                    slots = self.slots.alloc(head.description.cores, avoid)
                    if slots is None:
                        break
                    self._waiting.popleft()
                    self._waiting_forget(head)
                    head.slots = slots
                    self._executing[head.uid] = head
                    launched.append(head)
            else:  # backfill
                remaining: deque["ComputeUnit"] = deque()
                while self._waiting:
                    unit = self._waiting.popleft()
                    avoid = self._avoid_for(unit)
                    if (
                        avoid
                        and self.slots.eligible_cores(avoid)
                        < unit.description.cores
                    ):
                        self._waiting_forget(unit)
                        unplaceable.append(unit)
                        continue
                    slots = self.slots.alloc(unit.description.cores, avoid)
                    if slots is None:
                        remaining.append(unit)
                        continue
                    self._waiting_forget(unit)
                    unit.slots = slots
                    self._executing[unit.uid] = unit
                    launched.append(unit)
                    if (
                        can_skip
                        and self._min_waiting is not None
                        and self.slots.free_cores < self._min_waiting
                    ):
                        # No remaining request fits; the rest of the scan
                        # would only pop-and-requeue in place.
                        break
                remaining.extend(self._waiting)
                self._waiting = remaining
        for unit in unplaceable:
            # The exclusion list leaves too few cores on this pilot — no
            # amount of waiting or repairs can place the unit, so fail fast
            # instead of queueing it forever.
            unit.exception = NodeFailure(
                f"unit {unit.uid} cannot be placed on pilot {self.pilot.uid}: "
                f"excluded nodes leave fewer than "
                f"{unit.description.cores} eligible cores"
            )
            unit.advance(UnitState.FAILED)
            self._notify_final(unit)
        self._launch(launched)

    @property
    def waiting_units(self) -> int:
        with self._lock:
            return len(self._waiting)

    def _queue_order(self) -> list:
        return list(self._waiting)


# -- a minimal simulated session around one agent ------------------------------


class _Unit:
    """The parts of a compute unit the agent reads and writes."""

    def __init__(self, uid: str, cores: int, excluded: set) -> None:
        self.uid = uid
        self.description = SimpleNamespace(cores=cores)
        self.excluded_nodes = set(excluded)
        self.slots: list[int] = []
        self.attempts = 0
        self.exception: BaseException | None = None
        self.state: UnitState | None = None
        self.pilot_uid = PILOT

    def advance(self, state: UnitState) -> None:
        self.state = state

    def exclude_node(self, pilot_uid: str, node: int) -> None:
        self.excluded_nodes.add((pilot_uid, node))


class _Store:
    """A fine-granularity unit store: every unit is its own batch."""

    def __init__(self, prof: "_Prof") -> None:
        self.prof = prof

    def batches(self, units: list, key: Any = None) -> list:
        return [[unit] for unit in units]

    def record(self, name: str, units: list, **attrs: Any) -> None:
        for unit in units:
            self.prof.event(f"unit_{name}", unit.uid, **attrs)

    def advance_many(self, units: list, state: UnitState) -> None:
        for unit in units:
            unit.advance(state)


class _Prof:
    def __init__(self, log: list) -> None:
        self.log = log

    def event(self, name: str, uid: str, **attrs: Any) -> None:
        self.log.append((name, uid, sorted(attrs.items())))


class _Executor:
    def __init__(self, log: list) -> None:
        self.log = log

    def launch_units(self, units: list, on_done: Any) -> None:
        for unit in units:
            self.log.append(("launch", unit.uid, tuple(unit.slots)))

    def kill(self, unit: _Unit) -> None:
        self.log.append(("kill", unit.uid))
        return None

    def shutdown(self) -> None:
        pass


class _Stager:
    def stage_out(self, units: list, done: Any) -> None:
        done(units)


def _make_agent(cls: type, policy: str, strategy: str, cores: int, cpn: int):
    log: list = []
    prof = _Prof(log)
    session = SimpleNamespace(
        is_simulated=True,
        platform=SimpleNamespace(cores_per_node=cpn),
        sim_context=SimpleNamespace(),
        prof=prof,
        node_fault_model=SimpleNamespace(enabled=False),
        retry_policy=SimpleNamespace(exclude_failed_nodes=True),
        unit_store=_Store(prof),
        now=lambda: 0.0,
    )
    pilot = SimpleNamespace(uid=PILOT, cores=cores)
    agent = cls(session, pilot, policy=policy, slot_strategy=strategy)
    agent.executor = _Executor(log)
    agent.stager = _Stager()
    killed: list = []
    agent.on_unit_final(
        lambda unit: log.append(
            ("final", unit.uid, unit.state, repr(unit.exception))
        )
    )
    agent.on_unit_killed(lambda unit, exc: killed.append(unit))
    return SimpleNamespace(agent=agent, log=log, killed=killed, units={})


def _observe(world) -> tuple:
    agent = world.agent
    return (
        list(world.log),
        [unit.uid for unit in agent._queue_order()],
        agent.waiting_units,
        sorted(agent._executing),
        list(agent.slots._free),
    )


# -- random operation sequences ------------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "arrive", "arrive", "arrive", "batch", "complete", "complete",
            "complete", "fail", "repair", "cancel", "requeue", "start",
            "start", "suspend",
        ]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=80,
)


#: Unit widths: few distinct sizes, so buckets hold several units.
_WIDTHS = (1, 2, 3, 4, 4, 6, 8, 8, 12)


def _excluded(nnodes: int, a: int, b: int) -> set:
    """An exclusion list: none, nodes of this pilot, or of another one."""
    kind = a % 4
    if kind == 0:
        return set()
    if kind == 3:
        return {(OTHER_PILOT, b % nnodes)}
    return {(PILOT, node) for node in range(nnodes) if (b >> node) & 1}


def _step(world, op: str, a: int, b: int, c: int, n: int, cores: int) -> None:
    agent = world.agent
    nnodes = agent.slots.nnodes
    if op in ("arrive", "batch"):
        count = 1 if op == "arrive" else 1 + a % 8
        fresh = []
        for j in range(count):
            width = min(cores, _WIDTHS[(b + 3 * j) % len(_WIDTHS)])
            unit = _Unit(f"unit.{n:04d}.{j}", width,
                         _excluded(nnodes, a + j, c + j))
            world.units[unit.uid] = unit
            fresh.append(unit)
        agent._on_staged_in(fresh)
    elif op == "complete":
        running = sorted(agent._executing)
        if running:
            unit = agent._executing[running[a % len(running)]]
            agent._on_units_done([unit], None)
    elif op == "fail":
        agent._on_node_failure(a % nnodes)
    elif op == "repair":
        agent._on_node_repair(a % nnodes)
    elif op == "cancel":
        # Mostly a waiting unit; sometimes any unit, wherever it is.
        uids = sorted(
            uid for uid, unit in world.units.items()
            if b % 4 == 0 or unit.state is UnitState.AGENT_SCHEDULING
        )
        if uids:
            agent.cancel_unit(world.units[uids[a % len(uids)]])
    elif op == "requeue":
        if world.killed:
            unit = world.killed.pop(a % len(world.killed))
            agent._on_staged_in([unit])
    elif op == "start":
        if not agent._started:
            agent.start()
    elif op == "suspend":
        if agent._started:
            agent.suspend()


@pytest.mark.parametrize("strategy", ["contiguous", "scattered"])
@pytest.mark.parametrize("policy", ["backfill", "fifo"])
@settings(max_examples=300, deadline=None)
@given(
    cores=st.integers(min_value=4, max_value=48),
    cpn=st.sampled_from([2, 4, 8, 12]),
    ops=_OPS,
)
def test_bucketed_queue_matches_deque_scan(policy, strategy, cores, cpn, ops):
    """Agents start stopped, so units queue up before the first pass."""
    new = _make_agent(Agent, policy, strategy, cores, cpn)
    ref = _make_agent(_ReferenceAgent, policy, strategy, cores, cpn)
    for n, (op, a, b, c) in enumerate(ops):
        _step(new, op, a, b, c, n, cores)
        _step(ref, op, a, b, c, n, cores)
        assert _observe(new) == _observe(ref), (n, op)


@pytest.mark.parametrize("cls", [Agent, _ReferenceAgent])
def test_lane_fails_terminally_and_launches(cls):
    """A unit whose exclusion list leaves too few cores fails at once; a
    narrower one avoiding the same node starts on the other node."""
    world = _make_agent(cls, "backfill", "contiguous", 8, 4)
    world.agent.start()
    world.agent._on_staged_in([_Unit("wide", 6, {(PILOT, 0)})])
    world.agent._on_staged_in([_Unit("narrow", 2, {(PILOT, 0)})])
    finals = [entry for entry in world.log if entry[0] == "final"]
    assert finals and finals[0][1] == "wide"
    assert "cannot be placed" in finals[0][3]
    assert ("launch", "narrow", (4, 5)) in world.log


@pytest.mark.parametrize("cls", [Agent, _ReferenceAgent])
def test_failed_bucket_leaves_smaller_ones_tried(cls):
    """After ``alloc(4)`` fails mid-pass, a 3-core unit behind it still
    starts: only buckets of 4 cores or more are known not to fit."""
    world = _make_agent(cls, "backfill", "scattered", 4, 4)
    for uid, width in (("one", 1), ("four", 4), ("three", 3)):
        world.agent._on_staged_in([_Unit(uid, width, set())])
    world.agent.start()
    launched = [entry[1] for entry in world.log if entry[0] == "launch"]
    assert launched == ["one", "three"]
    assert [unit.uid for unit in world.agent._queue_order()] == ["four"]
