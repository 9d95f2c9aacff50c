"""The pilot agent.

Runs (notionally) inside the pilot's allocation.  It receives compute units
from the unit manager, stages their inputs, queues them for cores, launches
them through an executor and stages outputs — continuation-passing all the
way, so the identical control flow serves threaded local execution and the
single-threaded discrete-event simulation.

Queue policies (the paper's agent inherits RADICAL-Pilot's):

* ``backfill`` (default) — start, in queue order, every waiting unit that
  fits.  Maximizes utilization; this is what produces the paper's linear
  weak/strong scaling.
* ``fifo`` — strict order: if the head does not fit, nothing starts.  Kept
  for the scheduler ablation benchmark.

The wait queue is bucketed by core count, so a pass only tries requests
that can still fit; see :meth:`Agent._schedule_waiting`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import deque
from heapq import heapify, heappop, heapreplace
from math import inf
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.faults import NODE_FAULT_STREAM, NodeFaultProcess
from repro.exceptions import SchedulingError
from repro.pilot.agent.executor import LocalExecutor, SimExecutor
from repro.pilot.agent.slots import make_slot_scheduler
from repro.pilot.agent.staging import LocalStager, SimStager
from repro.pilot.faults import NodeFailure, PilotFailure
from repro.pilot.states import UnitState
from repro.telemetry.span import Tracer
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.pilot.pilot import ComputePilot
    from repro.pilot.session import Session
    from repro.pilot.unit import ComputeUnit

__all__ = ["Agent"]

log = get_logger("pilot.agent")


class Agent:
    """In-allocation unit scheduler and executor frontend."""

    def __init__(
        self,
        session: "Session",
        pilot: "ComputePilot",
        *,
        policy: str = "backfill",
        slot_strategy: str = "contiguous",
        evaluate_payloads: bool = False,
    ) -> None:
        if policy not in ("backfill", "fifo"):
            raise SchedulingError(f"unknown agent queue policy {policy!r}")
        self.session = session
        self.pilot = pilot
        self.policy = policy
        self.slot_strategy = slot_strategy
        # Node boundaries only matter under simulation, where they are the
        # failure domain of the node-fault model; locally the pilot is one
        # "node" so nothing changes for real execution.
        self._cores_per_node = (
            session.platform.cores_per_node if session.is_simulated else None
        )
        self.slots = make_slot_scheduler(
            slot_strategy, pilot.cores, self._cores_per_node
        )
        self._lock = threading.RLock()
        #: The wait queue, in arrival order by sequence number.  Units that
        #: avoid no node of this pilot wait in per-core-count FIFO buckets
        #: of ``(seq, unit)``; ``_bucket_keys`` lists the non-empty
        #: buckets' core counts in ascending order.  Units whose exclusion
        #: list hits this pilot wait in the ``_lane`` as ``(seq, unit,
        #: avoided nodes)``: only they can fail terminally mid-pass.
        self._buckets: dict[int, deque[tuple[int, "ComputeUnit"]]] = {}
        self._bucket_keys: list[int] = []
        self._lane: list[tuple[int, "ComputeUnit", frozenset[int]]] = []
        self._seq = 0
        self._nwaiting = 0
        self._executing: dict[str, "ComputeUnit"] = {}
        self._cancelled: set[str] = set()
        self._started = False
        self._unit_final_cb: Callable[["ComputeUnit"], Any] | None = None
        self._unit_killed_cb: (
            Callable[["ComputeUnit", BaseException], Any] | None
        ) = None
        self._fault_process: NodeFaultProcess | None = None
        self._tracer = getattr(session, "tracer", None) or Tracer(None)
        self._metrics = getattr(session, "metrics", None)

        if session.is_simulated:
            self.stager = SimStager(
                session.sim_context, session.unit_store, tracer=self._tracer
            )
            self.executor: Any = SimExecutor(
                session, evaluate_payloads=evaluate_payloads
            )
        else:
            pilot_sandbox: "Path" = session.sandbox / pilot.uid  # type: ignore[operator]
            pilot_sandbox.mkdir(parents=True, exist_ok=True)
            self.pilot_sandbox = pilot_sandbox
            self.stager = LocalStager(pilot_sandbox, tracer=self._tracer)
            self.executor = LocalExecutor(session, pilot.cores)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Called when the pilot becomes ACTIVE; releases queued units."""
        with self._lock:
            self._started = True
        self.session.prof.event("agent_start", self.pilot.uid)
        self._arm_node_faults()
        self._reschedule()

    # -- waiting-queue bookkeeping -------------------------------------------------

    def _waiting_add(self, unit: "ComputeUnit") -> None:
        """Append *unit* to the wait queue (caller holds the lock)."""
        self._seq += 1
        self._nwaiting += 1
        avoid = self._avoid_for(unit)
        if avoid:
            self._lane.append((self._seq, unit, avoid))
            return
        size = unit.description.cores
        bucket = self._buckets.get(size)
        if bucket is None:
            bucket = self._buckets[size] = deque()
            insort(self._bucket_keys, size)
        bucket.append((self._seq, unit))

    def _bucket_drop(self, size: int) -> None:
        """Forget the emptied bucket of *size* (caller holds the lock)."""
        del self._buckets[size]
        del self._bucket_keys[bisect_left(self._bucket_keys, size)]

    def _waiting_remove(self, unit: "ComputeUnit") -> bool:
        """Take *unit* out of the wait queue if it is there."""
        size = unit.description.cores
        in_lane = bool(self._avoid_for(unit))
        queue = self._lane if in_lane else self._buckets.get(size, ())
        for i, entry in enumerate(queue):
            if entry[1].uid == unit.uid:
                del queue[i]
                if not (in_lane or queue):
                    self._bucket_drop(size)
                self._nwaiting -= 1
                return True
        return False

    def _queue_order(self) -> list["ComputeUnit"]:
        """The waiting units in queue (arrival) order."""
        entries = [
            entry for bucket in self._buckets.values() for entry in bucket
        ]
        entries.extend(entry[:2] for entry in self._lane)
        entries.sort(key=lambda entry: entry[0])
        return [unit for _, unit in entries]

    def _waiting_clear(self) -> list["ComputeUnit"]:
        """Drop the whole wait queue, returned in queue order."""
        waiting = self._queue_order()
        self._buckets.clear()
        self._bucket_keys.clear()
        self._lane.clear()
        self._nwaiting = 0
        return waiting

    def stop(self) -> None:
        """Called at pilot teardown; cancels whatever is still queued."""
        self._disarm_node_faults()
        with self._lock:
            waiting = self._waiting_clear()
        for unit in waiting:
            unit.advance(UnitState.CANCELED)
            self._notify_final(unit)
        self.executor.shutdown()
        self.session.prof.event("agent_stop", self.pilot.uid)

    def suspend(self) -> None:
        """The pilot's container job died with resubmission budget left.

        In-flight units are killed (and handed to the unit manager, which
        requeues them under the retry policy), waiting units stay queued
        for the next activation, and the slot table is rebuilt: the
        resubmitted pilot lands on a fresh allocation, so no previous
        placement or node failure survives.
        """
        self._disarm_node_faults()
        with self._lock:
            self._started = False
            victims = list(self._executing.values())
        for unit in victims:
            self._kill_unit(unit, node=None)
        self.slots = make_slot_scheduler(
            self.slot_strategy, self.pilot.cores, self._cores_per_node
        )
        self.session.prof.event("agent_suspend", self.pilot.uid)

    def abort(self) -> None:
        """The pilot died with no resubmission budget left.

        Unlike :meth:`suspend`, nothing will reactivate this agent, so
        waiting units are handed to the kill hook too: under a retry
        policy they can migrate to surviving pilots, otherwise they fail
        in place instead of lingering until the simulation drains.
        """
        self._disarm_node_faults()
        with self._lock:
            self._started = False
            victims = list(self._executing.values())
            waiting = self._waiting_clear()
        for unit in victims:
            self._kill_unit(unit, node=None)
        for unit in waiting:
            exc = PilotFailure(
                f"unit {unit.uid} stranded by pilot {self.pilot.uid} dying"
            )
            unit.exception = exc
            if self._unit_killed_cb is not None:
                self._unit_killed_cb(unit, exc)
            else:
                unit.advance(UnitState.FAILED)
                self._notify_final(unit)
        self.executor.shutdown()
        self.session.prof.event("agent_abort", self.pilot.uid)

    def on_unit_final(self, callback: Callable[["ComputeUnit"], Any]) -> None:
        """Register the unit manager's completion hook."""
        self._unit_final_cb = callback

    def on_unit_killed(
        self, callback: Callable[["ComputeUnit", BaseException], Any]
    ) -> None:
        """Register the unit manager's node/pilot-kill hook.

        Without one, killed units fail terminally in place (no retries).
        """
        self._unit_killed_cb = callback

    # -- submission ---------------------------------------------------------------

    def submit_units(self, units: list["ComputeUnit"]) -> None:
        """Accept units from the unit manager (any time after creation).

        Each batch (see :meth:`UnitStore.batches`) enters
        AGENT_STAGING_INPUT and starts staging before the next one;
        units wider than the pilot fail at once.
        """
        store = self.session.unit_store
        total = self.slots.total_cores
        with self._tracer.span("agent.submit", self.pilot.uid, n=len(units)):
            for batch in store.batches(
                units, key=lambda u: u.description.cores <= total
            ):
                if batch[0].description.cores > total:
                    for unit in batch:
                        unit.advance(UnitState.FAILED)
                        unit.exception = SchedulingError(
                            f"unit {unit.uid} wants {unit.description.cores} "
                            f"cores; pilot {self.pilot.uid} holds {total}"
                        )
                        self._notify_final(unit)
                    continue
                for unit in batch:
                    unit.pilot_uid = self.pilot.uid
                    self.stager.register_unit(unit)
                store.advance_many(batch, UnitState.AGENT_STAGING_INPUT)
                try:
                    self.stager.stage_in(batch, self._on_staged_in)
                except Exception as exc:  # fails the units, not the agent
                    self._fail(batch, exc)

    def cancel_unit(self, unit: "ComputeUnit") -> None:
        """Cancel a unit; waiting units are dequeued, running ones flagged."""
        with self._lock:
            self._cancelled.add(unit.uid)
            to_cancel = self._waiting_remove(unit)
        if to_cancel:
            unit.advance(UnitState.CANCELED)
            self._notify_final(unit)

    # -- internals -----------------------------------------------------------------

    def _split_cancelled(
        self, units: list["ComputeUnit"]
    ) -> tuple[list["ComputeUnit"], list["ComputeUnit"]]:
        """*units* as (not cancelled, cancelled)."""
        if not self._cancelled:
            return units, []
        kept: list["ComputeUnit"] = []
        cancelled: list["ComputeUnit"] = []
        for unit in units:
            (cancelled if unit.uid in self._cancelled else kept).append(unit)
        return kept, cancelled

    def _on_staged_in(self, units: list["ComputeUnit"]) -> None:
        store = self.session.unit_store
        units, cancelled = self._split_cancelled(units)
        if cancelled:
            store.advance_many(cancelled, UnitState.CANCELED)
            for unit in cancelled:
                self._notify_final(unit)
        if not units:
            return
        store.advance_many(units, UnitState.AGENT_SCHEDULING)
        with self._lock:
            for unit in units:
                self._waiting_add(unit)
        self._reschedule()

    def _avoid_for(self, unit: "ComputeUnit") -> frozenset[int]:
        """Nodes of *this* pilot the unit's exclusion list rules out."""
        if not unit.excluded_nodes:
            return frozenset()
        return frozenset(
            node for puid, node in unit.excluded_nodes if puid == self.pilot.uid
        )

    def _reschedule(self) -> None:
        """Start every waiting unit the policy and free slots allow."""
        with self._tracer.span("agent.schedule", self.pilot.uid):
            self._schedule_waiting()
        if self._metrics is not None and self._started:
            self._metrics.gauge(
                f"agent.{self.pilot.uid}.queue_depth", self._nwaiting
            )
            self._metrics.gauge(
                f"agent.{self.pilot.uid}.cores_held", self.slots.used_cores
            )

    def _schedule_waiting(self) -> None:
        """One scheduling pass over the wait queue.

        A unit that avoids no node fails to allocate exactly when its core
        count exceeds ``slots.largest_fit()`` (contiguous: no pool run is
        long enough; scattered: too few free cores).  A failed allocation
        emits nothing and changes nothing, and within a pass placements
        only shrink the pool.  So a pass keeps a bound ``fit``, starting
        at ``largest_fit() + 1`` and dropping to ``k`` on the first failed
        ``alloc(k)``, and never tries a bucket of ``fit`` cores or more:
        those tries would all fail silently.  Merging the bucket heads and
        the lane by arrival sequence starts units in exactly the order a
        scan of the whole queue would.  A wake-up whose ``largest_fit()``
        is below the smallest bucket key, with an empty lane, returns
        before the pass; lane units are tried on every pass, because they
        can fail terminally in it, which the trace shows.  A queue that is
        one bucket (every 1-core workload) is a plain FIFO pop loop.
        """
        launched: list["ComputeUnit"] = []
        unplaceable: list["ComputeUnit"] = []
        with self._lock:
            if not self._started or not self._nwaiting:
                return
            keys = self._bucket_keys
            if not self._lane and len(keys) == 1:
                self._drain_bucket(keys[0], launched)
            else:
                largest = self.slots.largest_fit()
                if not self._lane and largest < keys[0]:
                    return
                self._merge_pass(largest + 1, launched, unplaceable)
            self._nwaiting -= len(launched) + len(unplaceable)
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

    def _launch(self, launched: list["ComputeUnit"]) -> None:
        """Record the placement of each batch of *launched*, then hand the
        batch to the executor."""
        store = self.session.unit_store
        for batch in store.batches(launched):
            cores = 0
            for unit in batch:
                unit.attempts += 1
                cores += len(unit.slots)
            store.record("slots", batch, slots=cores, pilot=self.pilot.uid)
            self.executor.launch_units(batch, self._on_units_done)

    def _place(
        self, unit: "ComputeUnit", slots: list[int],
        launched: list["ComputeUnit"],
    ) -> None:
        unit.slots = slots
        self._executing[unit.uid] = unit
        launched.append(unit)

    def _drain_bucket(self, size: int, launched: list["ComputeUnit"]) -> None:
        """The pass over a queue that is one bucket: pop while units fit."""
        bucket = self._buckets[size]
        slots = self.slots
        while bucket and slots.free_cores >= size:
            placed = slots.alloc(size)
            if placed is None:
                break
            self._place(bucket.popleft()[1], placed, launched)
        if not bucket:
            self._bucket_drop(size)

    def _merge_pass(
        self,
        fit: int,
        launched: list["ComputeUnit"],
        unplaceable: list["ComputeUnit"],
    ) -> None:
        """The pass over several buckets and the lane, in arrival order."""
        fifo = self.policy == "fifo"
        slots = self.slots
        buckets = self._buckets
        keys = self._bucket_keys
        tried = bisect_left(keys, fit)
        heads = [(buckets[size][0][0], size) for size in keys[:tried]]
        heapify(heads)
        # FIFO stops at the first head that cannot fit, which may sit in
        # a bucket too large to try.
        stop = inf
        if fifo:
            stop = min(
                (buckets[size][0][0] for size in keys[tried:]), default=inf
            )
        lane = self._lane
        kept: list[tuple[int, "ComputeUnit", frozenset[int]]] = []
        i = 0
        while True:
            head = heads[0][0] if heads else inf
            if i < len(lane) and lane[i][0] < head:
                entry = lane[i]
                if entry[0] > stop:
                    break
                i += 1
                _, unit, avoid = entry
                size = unit.description.cores
                if slots.eligible_cores(avoid) < size:
                    unplaceable.append(unit)
                    continue
                placed = None
                if size < fit and size <= slots.free_cores:
                    placed = slots.alloc(size, avoid)
                if placed is not None:
                    self._place(unit, placed, launched)
                    continue
                kept.append(entry)
                if fifo:
                    break
                continue
            if head > stop or not heads:
                break
            size = heads[0][1]
            if size >= fit:
                heappop(heads)
                continue
            placed = slots.alloc(size) if size <= slots.free_cores else None
            if placed is None:
                if fifo:
                    break
                fit = size
                heappop(heads)
                continue
            bucket = buckets[size]
            self._place(bucket.popleft()[1], placed, launched)
            if bucket:
                heapreplace(heads, (bucket[0][0], size))
            else:
                heappop(heads)
                self._bucket_drop(size)
        if i:
            kept.extend(lane[i:])
            self._lane = kept

    # -- failure domains ------------------------------------------------------------

    def _arm_node_faults(self) -> None:
        model = self.session.node_fault_model
        if not (self.session.is_simulated and model.enabled):
            return
        if self._fault_process is None:
            self._fault_process = NodeFaultProcess(
                self.session.sim,
                self.session.sim_context.streams.get(NODE_FAULT_STREAM),
                self.slots.nnodes,
                model,
                self._on_node_failure,
                self._on_node_repair,
                label=self.pilot.uid,
            )
        self._fault_process.start()

    def _disarm_node_faults(self) -> None:
        if self._fault_process is not None:
            self._fault_process.stop()
            self._fault_process = None

    def _on_node_failure(self, node: int) -> None:
        self.session.prof.event("node_fail", self.pilot.uid, node=node)
        self.slots.fail_node(node)
        with self._lock:
            victims = [
                u
                for u in self._executing.values()
                if any(self.slots.node_of(s) == node for s in u.slots)
            ]
        for unit in victims:
            self._kill_unit(unit, node=node)
        # Multi-node victims may have freed slots on healthy nodes.
        self._reschedule()

    def _on_node_repair(self, node: int) -> None:
        self.session.prof.event("node_repair", self.pilot.uid, node=node)
        self.slots.repair_node(node)
        self._reschedule()

    def _kill_unit(self, unit: "ComputeUnit", node: int | None) -> None:
        """Tear down one in-flight unit whose node (or whole pilot) died."""
        launched_at = self.executor.kill(unit)
        with self._lock:
            self._executing.pop(unit.uid, None)
            if unit.slots:
                self.slots.dealloc(unit.slots)
                unit.slots = []
        wasted = (
            self.session.now() - launched_at if launched_at is not None else 0.0
        )
        policy = self.session.retry_policy
        if node is None:
            self.session.prof.event(
                "unit_pilot_kill", unit.uid, pilot=self.pilot.uid, wasted=wasted
            )
            exc: BaseException = PilotFailure(
                f"unit {unit.uid} lost to pilot {self.pilot.uid} dying"
            )
        else:
            self.session.prof.event(
                "unit_node_kill", unit.uid,
                pilot=self.pilot.uid, node=node, wasted=wasted,
            )
            exc = NodeFailure(
                f"unit {unit.uid} lost to node {node} of pilot "
                f"{self.pilot.uid} crashing"
            )
            if policy is not None and policy.exclude_failed_nodes:
                unit.exclude_node(self.pilot.uid, node)
        unit.exception = exc
        if self._unit_killed_cb is not None:
            self._unit_killed_cb(unit, exc)
        else:
            unit.advance(UnitState.FAILED)
            self._notify_final(unit)

    def _on_units_done(
        self, units: list["ComputeUnit"], exception: BaseException | None
    ) -> None:
        """Executor completion: *units* finished together, or one unit
        failed with *exception*."""
        with self._lock:
            for unit in units:
                self._executing.pop(unit.uid, None)
                slots = unit.slots
                if slots:
                    self.slots.dealloc(slots)
        if exception is not None:
            self._fail(units, exception)
        else:
            self.session.unit_store.advance_many(
                units, UnitState.AGENT_STAGING_OUTPUT
            )
            try:
                self.stager.stage_out(units, self._on_staged_out)
            except Exception as exc:  # fails the units, not the agent
                self._fail(units, exc)
        self._reschedule()

    def _on_staged_out(self, units: list["ComputeUnit"]) -> None:
        store = self.session.unit_store
        finished, cancelled = self._split_cancelled(units)
        if finished:
            store.advance_many(finished, UnitState.DONE)
        if cancelled:
            store.advance_many(cancelled, UnitState.CANCELED)
        for unit in units:
            self._notify_final(unit)

    def _fail(self, units: list["ComputeUnit"], exc: BaseException) -> None:
        for unit in units:
            unit.exception = exc
            unit.advance(UnitState.FAILED)
            self._notify_final(unit)

    def _notify_final(self, unit: "ComputeUnit") -> None:
        if self._unit_final_cb is not None:
            self._unit_final_cb(unit)

    # -- introspection -----------------------------------------------------------

    @property
    def waiting_units(self) -> int:
        with self._lock:
            return self._nwaiting

    @property
    def executing_units(self) -> int:
        with self._lock:
            return len(self._executing)
