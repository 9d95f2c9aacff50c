"""Unit executors: really run payloads, or model them on the virtual clock.

Both executors expose::

    launch_units(units, on_done)   # on_done(units, exception)
    kill(unit)                     # -> launch instant, or None

and are responsible for advancing units into ``EXECUTING`` at the moment
user code (really or notionally) starts.  ``on_done`` gets the units that
finished together, with ``exception=None``, or one failed unit with its
exception; a unit's result is stored on it before.  The agent never needs
to know which mode it is running in.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.pilot.agent.launch_method import get_launch_method
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.states import UnitState
from repro.telemetry.span import Tracer
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.session import Session
    from repro.pilot.unit import ComputeUnit

__all__ = ["TaskContext", "LocalExecutor", "SimExecutor"]

log = get_logger("pilot.agent.executor")

DoneCallback = Callable[[list["ComputeUnit"], BaseException | None], None]


@dataclass
class TaskContext:
    """Everything a really-executing payload may use.

    ``cores`` plays the role of the MPI world size: payloads that scale
    split their work into ``cores`` shards (see the MD kernels).  ``args``
    gives parsed ``--key=value`` kernel arguments.
    """

    description: ComputeUnitDescription
    sandbox: Path | None
    cores: int
    uid: str
    args: dict[str, str] = field(default_factory=dict)

    @classmethod
    def for_unit(cls, unit: "ComputeUnit") -> "TaskContext":
        desc = unit.description
        parsed: dict[str, str] = {}
        for arg in desc.arguments:
            if arg.startswith("--") and "=" in arg:
                key, _, value = arg[2:].partition("=")
                parsed[key] = value
        sandbox = Path(unit.sandbox) if unit.sandbox else None
        return cls(
            description=desc,
            sandbox=sandbox,
            cores=desc.cores,
            uid=unit.uid,
            args=parsed,
        )

    def arg(self, name: str, default: str | None = None) -> str:
        value = self.args.get(name, default)
        if value is None:
            raise KeyError(f"kernel argument --{name}=... is required")
        return value

    def path(self, name: str) -> Path:
        """Resolve the file argument *name* inside the unit sandbox."""
        if self.sandbox is None:
            raise RuntimeError("task has no sandbox (simulated mode?)")
        return self.sandbox / self.arg(name)


class LocalExecutor:
    """Run payloads in a thread pool on this machine.

    The pool is sized to the pilot's core count; the agent's slot
    accounting guarantees no more than that many units are in flight, so
    every launched unit gets a worker immediately.
    """

    def __init__(self, session: "Session", total_cores: int) -> None:
        self.session = session
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(total_cores, 1), thread_name_prefix="unit-exec"
        )
        self._shutdown = False
        self._tracer = getattr(session, "tracer", None) or Tracer(None)
        self._metrics = getattr(session, "metrics", None)

    def launch_units(self, units: list["ComputeUnit"],
                     on_done: DoneCallback) -> None:
        for unit in units:
            get_launch_method(unit.description)  # validates cores/mpi coherence
            self._pool.submit(self._run, unit, on_done)

    def _run(self, unit: "ComputeUnit", on_done: DoneCallback) -> None:
        unit.advance(UnitState.EXECUTING)
        cores = unit.description.cores
        if self._metrics is not None and unit.pilot_uid:
            self._metrics.adjust(f"agent.{unit.pilot_uid}.cores_busy", cores)
        try:
            result = None
            if unit.description.payload is not None:
                with self._tracer.span("exec.payload", unit.uid,
                                       component="execution"):
                    result = unit.description.payload(TaskContext.for_unit(unit))
        except BaseException as exc:  # noqa: BLE001 - task failure is data
            log.debug("unit %s payload failed: %r", unit.uid, exc)
            on_done([unit], exc)
            return
        finally:
            if self._metrics is not None and unit.pilot_uid:
                self._metrics.adjust(f"agent.{unit.pilot_uid}.cores_busy", -cores)
        unit.result = result
        on_done([unit], None)

    def kill(self, unit: "ComputeUnit") -> None:
        """Real threads cannot be killed mid-payload; kills are sim-only."""

    def shutdown(self) -> None:
        if not self._shutdown:
            self._shutdown = True
            self._pool.shutdown(wait=False, cancel_futures=True)


class _Launch:
    """Units launched together: one DES event, launch span, launch
    instant and busy-cores gauge.  Killed units leave the batch; the rest
    carry on."""

    __slots__ = ("units", "live", "cores", "gauge", "event", "span",
                 "started", "launched_at")

    def __init__(self, units: list["ComputeUnit"], gauge: str | None,
                 span: str, launched_at: float) -> None:
        self.units = units
        self.live = len(units)
        self.cores = sum(u.description.cores for u in units)
        self.gauge = gauge
        self.event: Any = None
        self.span = span
        self.started = False
        self.launched_at = launched_at


class SimExecutor:
    """Model payload execution as a timed event on the virtual clock.

    Modelled duration = launch overhead (per launch method) + the unit's
    ``modelled_runtime`` on the session platform.  Payloads may still be
    *evaluated* when ``evaluate_payloads`` is set — useful for validating
    science results at small scale while keeping virtual timing — but by
    default they are skipped.

    The units of one launch call move as batches of equal ``(overhead,
    runtime, fault offset)``, so a unit that draws a task fault gets a
    batch of its own.
    """

    def __init__(self, session: "Session", *, evaluate_payloads: bool = False) -> None:
        if session.sim_context is None:
            raise RuntimeError("SimExecutor requires a simulated session")
        self.session = session
        self.context = session.sim_context
        self.evaluate_payloads = evaluate_payloads
        self._tracer = getattr(session, "tracer", None) or Tracer(None)
        self._metrics = getattr(session, "metrics", None)
        #: In-flight batch per unit row, so a node or pilot failure can
        #: take a unit out of its batch before the batch completes.
        self._launch_of: dict[int, _Launch] = {}

    def _adjust_busy(self, batch: _Launch, cores: int) -> None:
        if batch.gauge is not None:
            self._metrics.adjust(batch.gauge, cores)

    def launch(self, unit: "ComputeUnit", on_done: DoneCallback) -> None:
        """Launch one unit: a batch of one."""
        self._launch([unit], on_done)

    def launch_units(self, units: list["ComputeUnit"],
                     on_done: DoneCallback) -> None:
        """Launch *units*: one DES event per batch of equal parameters."""
        self._launch(units, on_done)

    def _launch(self, units: list["ComputeUnit"], on_done: DoneCallback) -> None:
        platform = self.context.platform
        faults = self.session.fault_model
        draw = faults.draw if faults.enabled else None
        batches: dict[tuple[float, float, float | None],
                      list["ComputeUnit"]] = {}
        for unit in units:
            desc = unit.description
            overhead = get_launch_method(desc).launch_overhead(
                desc.cores, platform
            )
            runtime = desc.modelled_runtime(platform) / platform.node.core_speed
            offset = draw(runtime) if draw else None
            batches.setdefault((overhead, runtime, offset), []).append(unit)
        for params, batch in batches.items():
            self._launch_batch(batch, *params, on_done)

    def _launch_batch(self, units: list["ComputeUnit"], overhead: float,
                      runtime: float, fault_offset: float | None,
                      on_done: DoneCallback) -> None:
        sim = self.context.sim
        uid = units[0].uid
        pilot_uid = units[0].pilot_uid
        batch = _Launch(
            units,
            f"agent.{pilot_uid}.cores_busy"
            if self._metrics is not None and pilot_uid else None,
            self._tracer.begin("exec.launch", uid),
            self.session.now(),
        )
        for unit in units:
            self._launch_of[unit._i] = batch

        def start() -> None:
            self._tracer.end(batch.span)
            batch.span = ""
            self.session.unit_store.advance_many(
                self._live(batch), UnitState.EXECUTING
            )
            batch.started = True
            self._adjust_busy(batch, batch.cores)
            if fault_offset is not None:
                batch.event = sim.schedule(fault_offset, fail,
                                           label=f"fault:{uid}")
            else:
                batch.event = sim.schedule(runtime, finish,
                                           label=f"exec:{uid}")

        def fail() -> None:
            from repro.pilot.faults import TaskFault

            for unit in self._close(batch):
                self.session.prof.event("task_fault", unit.uid,
                                        at=fault_offset, runtime=runtime)
                on_done([unit], TaskFault(f"injected fault in {unit.uid}"))

        def finish() -> None:
            done = self._close(batch)
            if self.evaluate_payloads:
                done = [unit for unit in done if self._evaluate(unit, on_done)]
            if done:
                on_done(done, None)

        batch.event = sim.schedule(overhead, start, label=f"launch:{uid}")

    def _live(self, batch: _Launch) -> list["ComputeUnit"]:
        """The units still in *batch* (dropping killed ones)."""
        if batch.live < len(batch.units):
            batch.units = [
                u for u in batch.units if self._launch_of.get(u._i) is batch
            ]
        return batch.units

    def _close(self, batch: _Launch) -> list["ComputeUnit"]:
        """End *batch*'s execution; returns its units."""
        units = self._live(batch)
        for unit in units:
            del self._launch_of[unit._i]
        self._adjust_busy(batch, -batch.cores)
        return units

    @staticmethod
    def _evaluate(unit: "ComputeUnit", on_done: DoneCallback) -> bool:
        """Run the unit's payload for its result; a payload that raises
        fails the unit through *on_done*."""
        payload = unit.description.payload
        if payload is not None:
            try:
                unit.result = payload(TaskContext.for_unit(unit))
            except BaseException as exc:  # noqa: BLE001
                on_done([unit], exc)
                return False
        return True

    def kill(self, unit: "ComputeUnit") -> float | None:
        """Take *unit* out of its batch (node/pilot death); returns the
        batch's launch instant, or ``None`` if the unit is not in flight.

        The batch's pending event is cancelled and its launch span closed
        once no unit is left in it.  The unit's ``on_done`` is *not*
        invoked: the caller owns the failure handling (requeue or fail),
        exactly like a real node crash produces no exit status.
        """
        batch = self._launch_of.pop(unit._i, None)
        if batch is None:
            return None
        batch.live -= 1
        if not batch.live:
            self.context.sim.cancel(batch.event)
            self._tracer.end(batch.span)
        cores = unit.description.cores
        batch.cores -= cores
        if batch.started:
            self._adjust_busy(batch, -cores)
        return batch.launched_at

    def shutdown(self) -> None:  # symmetry with LocalExecutor
        launches = {id(batch): batch for batch in self._launch_of.values()}
        for batch in launches.values():
            self.context.sim.cancel(batch.event)
        for batch in sorted(launches.values(), key=lambda b: b.units[0].uid):
            self._tracer.end(batch.span)
        self._launch_of.clear()
