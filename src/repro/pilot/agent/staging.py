"""Data staging between sandboxes.

Each unit runs in its own *sandbox* directory under the pilot sandbox.
Staging directives move data in before execution and out after it.  Paths
may use placeholders:

* ``$PILOT_SANDBOX``        — the pilot's shared directory,
* ``$UNIT_<uid>``           — another unit's sandbox (dependency outputs),
* ``$SHARED``               — alias of the pilot sandbox (EnTK convention).

The local stager really links/copies files; the simulated stager charges
modelled transfer time against the platform's shared-filesystem model.
Both stage a batch of units (see :meth:`UnitStore.batches`) and call
``done(units)`` with the units that finished together.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.exceptions import StagingError
from repro.pilot.description import StagingDirective
from repro.telemetry.span import Tracer
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit
    from repro.pilot.unit_store import UnitStore
    from repro.saga.adaptors.sim import SimContext

Done = Callable[[list["ComputeUnit"]], None]

__all__ = ["resolve_placeholders", "LocalStager", "SimStager"]

log = get_logger("pilot.agent.staging")


def resolve_placeholders(path: str, pilot_sandbox: Path, unit_sandboxes: dict[str, Path]) -> Path:
    """Expand ``$PILOT_SANDBOX`` / ``$SHARED`` / ``$UNIT_<uid>`` in *path*."""
    if path.startswith("$PILOT_SANDBOX") or path.startswith("$SHARED"):
        prefix = "$PILOT_SANDBOX" if path.startswith("$PILOT_SANDBOX") else "$SHARED"
        rest = path[len(prefix):].lstrip("/")
        return pilot_sandbox / rest if rest else pilot_sandbox
    if path.startswith("$UNIT_"):
        head, _, rest = path.partition("/")
        uid = head[len("$UNIT_"):]
        if uid not in unit_sandboxes:
            raise StagingError(f"unknown unit sandbox in staging path: {path!r}")
        return unit_sandboxes[uid] / rest if rest else unit_sandboxes[uid]
    return Path(path)


class LocalStager:
    """Real file operations between real sandboxes."""

    def __init__(self, pilot_sandbox: Path, tracer: Tracer | None = None) -> None:
        self.pilot_sandbox = pilot_sandbox
        self.unit_sandboxes: dict[str, Path] = {}
        self._tracer = tracer or Tracer(None)

    def register_unit(self, unit: "ComputeUnit") -> Path:
        """Create (and remember) the unit's sandbox directory."""
        sandbox = self.pilot_sandbox / unit.uid
        sandbox.mkdir(parents=True, exist_ok=True)
        self.unit_sandboxes[unit.uid] = sandbox
        unit.sandbox = str(sandbox)
        return sandbox

    def _resolve(self, path: str, default_base: Path) -> Path:
        resolved = resolve_placeholders(path, self.pilot_sandbox, self.unit_sandboxes)
        if not resolved.is_absolute():
            resolved = default_base / resolved
        return resolved

    def _apply(self, directive: StagingDirective, src_base: Path, dst_base: Path) -> None:
        source = self._resolve(directive.source, src_base)
        target = self._resolve(directive.target, dst_base)
        target.parent.mkdir(parents=True, exist_ok=True)
        if not source.exists():
            raise StagingError(f"staging source does not exist: {source}")
        if directive.action == "link":
            if target.exists() or target.is_symlink():
                target.unlink()
            target.symlink_to(source)
        else:  # copy and transfer are both real copies locally
            if source.is_dir():
                shutil.copytree(source, target, dirs_exist_ok=True)
            else:
                shutil.copy2(source, target)

    def stage_in(self, units: list["ComputeUnit"], done: Done) -> None:
        for unit in units:
            sandbox = self.unit_sandboxes[unit.uid]
            with self._tracer.span("agent.stage_in", unit.uid,
                                   n=len(unit.description.input_staging)):
                for directive in unit.description.input_staging:
                    self._apply(directive, self.pilot_sandbox, sandbox)
        done(units)

    def stage_out(self, units: list["ComputeUnit"], done: Done) -> None:
        for unit in units:
            sandbox = self.unit_sandboxes[unit.uid]
            with self._tracer.span("agent.stage_out", unit.uid,
                                   n=len(unit.description.output_staging)):
                for directive in unit.description.output_staging:
                    self._apply(directive, sandbox, self.pilot_sandbox)
        done(units)


class SimStager:
    """Charge modelled transfer time on the virtual clock: one span and
    one DES event per batch, cut by transfer cost (see
    :meth:`~repro.pilot.unit_store.UnitStore.batches`)."""

    def __init__(self, context: "SimContext", store: "UnitStore",
                 tracer: Tracer | None = None) -> None:
        self.context = context
        self.unit_sandboxes: dict[str, Path] = {}
        self._store = store
        self._tracer = tracer or Tracer(None)

    def register_unit(self, unit: "ComputeUnit") -> Path | None:
        """Remember a notional sandbox for a unit that stages data, so
        placeholder paths can name it; units without staging directives
        get none (nothing under simulation reads it)."""
        desc = unit.description
        if not (desc.input_staging or desc.output_staging):
            return None
        sandbox = Path("/sim") / unit.uid
        self.unit_sandboxes[unit.uid] = sandbox
        unit.sandbox = str(sandbox)
        return sandbox

    def _cost(self, directives: list[StagingDirective]) -> float:
        fs = self.context.filesystem
        total = 0.0
        for directive in directives:
            if directive.action == "link":
                continue  # metadata-only
            total += fs.transfer_time(directive.nbytes)
        return total

    def _timed(self, name: str, attr: str, units: list["ComputeUnit"],
               done: Done) -> None:
        sim = self.context.sim
        kind = name.partition(".")[2]

        def cost(unit: "ComputeUnit") -> float:
            directives = getattr(unit.description, attr)
            return self._cost(directives) if directives else 0.0

        for batch in self._store.batches(units, key=cost):
            delay = cost(batch[0])
            span = self._tracer.begin(name, batch[0].uid)

            def finish(batch=batch, span=span) -> None:
                self._tracer.end(span)
                done(batch)

            sim.schedule(delay, finish, label=f"{kind}:{batch[0].uid}")

    def stage_in(self, units: list["ComputeUnit"], done: Done) -> None:
        self._timed("agent.stage_in", "input_staging", units, done)

    def stage_out(self, units: list["ComputeUnit"], done: Done) -> None:
        self._timed("agent.stage_out", "output_staging", units, done)
