"""SM — state-machine conformance rules.

The pilot/unit lifecycles are defined once, as edge tables in
:mod:`repro.pilot.states`; the paper's overhead decomposition (Fig. 3) hangs
durations off exactly these transitions.  These rules cross-check every
*call site* against those tables statically:

* SM001 — reference to an enum member that does not exist;
* SM002 — a transition provably illegal under the edge table, inferred from
  straight-line consecutive ``advance()`` calls on one receiver (or
  ``advance_many()`` calls on one batch) or from an enclosing
  ``if x.state is State.Y`` guard;
* SM003 — state assigned directly (``x._state = ...``), bypassing the
  validating ``advance()`` path;
* SM004 — a table state that no scanned call site ever produces (dead state
  or missing lifecycle code), reported once per run.
"""

from __future__ import annotations

import ast
import enum as _enum
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.model import Finding
from repro.lint.registry import Rule, register_rule

__all__ = [
    "STATE_MACHINES",
    "UnknownStateMemberRule",
    "IllegalTransitionRule",
    "DirectStateAssignmentRule",
    "UnproducedStateRule",
]


def _machines() -> dict[str, tuple[type[_enum.Enum], dict]]:
    """Enum-class-name -> (enum, edge table).  Late import: the lint package
    must stay importable even if the runtime layers are being refactored."""
    from repro.pilot.states import _PILOT_EDGES, _UNIT_EDGES, PilotState, UnitState

    return {
        "PilotState": (PilotState, _PILOT_EDGES),
        "UnitState": (UnitState, _UNIT_EDGES),
    }


#: Public alias for docs/tests; resolved lazily by the rules themselves.
STATE_MACHINES = _machines


def _state_ref(node: ast.expr) -> tuple[str, str] | None:
    """``UnitState.DONE`` -> ("UnitState", "DONE")."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _machines()
    ):
        return node.value.id, node.attr
    return None


def _advance_call(node: ast.expr) -> tuple[str, str, str, ast.Call] | None:
    """``recv.advance(UnitState.DONE)`` or ``store.advance_many(recv,
    UnitState.DONE)`` -> (recv_src, machine, member, call).

    For ``advance_many`` the entities moved are its first argument, so
    that is the receiver the transition is tracked on.
    """
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    if node.func.attr == "advance" and len(node.args) == 1:
        recv = ast.unparse(node.func.value)
    elif node.func.attr == "advance_many" and len(node.args) == 2:
        recv = ast.unparse(node.args[0])
    else:
        return None
    ref = _state_ref(node.args[-1])
    if ref is None:
        return None
    machine, member = ref
    return recv, machine, member, node


def _mentions_name(stmt: ast.stmt, recv: str) -> bool:
    """Does *stmt* mention the receiver expression's root name at all?"""
    root = recv.split(".", 1)[0].split("[", 1)[0]
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and node.id == root:
            return True
    return False


@register_rule
class UnknownStateMemberRule(Rule):
    id = "SM001"
    summary = "reference to a state-enum member that does not exist"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        machines = _machines()
        for node in ast.walk(ctx.tree):
            ref = _state_ref(node) if isinstance(node, ast.Attribute) else None
            if ref is None:
                continue
            machine, member = ref
            enum_cls, _ = machines[machine]
            if not hasattr(enum_cls, member):
                yield Finding(
                    ctx.relpath,
                    node.lineno,
                    node.col_offset,
                    self.id,
                    f"{machine} has no member {member!r}",
                    hint="members: " + ", ".join(m.name for m in enum_cls),
                )


@register_rule
class IllegalTransitionRule(Rule):
    id = "SM002"
    summary = "state transition absent from the legal-edge table"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan_block(ctx, node.body, {})

    # -- block-level dataflow ------------------------------------------------

    def _scan_block(
        self, ctx: FileContext, stmts: list[ast.stmt], known: dict
    ) -> Iterator[Finding]:
        """Track the last known state per receiver through straight-line code.

        *known* maps ``(machine, recv_src)`` to the member name the receiver
        was last proven to be in.  Any statement that mentions a receiver
        without being a recognised advance erases that knowledge (a helper
        call may transition the entity elsewhere).
        """
        machines = _machines()
        for stmt in stmts:
            adv = (
                _advance_call(stmt.value)
                if isinstance(stmt, ast.Expr)
                else None
            )
            if adv is not None:
                recv, machine, member, call = adv
                enum_cls, edges = machines[machine]
                if not hasattr(enum_cls, member):
                    continue  # SM001's finding
                prev = known.get((machine, recv))
                if prev is not None:
                    allowed = edges[enum_cls[prev]]
                    if enum_cls[member] not in allowed:
                        yield Finding(
                            ctx.relpath,
                            call.lineno,
                            call.col_offset,
                            self.id,
                            f"illegal {machine} transition {prev} -> {member}",
                            hint="legal targets: "
                            + (", ".join(sorted(s.name for s in allowed)) or "none (final state)"),
                        )
                known[(machine, recv)] = member
                continue

            if isinstance(stmt, ast.If):
                guard = self._state_guard(stmt.test)
                body_known = dict(known)
                if guard is not None:
                    body_known[(guard[0], guard[1])] = guard[2]
                yield from self._scan_block(ctx, stmt.body, body_known)
                else_known = dict(known)
                if guard is not None:
                    else_known.pop((guard[0], guard[1]), None)
                yield from self._scan_block(ctx, stmt.orelse, else_known)
                known.clear()
                continue

            if isinstance(
                stmt,
                (
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.With,
                    ast.AsyncWith,
                    ast.Try,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                for field_name in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field_name, None)
                    if inner:
                        yield from self._scan_block(ctx, inner, {})
                for handler in getattr(stmt, "handlers", []):
                    yield from self._scan_block(ctx, handler.body, {})
                known.clear()
                continue

            # Plain statement: drop knowledge of any receiver it touches.
            for key in list(known):
                if _mentions_name(stmt, key[1]):
                    del known[key]

    @staticmethod
    def _state_guard(test: ast.expr) -> tuple[str, str, str] | None:
        """``recv.state is Machine.MEMBER`` -> (machine, recv_src, member)."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.Eq))
        ):
            return None
        left, right = test.left, test.comparators[0]
        ref = _state_ref(right)
        if ref is None:
            return None
        if not (
            isinstance(left, ast.Attribute)
            and left.attr in ("state", "_state")
        ):
            return None
        machine, member = ref
        enum_cls, _ = _machines()[machine]
        if not hasattr(enum_cls, member):
            return None
        return machine, ast.unparse(left.value), member


@register_rule
class DirectStateAssignmentRule(Rule):
    id = "SM003"
    summary = "state assigned directly instead of through advance()"

    _ALLOWED_FUNCS = frozenset({"advance", "__init__"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.relpath.replace("\\", "/").endswith("pilot/states.py"):
            return
        yield from self._scan(ctx, ctx.tree, in_allowed=False)

    def _scan(self, ctx: FileContext, node: ast.AST, in_allowed: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan(
                    ctx, child, in_allowed=child.name in self._ALLOWED_FUNCS
                )
                continue
            if isinstance(child, ast.Assign) and not in_allowed:
                ref = _state_ref(child.value)
                if ref is not None:
                    for target in child.targets:
                        if isinstance(target, ast.Attribute) and target.attr in (
                            "state",
                            "_state",
                        ):
                            yield Finding(
                                ctx.relpath,
                                child.lineno,
                                child.col_offset,
                                self.id,
                                f"direct state assignment to .{target.attr} "
                                f"bypasses advance() validation",
                                hint="call .advance(%s.%s) instead" % ref,
                            )
            yield from self._scan(ctx, child, in_allowed)


@register_rule
class UnproducedStateRule(Rule):
    id = "SM004"
    summary = "edge-table state with no producing call site in scanned paths"

    #: Module defining the edge tables; coverage is only meaningful when a
    #: scan includes it (a partial scan legitimately misses producers).
    _DEFINING_MODULE = "pilot/states.py"

    def __init__(self) -> None:
        self._produced: dict[str, set[str]] = {}
        self._states_module: str | None = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.relpath.replace("\\", "/").endswith(self._DEFINING_MODULE):
            self._states_module = ctx.relpath
        for node in ast.walk(ctx.tree):
            adv = _advance_call(node) if isinstance(node, ast.Call) else None
            if adv is not None:
                _, machine, member, _ = adv
                self._note(machine, member, ctx.relpath)
                continue
            if isinstance(node, ast.Assign):
                ref = _state_ref(node.value)
                if ref is not None and any(
                    isinstance(t, ast.Attribute) and t.attr in ("state", "_state")
                    for t in node.targets
                ):
                    self._note(ref[0], ref[1], ctx.relpath)
        return iter(())

    def _note(self, machine: str, member: str, relpath: str) -> None:
        enum_cls, _ = _machines()[machine]
        if hasattr(enum_cls, member):
            self._produced.setdefault(machine, set()).add(member)

    def finalize(self) -> Iterator[Finding]:
        if self._states_module is None:
            # The defining module was outside the scan: coverage cannot be
            # judged from a partial view, stay silent.
            return
        machines = _machines()
        for machine, (enum_cls, edges) in sorted(machines.items()):
            produced = self._produced.get(machine)
            if not produced:
                continue
            reachable = {s.name for targets in edges.values() for s in targets}
            for name in sorted(reachable - produced):
                yield Finding(
                    self._states_module,
                    1,
                    0,
                    self.id,
                    f"{machine}.{name} is reachable in the edge table but no "
                    f"scanned call site produces it",
                    hint="add the missing advance() or prune the table edge",
                )
