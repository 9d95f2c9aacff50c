"""Self-test of the benchmark's tracing, on a small case of each workload.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

For each workload it runs the small case once untraced and once traced,
each in a fresh interpreter, and requires that

* the traced run reproduces the untraced run's ``sim_ttc_s`` and the
  sha256 of its Chrome trace export, so the wrappers change nothing the
  program computes;
* ``eventsim.events`` equals ``Simulator.events_processed``;
* the layer self times plus ``unattributed_s`` add up to the traced wall
  time;
* in the ``sal_faults`` case, every port handed over a callback that was
  wrapped, and every node failure ran through a wrapped fault callback;
* both runs pass the correctness checks of ``run.py``.

It also checks, in this process, that removing the instrumentation
restores every function it replaced.  Exits 1 on the first failure.
"""

from __future__ import annotations

import sys

import run

SEED = 3
#: Ports that no simulated workload here reaches: only the batch queue's
#: eligibility retry calls ``Simulator.schedule_at``.
UNREACHED_PORTS = {"Simulator.schedule_at"}


def check_workload(workload: str) -> list[str]:
    plain = run.spawn("timed", workload, SEED, small=True, chrome=True)
    traced = run.spawn("traced", workload, SEED, small=True, chrome=True)
    errors = run.verify(workload, SEED, plain, {})
    errors += run.verify(workload, SEED, traced, {})
    if traced["sim_ttc_s"] != plain["sim_ttc_s"]:
        errors.append(f"traced sim_ttc_s {traced['sim_ttc_s']!r} != "
                      f"untraced {plain['sim_ttc_s']!r}")
    if traced["chrome_sha256"] != plain["chrome_sha256"]:
        errors.append("traced Chrome export differs from the untraced one")
    layers = traced["layers"]
    errors += run.layer_checks(layers)
    if workload == "sal_faults":
        errors += check_ports(layers)
    print(f"{workload}: sim_ttc_s {plain['sim_ttc_s']!r}, chrome sha256 "
          f"{plain['chrome_sha256'][:16]}..., {layers['eventsim.events']} "
          f"events, {layers['cluster.node_failures']} node failures, "
          f"{layers['spans']} spans in {layers['traced_wall_s']:.3f} s")
    return errors


def check_ports(layers: dict) -> list[str]:
    """The wrappers were in place before the program handed over its
    callbacks: every port wrapped one, and every node failure ran through
    a wrapped fault callback."""
    errors = [f"port {port} wrapped no callback"
              for port, count in layers["ports_wrapped"].items()
              if count == 0 and port not in UNREACHED_PORTS]
    failures = layers["cluster.node_failures"]
    if not failures:
        errors.append("the small sal_faults case lost no node, so the "
                      "fault path went untested")
    fault_calls = layers["port_calls"]["NodeFaultProcess.__init__"]
    if fault_calls < failures:
        errors.append(f"{failures} node failures but only {fault_calls} "
                      "calls of wrapped fault callbacks")
    return errors


def check_uninstall() -> list[str]:
    """Installing and removing the wrappers leaves every class and
    module namespace as it was."""
    import worker  # noqa: F401  (puts the program on sys.path)
    from tracer import Instrumentation, SpanRecorder

    recorder = SpanRecorder()
    Instrumentation(recorder).install().uninstall()
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("repro")]

    def snapshot() -> dict:
        state = {}
        for module in modules:
            for attr, value in vars(module).items():
                state[(module.__name__, attr)] = value
                if isinstance(value, type):
                    for key, member in value.__dict__.items():
                        state[(module.__name__, attr, key)] = member
        return state

    before = snapshot()
    instrumentation = Instrumentation(recorder).install()
    wrapped = instrumentation.wrapped
    instrumentation.uninstall()
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    print(f"uninstall: {wrapped} entry points wrapped, "
          f"{len(changed)} left changed")
    return [f"uninstall left {key} changed" for key in changed[:5]]


def main() -> int:
    errors = []
    for workload in run.WORKLOADS:
        try:
            errors += check_workload(workload)
        except run.CheckFailed as exc:
            errors.append(str(exc))
    errors += check_uninstall()
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
