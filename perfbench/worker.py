"""One run of one workload in a fresh interpreter.

``python3 perfbench/worker.py '<json>'`` with the keys

``mode``
    ``timed`` (no tracing, no tracemalloc), ``memory`` (tracemalloc on,
    nothing timed) or ``traced`` (layer spans on, see ``tracer.py``);
``workload``, ``seed``
    what to run;
``spawned``
    ``time.monotonic()`` of the parent just before it started this
    process, so set-up time covers interpreter start and imports (the
    monotonic clock is system-wide on Linux);
``spool_dir``
    a fresh directory for the trace spool of spooled workloads;
``spans_out`` (optional)
    where a traced run writes its spans;
``chrome`` (optional)
    also report the sha256 of the run's Chrome trace export;
``small`` (optional)
    run the self-test's small case of the workload.

Prints one JSON object on its last line of output.  Correctness checks
run after every timed section.
"""

from __future__ import annotations

import gc
import heapq
import json
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: A timed process repeats the analysis until it has spent this many
#: host seconds on it (at most eight times).
ANALYZE_BUDGET_S = 0.25

#: The nominal duration of :func:`calibrate` (about what it takes on a
#: quiet 2 GHz x86 VM): the unit in which reference seconds are counted.
CALIBRATION_REF_S = 0.05


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop, run with the collector off.

    The loop formats ids, fills a dict and drains a heap, as the
    simulator does, so that a slow phase of a shared host slows it and
    the measured work alike.  A timed process runs it before and after
    each measured section and scales the section's host time by
    ``CALIBRATION_REF_S`` over the mean of the two, which turns it into
    reference seconds that do not drift with the load of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(15_000):
        key = f"unit.{i:06d}"
        table[key] = (i, [i, i + 1])
        heapq.heappush(heap, ((i * 7919) % 10_007, i, key))
    while heap:
        _, i, key = heapq.heappop(heap)
        table[key][1].append(i)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def analyze(handle, pattern) -> dict:
    """The trace on hand to a TTC breakdown, a span tree, a critical
    path and its reconciliation; a spooled trace is read back from its
    spool file."""
    from repro.core.profiler import breakdown_from_profile
    from repro.telemetry import (
        SpanBuilder,
        critical_path,
        reconcile_with_breakdown,
    )

    prof = handle.profile
    t0 = time.perf_counter()
    breakdown = breakdown_from_profile(prof, pattern)
    t1 = time.perf_counter()
    builder = SpanBuilder()
    events_read = builder.ingest(prof)
    tree = builder.build()
    t2 = time.perf_counter()
    path = critical_path(tree, pattern.uid)
    deltas = reconcile_with_breakdown(path, breakdown)
    t3 = time.perf_counter()
    return {
        "analyze_s": t3 - t0,
        "breakdown_s": t1 - t0,
        "span_build_s": t2 - t1,
        "critical_path_s": t3 - t2,
        "events_read": events_read,
        "spans": len(tree),
        "trace_error": max(abs(value) for value in deltas.values()),
    }


def check(handle, pattern, inputs) -> tuple[dict, list[str]]:
    """Final-state counts and the invariant checks of one finished run."""
    from repro.analytics.validation import (
        check_core_accounting,
        check_state_timestamps_monotonic,
    )

    states: dict[str, int] = {}
    for unit in pattern.units:
        states[unit.state.value] = states.get(unit.state.value, 0) + 1
    errors = []
    for fn, args in ((check_core_accounting, (pattern.units, inputs["cores"])),
                     (check_state_timestamps_monotonic, (pattern.units,))):
        try:
            fn(*args)
        except AssertionError as exc:
            errors.append(f"{fn.__name__}: {exc}")
    return states, errors


def chrome_sha256(handle) -> str:
    import hashlib

    from repro.telemetry.export import chrome_trace

    payload = json.dumps(chrome_trace(list(handle.profile)),
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def main(config: dict) -> dict:
    inputs = workloads.make_inputs(config["workload"], config["seed"],
                                   small=config.get("small", False))

    # The workload's kernel family is imported here, inside set-up.
    import repro.kernels.misc  # noqa: F401
    from repro.utils.ids import reset_id_counters

    if config["mode"] == "traced":
        from tracer import (
            Instrumentation,
            SpanRecorder,
            calibrate_span_cost,
            layer_report,
        )

        # Installed before set-up, so that the callbacks the program hands
        # over while it allocates (agent, node-fault and job callbacks,
        # the first node failures on the event heap) are wrapped too.
        recorder = SpanRecorder()
        instrumentation = Instrumentation(recorder).install()
    reset_id_counters()
    handle = workloads.make_handle(inputs, config["spool_dir"])
    handle.allocate()
    setup_s = time.monotonic() - config["spawned"]
    pattern = workloads.make_pattern(inputs)
    result = {"mode": config["mode"], "setup_s": setup_s,
              "digest": workloads.digest(inputs),
              "submitted": workloads.unit_count(inputs)}
    sim = handle.session.sim

    if config["mode"] == "memory":
        import tracemalloc

        tracemalloc.start()
        handle.run(pattern)
        handle.deallocate()
        _, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        baseline, _ = tracemalloc.get_traced_memory()
        analysis = analyze(handle, pattern)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        result.update(run_peak_mb=run_peak / 1e6,
                      analyze_peak_mb=(peak - baseline) / 1e6)
    elif config["mode"] == "traced":
        recorder.clear()
        events_before = sim.events_processed
        traced_run = recorder.make_span(
            lambda: (handle.run(pattern), handle.deallocate()),
            recorder.name_id("perfbench:run", None))
        try:
            traced_run()
        finally:
            instrumentation.uninstall()
        cost = calibrate_span_cost()
        report = layer_report(recorder, cost)
        report["span_cost"] = cost
        report["events_processed"] = sim.events_processed - events_before
        report["wrapped"] = instrumentation.wrapped
        report["missing"] = instrumentation.missing
        report["ports_wrapped"] = instrumentation.ports_wrapped
        if config.get("spans_out"):
            recorder.write(config["spans_out"])
        analysis = analyze(handle, pattern)
        result["layers"] = report
        result["run_s"] = report["traced_wall_s"]
    else:
        # Each measured section is scaled by the calibrations right
        # before and after it, so a change of host speed between
        # sections does not carry over.
        calibrations = [calibrate()]
        t0 = time.perf_counter()
        handle.run(pattern)
        handle.deallocate()
        result["run_s"] = time.perf_counter() - t0
        calibrations.append(calibrate())
        # A short analysis is repeated, so that one burst of machine
        # noise does not decide a process's sample.
        samples = []
        while sum(samples) < ANALYZE_BUDGET_S and len(samples) < 8:
            analysis = analyze(handle, pattern)
            samples.append(analysis["analyze_s"])
            calibrations.append(calibrate())
        scales = [2 * CALIBRATION_REF_S / (a + b)
                  for a, b in zip(calibrations, calibrations[1:])]
        result["ref_scale"] = scales[0]
        result["analyze_samples"] = samples
        result["analyze_scales"] = scales[1:]

    result["analysis"] = analysis
    result["sim_ttc_s"] = handle.session.now()
    spool = handle.session.spool_path
    result["spool_bytes"] = spool.stat().st_size if spool else 0
    result["states"], result["errors"] = check(handle, pattern, inputs)
    if config.get("chrome"):
        result["chrome_sha256"] = chrome_sha256(handle)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
