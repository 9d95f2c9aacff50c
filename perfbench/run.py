"""The repository's benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload eop_bulk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/selftest.py

``--trace 0`` measures the end-to-end metrics with tracing off.  For
``--seconds`` it starts one fresh interpreter after another, each of
which sets up, runs and analyses the workload once (see ``worker.py``;
a short analysis is repeated); each reported figure is the median over
all samples of those processes:

``units_per_s``
    units reaching a final state per second, from ``ResourceHandle.run``
    to the return of ``deallocate``;
``analyze_s``
    seconds from the trace on hand to ``breakdown_from_profile``,
    ``SpanBuilder.build``, ``critical_path`` and
    ``reconcile_with_breakdown`` (a spooled trace is read back from its
    spool file);
``setup_s``
    seconds from starting the interpreter to an allocated handle with an
    active pilot, imports included.

These three are counted in *reference seconds*: each process also times
a fixed calibration loop before and after each measured section (the
run, each analysis), and the section's host seconds are scaled by
``CALIBRATION_REF_S`` over the mean of those two calibrations (see
``worker.calibrate``; set-up takes the run's scale).  On a shared host whose speed drifts by a third
from minute to minute, this keeps a run's figures comparable with the
next run's; the medians in plain host seconds are printed beside them.

Then one more process measures memory, under ``tracemalloc`` and never
in a timed pass: ``run_peak_mb`` (peak of the run) and
``analyze_peak_mb`` (peak of the analysis above the post-run baseline).
A last process runs the workload on a second seed that has no pinned
result, and must pass every check.

``--trace 1`` alternates untraced and traced processes for ``--seconds``
and reports the per-layer metrics (see ``tracer.py``), the tracing
overhead (traced minus untraced wall time of the run), and writes the
spans of the last traced run to ``.perfbench_out/``.

Both modes check correctness outside every timed section: final-state
counts and ``sim_ttc_s`` against ``pins.json`` (for a pinned seed; an
unpinned seed must finish every unit DONE), core accounting, monotonic
state timestamps, and that every pass of one seed reproduces the same
``sim_ttc_s``.  A failed check prints ``"correct": false`` and exits 1.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

WORKLOADS = ("eop_bulk", "mpi_backfill", "sal_faults")
#: The second seed of a run is ``seed + SECOND_SEED``, moved on past
#: any seed that pins.json holds, so that it is always unpinned.
SECOND_SEED = 1_000_003
#: Fewest processes per timed series, however short ``--seconds`` is.
MIN_TIMED = 3
#: Host seconds one worker process may take before it is killed.
WORKER_TIMEOUT = 60
FINAL_STATES = ("DONE", "FAILED", "CANCELED")


class CheckFailed(Exception):
    """A worker process failed, timed out or printed no result."""


def spawn(mode: str, workload: str, seed: int, **extra) -> dict:
    """Run ``worker.py`` in a fresh interpreter with a fresh spool dir."""
    OUT.mkdir(exist_ok=True)
    spool = tempfile.mkdtemp(prefix="spool-", dir=OUT)
    config = {"mode": mode, "workload": workload, "seed": seed,
              "spool_dir": spool, **extra}
    try:
        config["spawned"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{mode} worker for {workload} seed {seed} took "
                          f"over {WORKER_TIMEOUT} s and was killed") from None
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise CheckFailed(
            f"{mode} worker for {workload} seed {seed} exited "
            f"{proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def verify(workload: str, seed: int, result: dict, pins: dict) -> list[str]:
    """Everything wrong with one worker's result."""
    errors = [f"{workload} seed {seed}: {e}" for e in result["errors"]]
    pin = pins.get(workload, {}).get(str(seed))
    states = pin["states"] if pin else {"DONE": result["submitted"]}
    if result["states"] != states:
        errors.append(f"{workload} seed {seed}: final states "
                      f"{result['states']} != {states}")
    if pin:
        if result["sim_ttc_s"] != pin["sim_ttc_s"]:
            errors.append(f"{workload} seed {seed}: sim_ttc_s "
                          f"{result['sim_ttc_s']!r} != pinned "
                          f"{pin['sim_ttc_s']!r}")
        if result["digest"] != pin["digest"]:
            errors.append(f"{workload} seed {seed}: inputs changed since "
                          "they were pinned")
    return errors


def same_ttc(workload: str, seed: int, results: list[dict]) -> list[str]:
    ttcs = {r["sim_ttc_s"] for r in results}
    if len(ttcs) != 1:
        return [f"{workload} seed {seed}: passes disagree on sim_ttc_s: "
                f"{sorted(ttcs)}"]
    return []


def finished(result: dict) -> int:
    return sum(result["states"].get(state, 0) for state in FINAL_STATES)


def not_done(result: dict) -> int:
    return result["submitted"] - result["states"].get("DONE", 0)


def series(label: str, values: list[float], host: list[float],
           unit: str) -> float:
    """Print and return the median of *values* (reference seconds); the
    median of the same samples in plain host seconds is printed too."""
    median = statistics.median(values)
    print(f"  {label:<24} {median:14.6g} {unit:<8} (median of "
          f"{len(values)}: min {min(values):.6g}, max {max(values):.6g}; "
          f"in host seconds {statistics.median(host):.6g})")
    return median


def timed_loop(seconds: float, run_once) -> None:
    """Call *run_once* until *seconds* have passed (at least MIN_TIMED)."""
    started, count = time.monotonic(), 0
    while count < MIN_TIMED or time.monotonic() - started < seconds:
        run_once()
        count += 1


def end_to_end(workload: str, seed: int, seconds: float, pins: dict) -> dict:
    timed: list[dict] = []
    timed_loop(seconds, lambda: timed.append(spawn("timed", workload, seed)))
    memory = spawn("memory", workload, seed)
    second_seed = seed + SECOND_SEED
    while str(second_seed) in pins.get(workload, {}):
        second_seed += 1
    second = spawn("timed", workload, second_seed)

    errors = []
    for result in timed + [memory]:
        errors += verify(workload, seed, result, pins)
    errors += same_ttc(workload, seed, timed + [memory])
    errors += verify(workload, second_seed, second, pins)

    first = timed[0]
    pinned = str(seed) in pins.get(workload, {})
    print(f"{workload} seed {seed}: inputs sha256 {first['digest']}, "
          f"sim_ttc_s {first['sim_ttc_s']!r} "
          f"({'pinned' if pinned else 'no pin for this seed'})")
    metrics = {
        "units_per_s": (series(
            "units_per_s",
            [finished(r) / (r["run_s"] * r["ref_scale"]) for r in timed],
            [finished(r) / r["run_s"] for r in timed], "units/s"), "units/s"),
        "analyze_s": (series(
            "analyze_s",
            [t * scale for r in timed
             for t, scale in zip(r["analyze_samples"], r["analyze_scales"])],
            [t for r in timed for t in r["analyze_samples"]], "s"), "s"),
        "setup_s": (series(
            "setup_s", [r["setup_s"] * r["ref_scale"] for r in timed],
            [r["setup_s"] for r in timed], "s"), "s"),
        "run_peak_mb": (memory["run_peak_mb"], "MB"),
        "analyze_peak_mb": (memory["analyze_peak_mb"], "MB"),
    }
    print(f"  {'run_peak_mb':<24} {memory['run_peak_mb']:14.6g} MB")
    print(f"  {'analyze_peak_mb':<24} {memory['analyze_peak_mb']:14.6g} MB")
    print(f"  {'trace_error_s':<24} {first['analysis']['trace_error']:14.6g} s"
          "        (largest reconcile_with_breakdown delta; not gated)")
    attempted = sum(r["submitted"] for r in timed + [memory, second])
    failed = sum(not_done(r) for r in timed + [memory, second])
    print(f"  {'failed_share':<24} {failed / attempted:14.6g} ratio    "
          f"({failed} of {attempted} units not DONE)")
    print(f"second seed {second_seed}: inputs sha256 {second['digest']}, "
          f"sim_ttc_s {second['sim_ttc_s']!r}, "
          f"{'checks failed' if errors else 'all checks passed'}")
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


#: Per-layer metrics of a traced run: name -> unit.
LAYER_METRICS = {
    metric["name"]: metric["unit"] for metric in
    json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def layer_values(result: dict) -> dict:
    values = dict(result["layers"])
    values["trace.spool_bytes"] = result["spool_bytes"]
    for key in ("breakdown_s", "span_build_s", "critical_path_s",
                "events_read", "spans"):
        values[f"analysis.{key}"] = result["analysis"][key]
    values["analysis.trace_error"] = result["analysis"]["trace_error"]
    return values


def layer_checks(layers: dict) -> list[str]:
    """What is wrong with one traced run's layer report."""
    errors = []
    if layers["missing"]:
        errors.append(f"entry points not found: {layers['missing']}")
    if layers["eventsim.events"] != layers["events_processed"]:
        errors.append(f"eventsim.events {layers['eventsim.events']} != "
                      f"Simulator.events_processed "
                      f"{layers['events_processed']}")
    total = sum(value for key, value in layers.items()
                if key.endswith(".self_s")) + layers["unattributed_s"]
    wall = layers["traced_wall_s"]
    if abs(total - wall) > 1e-6 * wall:
        errors.append(f"layer self times add up to {total!r}, not the "
                      f"traced wall time {wall!r}")
    if not 0 <= layers["tracer_cost_s"] < wall:
        errors.append(f"estimated tracer cost {layers['tracer_cost_s']!r} "
                      f"is outside [0, {wall!r})")
    return errors


#: The layers of a traced run: those with a ``<layer>.net_s`` metric.
LAYERS = [key[:-len(".net_s")] for key in LAYER_METRICS
          if key.endswith(".net_s")]


def per_layer(workload: str, seed: int, seconds: float, pins: dict) -> dict:
    untraced: list[dict] = []
    traced: list[dict] = []
    spans_out = OUT / f"spans-{workload}.npz"

    def pair() -> None:
        untraced.append(spawn("timed", workload, seed))
        traced.append(spawn("traced", workload, seed,
                            spans_out=str(spans_out)))

    timed_loop(seconds, pair)

    errors = []
    for result in untraced + traced:
        errors += verify(workload, seed, result, pins)
    errors += same_ttc(workload, seed, untraced + traced)
    values = [layer_values(r) for r in traced]
    for v in values:
        errors += layer_checks(v)
    for key, unit in LAYER_METRICS.items():
        if unit in ("count", "ratio", "bytes", "sim_s") and \
                len({v[key] for v in values}) != 1:
            errors.append(f"{key} differs between same-seed traced runs: "
                          f"{sorted({v[key] for v in values})}")

    untraced_wall = statistics.median(r["run_s"] for r in untraced)
    metrics = {}
    print(f"{workload} seed {seed}: per-layer metrics of {len(traced)} "
          f"traced runs (medians; counts repeat exactly)")
    for key, unit in LAYER_METRICS.items():
        if key == "tracing_overhead_s":
            value = metrics["traced_wall_s"][0] - untraced_wall
        elif unit == "s":
            value = statistics.median(v[key] for v in values)
        else:  # a count, checked above to repeat exactly
            value = values[0][key]
        metrics[key] = (value, unit)
        print(f"  {key:<26} {value:14.6g} {unit}")
    print(f"  untraced wall {untraced_wall:.6g} s (median of "
          f"{len(untraced)}); tracing overhead "
          f"{metrics['tracing_overhead_s'][0] / untraced_wall:+.1%}")
    cost = values[-1]["span_cost"]
    print(f"  split of traced_wall_s, raw and net of the tracer cost "
          f"(per span {cost['inside_s'] * 1e9:.0f} + "
          f"{cost['outside_s'] * 1e9:.0f} ns, per counted call "
          f"{cost['pass_s'] * 1e9:.0f} ns):")
    wall = metrics["traced_wall_s"][0]
    net_total = sum(metrics[f"{layer}.net_s"][0] for layer in LAYERS)
    for layer in LAYERS:
        self_s = metrics[f"{layer}.self_s"][0]
        net_s = metrics[f"{layer}.net_s"][0]
        print(f"    {layer:<10} {self_s:9.4f} s {self_s / wall:6.1%}   "
              f"net {net_s:9.4f} s {net_s / net_total:6.1%}")
    print("  largest self times (span name, s, calls), last traced run:")
    for name, self_s, calls in values[-1]["top_self_s"]:
        print(f"    {self_s:10.4f} s {calls:>9}  {name}")
    print(f"  spans written to {spans_out.relative_to(ROOT)}")
    attempted = sum(r["submitted"] for r in untraced + traced)
    failed = sum(not_done(r) for r in untraced + traced)
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all in turn (metric names "
                             "then carry the workload as a prefix)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    # Terminated, stop the worker too: subprocess.run kills its child
    # when the wait for it is interrupted by an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    pins = json.loads(PINS.read_text())
    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    errors, attempted, failed, metrics = [], 0, 0, {}
    for name in names:
        try:
            outcome = measure(name, args.seed, args.seconds, pins)
        except CheckFailed as exc:
            outcome = {"errors": [str(exc)], "attempted": 1, "failed": 1,
                       "metrics": {}}
        errors += outcome["errors"]
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: {"value": value, "unit": unit}
                        for key, (value, unit) in outcome["metrics"].items()})
    for error in dict.fromkeys(errors):
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
