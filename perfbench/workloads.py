"""The benchmark's workloads: inputs generated from a seed, and one run.

Each workload is a function of its seed alone.  :func:`make_inputs`
returns the whole input as plain data, so its digest shows that two
versions of the program received identical inputs; :func:`make_handle`
and :func:`make_pattern` turn that data into a resource handle and a
pattern, and pass the program nothing else.

Sizes are chosen so that one simulated run takes one to two seconds of
host time on a 2-core x86 VM, which lets one measured run of the
benchmark hold a dozen fresh processes per workload.
"""

from __future__ import annotations

import hashlib
import json
import random

#: The retry policy the golden-hash determinism tests pin.
RETRY = dict(max_attempts=8, backoff_base=2.0, backoff_factor=2.0,
             backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False)


def make_inputs(name: str, seed: int, small: bool = False) -> dict:
    """Every input of one run of *name*, generated from *seed*.

    ``small`` shrinks the run two- to twentyfold, for the self-test.
    """
    if name == "eop_bulk":
        return {
            "workload": name, "seed": seed,
            "resource": "ncsa.bluewaters", "cores": 10_016,
            "pattern": "eop", "pipelines": 500 if small else 10_000,
            "durations": [40, 20],
            "handle": {"bulk_lifecycle": True}, "spooled": True,
        }
    if name == "mpi_backfill":
        # Widths 1..32 cores and durations 5..17 s in one fixed, well
        # mixed order, rotated by offsets drawn from the seed: every seed
        # gets the same tasks, so seeds differ in order but hardly in
        # scheduling work (a full shuffle moves it by +-8%).
        rng = random.Random(seed)
        tasks = 256 if small else 1024
        shift_w, shift_d = rng.randrange(tasks), rng.randrange(tasks)
        widths = [1 + (7 * (i + shift_w)) % 32 for i in range(tasks)]
        durations = [5 + (i + shift_d) % 13 for i in range(tasks)]
        return {
            "workload": name, "seed": seed,
            "resource": "xsede.stampede", "cores": 4096,
            "pattern": "bag", "widths": widths, "durations": durations,
            "handle": {"slot_strategy": "contiguous",
                       "agent_policy": "backfill"},
            "spooled": False,
        }
    if name == "sal_faults":
        return {
            "workload": name, "seed": seed,
            "resource": "xsede.comet", "cores": 512 if small else 1024,
            "pattern": "sal", "iterations": 2,
            "simulations": 512 if small else 1024,
            "analyses": 32 if small else 64,
            "durations": [100, 20],
            "handle": {"node_mtbf": 1800.0, "node_repair_time": 120.0,
                       "retry": RETRY},
            "spooled": False,
        }
    raise KeyError(f"unknown workload {name!r}")


def digest(inputs: dict) -> str:
    """sha256 of the canonical JSON form of *inputs*."""
    payload = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def unit_count(inputs: dict) -> int:
    """Units the pattern of *inputs* submits (retries excluded)."""
    if inputs["pattern"] == "eop":
        return inputs["pipelines"] * len(inputs["durations"])
    if inputs["pattern"] == "bag":
        return len(inputs["widths"])
    return inputs["iterations"] * (inputs["simulations"] + inputs["analyses"])


def _sleep(duration, cores=1):
    from repro.core.kernel_plugin import Kernel

    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    kernel.cores = cores
    return kernel


def make_pattern(inputs: dict):
    """The execution pattern of *inputs*."""
    from repro.core.patterns import (
        BagOfTasks,
        EnsembleOfPipelines,
        SimulationAnalysisLoop,
    )

    kind = inputs["pattern"]
    if kind == "eop":
        durations = inputs["durations"]

        class Pipelines(EnsembleOfPipelines):
            def stage(self, stage_number, instance):
                return _sleep(durations[stage_number - 1])

        return Pipelines(ensemble_size=inputs["pipelines"],
                         pipeline_size=len(durations))
    if kind == "bag":
        widths, durations = inputs["widths"], inputs["durations"]

        class MixedBag(BagOfTasks):
            def task(self, instance):
                return _sleep(durations[instance - 1], widths[instance - 1])

        return MixedBag(size=len(widths))
    simulation, analysis = inputs["durations"]

    class Loop(SimulationAnalysisLoop):
        def simulation_stage(self, iteration, instance):
            return _sleep(simulation)

        def analysis_stage(self, iteration, instance):
            return _sleep(analysis)

    return Loop(iterations=inputs["iterations"],
                simulation_instances=inputs["simulations"],
                analysis_instances=inputs["analyses"])


def make_handle(inputs: dict, spool_dir=None):
    """An unallocated resource handle for *inputs*."""
    from repro.core.resource_handle import ResourceHandle
    from repro.pilot.retry import RetryPolicy

    options = dict(inputs["handle"])
    retry = options.pop("retry", None)
    if retry is not None:
        options["retry_policy"] = RetryPolicy(**retry)
    return ResourceHandle(
        inputs["resource"], cores=inputs["cores"], walltime=24 * 60,
        mode="sim", seed=inputs["seed"],
        spool_dir=spool_dir if inputs["spooled"] else None, **options,
    )
