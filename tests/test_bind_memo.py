"""Pattern drivers bind each kernel shape once per submitted batch.

Every unit's description must equal what a fresh ``Kernel.bind`` of its
own kernel gives, field by field, although most of them are copies of
another unit's description.  Only the payload and duration-model
closures may be shared; no list or dict may be.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import EnsembleOfPipelines
from repro.core.resource_handle import ResourceHandle
from repro.pilot.states import UnitState
from repro.utils.ids import reset_id_counters

CLOSURES = {"payload", "duration_model"}
MUTABLE = ("arguments", "environment", "input_staging", "output_staging",
           "tags")


def shaped_kernel(stage: int, instance: int) -> Kernel:
    """Twelve pipelines in six shapes; each shape differs from shape 0 in
    one input of ``Kernel.bind``."""
    shape = instance % 6
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={10 * stage}"]
    kernel.tags = {"shape": shape}
    if shape == 1:
        kernel.arguments = [f"--duration={10 * stage + 5}"]
    elif shape == 2:
        kernel.cores = 2
    elif shape == 3:
        kernel.uses_mpi = True
    elif shape == 4:
        kernel.environment = {"OMP_NUM_THREADS": "2"}
    elif shape == 5:
        kernel.data_size = 4096
    if stage == 2:
        # Resolves per pipeline, so it never repeats across pipelines.
        kernel.link_input_data = ["$STAGE_1/out.dat > in.dat"]
    kernel.copy_output_data = ["out.dat"]
    return kernel


class Shapes(EnsembleOfPipelines):
    def __init__(self) -> None:
        super().__init__(ensemble_size=12, pipeline_size=2)
        self.kernels: dict[tuple[int, int], Kernel] = {}

    def stage(self, stage_number: int, instance: int) -> Kernel:
        kernel = shaped_kernel(stage_number, instance)
        self.kernels[stage_number, instance] = kernel
        return kernel


def run(bulk: bool, monkeypatch):
    """Resource, platform, the finished pattern and the number of binds."""
    binds = []
    bind = Kernel.bind

    def counting_bind(self, resource, platform):
        binds.append(self)
        return bind(self, resource, platform)

    monkeypatch.setattr(Kernel, "bind", counting_bind)
    reset_id_counters()
    handle = ResourceHandle("xsede.comet", cores=48, walltime=60, mode="sim",
                            bulk_lifecycle=bulk)
    handle.allocate()
    pattern = Shapes()
    platform = handle.platform
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    monkeypatch.setattr(Kernel, "bind", bind)
    return handle.resource, platform, pattern, len(binds)


@pytest.mark.parametrize("bulk", [False, True], ids=["classic", "bulk"])
def test_memoised_descriptions_equal_fresh_binds(bulk, monkeypatch):
    resource, platform, pattern, binds = run(bulk, monkeypatch)
    units = pattern.units
    assert len(units) == 24
    assert all(u.state is UnitState.DONE for u in units)
    # Stage 1 is one batch of six shapes.  Stage 2 resolves $STAGE_1 to
    # a different sandbox in every pipeline, so each of its units binds.
    assert binds == 6 + 12
    for unit in units:
        tags = unit.description.tags
        kernel = pattern.kernels[tags["stage"], tags["instance"]]
        fresh = kernel.bind(resource, platform)
        for f in fields(fresh):
            if f.name in CLOSURES or f.name == "tags":
                continue
            assert getattr(unit.description, f.name) == getattr(fresh, f.name), (
                unit.uid, f.name)
        assert tags == {**fresh.tags, "stage": tags["stage"],
                        "instance": tags["instance"], "pattern": pattern.uid}
        assert (unit.description.modelled_runtime(platform)
                == fresh.modelled_runtime(platform))
    staged = [u for u in units if u.description.tags["stage"] == 2]
    sources = {u.description.input_staging[0].source for u in staged}
    assert sources == {
        f"$UNIT_{u.uid}/out.dat" for u in units
        if u.description.tags["stage"] == 1
    }


@pytest.mark.parametrize("bulk", [False, True], ids=["classic", "bulk"])
def test_units_of_one_shape_share_no_list_or_dict(bulk, monkeypatch):
    _, _, pattern, _ = run(bulk, monkeypatch)
    stage_1 = [u for u in pattern.units if u.description.tags["stage"] == 1]
    same_shape = [u for u in stage_1 if u.description.tags["shape"] == 0]
    assert len(same_shape) == 2
    first, second = (u.description for u in same_shape)
    assert first.payload is second.payload
    for name in MUTABLE:
        assert getattr(first, name) is not getattr(second, name), name
    ids = [id(getattr(u.description, name))
           for u in pattern.units for name in MUTABLE]
    assert len(set(ids)) == len(ids)
