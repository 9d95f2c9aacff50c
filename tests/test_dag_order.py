"""Submission order, cycle rejection and failure poisoning of the DAG
baseline, each stated as a literal expectation."""

from __future__ import annotations

import pytest

from repro.baselines.dag import DAGWorkflow
from repro.core.kernel_plugin import Kernel
from repro.exceptions import PatternError


def sleep(duration=10.0):
    def factory():
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = [f"--duration={duration}"]
        return kernel

    return factory


def missing_input():
    kernel = Kernel(name="misc.ccount")
    kernel.arguments = ["--inputfile=missing.txt", "--outputfile=o.txt"]
    return kernel


def diamond_plus_lone() -> DAGWorkflow:
    dag = DAGWorkflow()
    dag.add_task("fetch", sleep())
    dag.add_task("left", sleep(), depends_on=["fetch"])
    dag.add_task("right", sleep(30.0), depends_on=["fetch", "fetch"])
    dag.add_task("lone", sleep(20.0))
    dag.add_task("join", sleep(), depends_on=["right", "left"])
    return dag


def test_successors_are_explicit_and_in_declaration_order() -> None:
    assert diamond_plus_lone().successors() == {
        "fetch": ["left", "right"],
        "left": ["join"],
        "right": ["join"],
        "lone": [],
        "join": [],
    }


def test_submission_order_is_explicit_and_deterministic(
    sim_handle_factory,
) -> None:
    orders = []
    for _ in range(2):
        dag = diamond_plus_lone()
        sim_handle_factory().run(dag)
        orders.append([u.description.tags["dag_task"] for u in dag.units])
    assert orders[0] == orders[1]
    assert orders[0] == ["fetch", "lone", "left", "right", "join"]


@pytest.mark.parametrize(
    ("edges", "reported"),
    [
        ({"a": ["c"], "b": ["a"], "c": ["b"]},
         "[('a', 'b'), ('b', 'c'), ('c', 'a')]"),
        ({"a": ["a"]}, "[('a', 'a')]"),
    ],
)
def test_cycle_is_rejected_with_its_edges(edges, reported) -> None:
    dag = DAGWorkflow()
    dag.add_task("root", sleep())
    for name, depends_on in edges.items():
        dag.add_task(name, sleep(), depends_on=depends_on)
    with pytest.raises(PatternError) as info:
        dag.validate()
    assert str(info.value) == f"workflow graph has a cycle: {reported}"


def test_failed_parent_poisons_its_descendants(local_handle) -> None:
    dag = DAGWorkflow()
    dag.add_task("bad", missing_input)
    dag.add_task("ok", sleep(0.0))
    dag.add_task("child", sleep(0.0), depends_on=["bad"])
    dag.add_task("grandchild", sleep(0.0), depends_on=["child", "ok"])
    dag.add_task("sibling", sleep(0.0), depends_on=["ok"])
    with pytest.raises(PatternError, match="1 task"):
        local_handle.run(dag)
    assert sorted(u.description.tags["dag_task"] for u in dag.units) == [
        "bad", "ok", "sibling",
    ]
