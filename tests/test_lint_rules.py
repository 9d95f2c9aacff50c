"""Rule-family tests for repro.lint: true positives, false-positive guards,
inline suppression, and the seeded illegal-transition acceptance case.

Fixture code lives in strings (never on disk as importable modules), so the
linter's own CI run over ``tests/`` does not trip on the deliberate bugs.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_source


def _ids(source: str, select=None) -> list[str]:
    return [f.rule_id for f in lint_source(textwrap.dedent(source), select=select)]


# -- DET001: wall clock -------------------------------------------------------


def test_det001_flags_time_time():
    assert "DET001" in _ids(
        """
        import time
        def stamp():
            return time.time()
        """
    )


def test_det001_flags_datetime_now_from_import():
    assert "DET001" in _ids(
        """
        from datetime import datetime
        def stamp():
            return datetime.now()
        """
    )


def test_det001_ignores_injected_clock():
    assert _ids(
        """
        def stamp(clock):
            return clock.now()
        """
    ) == []


def test_det001_noqa_suppression():
    assert _ids(
        """
        import time
        def stamp():
            return time.time()  # repro: noqa[DET001]
        """
    ) == []


def test_noqa_with_wrong_id_does_not_suppress():
    assert "DET001" in _ids(
        """
        import time
        def stamp():
            return time.time()  # repro: noqa[DET004]
        """
    )


def test_bare_noqa_suppresses_everything_on_the_line():
    assert _ids(
        """
        import time
        def stamp():
            return time.time()  # repro: noqa
        """
    ) == []


# -- DET002: global RNG state -------------------------------------------------


def test_det002_flags_stdlib_random():
    ids = _ids(
        """
        import random
        def draw():
            random.seed(1)
            return random.random()
        """
    )
    assert ids.count("DET002") == 2


def test_det002_flags_numpy_global_under_alias():
    assert "DET002" in _ids(
        """
        import numpy as np
        def draw():
            return np.random.rand(3)
        """
    )


def test_det002_allows_seeded_generators():
    assert _ids(
        """
        import random
        import numpy as np
        def make():
            a = random.Random(7)
            b = np.random.default_rng(7)
            return a, b
        """
    ) == []


def test_det002_ignores_draws_on_generator_instances():
    assert _ids(
        """
        def draw(rng):
            return rng.normal()
        """
    ) == []


# -- DET003: OS entropy -------------------------------------------------------


def test_det003_flags_uuid4_and_urandom():
    ids = _ids(
        """
        import os
        import uuid
        def fresh():
            return uuid.uuid4(), os.urandom(8)
        """
    )
    assert ids.count("DET003") == 2


def test_det003_allows_deterministic_uuid5():
    assert _ids(
        """
        import uuid
        def name_id(ns, name):
            return uuid.uuid5(ns, name)
        """
    ) == []


# -- DET004: hash-order iteration --------------------------------------------


def test_det004_flags_for_over_set_call():
    assert "DET004" in _ids(
        """
        def walk(items):
            for i in set(items):
                yield i
        """
    )


def test_det004_flags_set_literal_in_comprehension_and_list():
    ids = _ids(
        """
        def walk():
            a = [i for i in {3, 1, 2}]
            b = list({3, 1, 2})
            return a, b
        """
    )
    assert ids.count("DET004") == 2


def test_det004_allows_sorted_wrapping():
    assert _ids(
        """
        def walk(items):
            for i in sorted(set(items)):
                yield i
        """
    ) == []


def test_det004_allows_membership_and_dict_iteration():
    assert _ids(
        """
        def use(routing, wide):
            hits = [k for k in routing.values() if k in set(wide)]
            return hits
        """
    ) == []


# -- DC001: dataclass field discipline ----------------------------------------


def test_dc001_flags_undeclared_attribute():
    findings = lint_source(
        textwrap.dedent(
            """
            from dataclasses import dataclass

            @dataclass
            class FaultModel:
                rate: float = 0.0
                def seed(self, rng):
                    self._rng = rng
            """
        )
    )
    assert [f.rule_id for f in findings] == ["DC001"]
    assert "_rng" in findings[0].message


def test_dc001_reports_each_attribute_once():
    ids = _ids(
        """
        from dataclasses import dataclass

        @dataclass
        class Model:
            def a(self):
                self.cache = {}
            def b(self):
                self.cache = {}
        """
    )
    assert ids.count("DC001") == 1


def test_dc001_allows_declared_fields_and_post_init():
    assert _ids(
        """
        from dataclasses import dataclass, field

        @dataclass
        class Model:
            rate: float = 0.0
            _rng: object = field(init=False, default=None)
            def __post_init__(self):
                self._rng = object()
                self.rate = 2 * self.rate
        """
    ) == []


def test_dc001_ignores_plain_classes():
    assert _ids(
        """
        class Plain:
            def __init__(self):
                self.anything = 1
        """
    ) == []


# -- SM rules -----------------------------------------------------------------


def test_sm001_flags_unknown_member():
    assert "SM001" in _ids(
        """
        from repro.pilot.states import PilotState
        def go(pilot):
            pilot.advance(PilotState.RUNNING_TYPO)
        """
    )


def test_sm002_flags_seeded_illegal_transition():
    # The acceptance-criteria case: an injected illegal PilotState edge.
    findings = lint_source(
        textwrap.dedent(
            """
            from repro.pilot.states import PilotState
            def go(pilot):
                pilot.advance(PilotState.ACTIVE)
                pilot.advance(PilotState.NEW)
            """
        )
    )
    assert [f.rule_id for f in findings] == ["SM002"]
    assert "ACTIVE -> NEW" in findings[0].message


def test_sm002_flags_advance_out_of_final_state_under_guard():
    assert "SM002" in _ids(
        """
        from repro.pilot.states import UnitState
        def go(unit):
            if unit.state is UnitState.DONE:
                unit.advance(UnitState.EXECUTING)
        """
    )


def test_sm002_allows_legal_chain_and_requeue_edge():
    assert _ids(
        """
        from repro.pilot.states import PilotState, UnitState
        def go(pilot, unit):
            pilot.advance(PilotState.PENDING)
            pilot.advance(PilotState.ACTIVE)
            if unit.state is UnitState.EXECUTING:
                unit.advance(UnitState.UMGR_SCHEDULING)
        """
    ) == []


def test_sm002_helper_call_between_advances_clears_knowledge():
    # `handoff(pilot)` may transition the pilot elsewhere; no false positive.
    assert _ids(
        """
        from repro.pilot.states import PilotState
        def go(pilot, handoff):
            pilot.advance(PilotState.PENDING)
            handoff(pilot)
            pilot.advance(PilotState.PENDING)
        """
    ) == []


def test_sm002_else_branch_does_not_inherit_guard_state():
    assert _ids(
        """
        from repro.pilot.states import PilotState
        def go(pilot):
            if pilot.state is PilotState.ACTIVE:
                pass
            else:
                pilot.advance(PilotState.ACTIVE)
        """
    ) == []


def test_sm002_tracks_advance_many_on_its_batch():
    findings = lint_source(
        textwrap.dedent(
            """
            from repro.pilot.states import UnitState
            def go(store, units):
                store.advance_many(units, UnitState.DONE)
                store.advance_many(units, UnitState.EXECUTING)
            """
        )
    )
    assert [f.rule_id for f in findings] == ["SM002"]
    assert "DONE -> EXECUTING" in findings[0].message


def test_sm002_allows_legal_advance_many_chain():
    assert _ids(
        """
        from repro.pilot.states import UnitState
        def go(store, units):
            store.advance_many(units, UnitState.AGENT_STAGING_OUTPUT)
            store.advance_many(units, UnitState.DONE)
        """
    ) == []


def test_sm003_flags_direct_state_assignment():
    assert "SM003" in _ids(
        """
        from repro.pilot.states import UnitState
        def finish(unit):
            unit._state = UnitState.DONE
        """
    )


def test_sm003_allows_init_and_advance():
    assert _ids(
        """
        from repro.pilot.states import UnitState
        class Unit:
            def __init__(self):
                self._state = UnitState.NEW
            def advance(self, target):
                self._state = target
        """
    ) == []


def test_sm004_reports_unproduced_states(tmp_path):
    from repro.lint import LintConfig, lint_paths

    # A scan that includes the defining module but produces only PENDING.
    states = tmp_path / "pilot" / "states.py"
    states.parent.mkdir()
    states.write_text("'''edge tables live here in the real tree'''\n")
    producer = tmp_path / "manager.py"
    producer.write_text(
        textwrap.dedent(
            """
            from repro.pilot.states import PilotState
            def submit(pilot):
                pilot.advance(PilotState.PENDING)
            """
        )
    )
    result = lint_paths([tmp_path], LintConfig(root=tmp_path))
    sm004 = [f for f in result.findings if f.rule_id == "SM004"]
    missing = {f.message.split()[0] for f in sm004}
    assert missing == {
        "PilotState.ACTIVE",
        "PilotState.DONE",
        "PilotState.FAILED",
        "PilotState.CANCELED",
    }
    assert all(f.file.endswith("pilot/states.py") for f in sm004)


def test_sm004_counts_advance_many_as_a_producer(tmp_path):
    from repro.lint import LintConfig, lint_paths

    states = tmp_path / "pilot" / "states.py"
    states.parent.mkdir()
    states.write_text("# edge tables live here in the real tree\n")
    producer = tmp_path / "manager.py"
    producer.write_text(
        textwrap.dedent(
            """
            from repro.pilot.states import PilotState
            def submit(pilot, store, pilots):
                pilot.advance(PilotState.PENDING)
                store.advance_many(pilots, PilotState.ACTIVE)
            """
        )
    )
    result = lint_paths([tmp_path], LintConfig(root=tmp_path))
    missing = {
        f.message.split()[0] for f in result.findings if f.rule_id == "SM004"
    }
    assert missing == {
        "PilotState.DONE", "PilotState.FAILED", "PilotState.CANCELED",
    }


def test_sm004_silent_when_defining_module_not_scanned(tmp_path):
    from repro.lint import LintConfig, lint_paths

    producer = tmp_path / "manager.py"
    producer.write_text(
        "from repro.pilot.states import PilotState\n"
        "def submit(pilot):\n"
        "    pilot.advance(PilotState.PENDING)\n"
    )
    result = lint_paths([tmp_path], LintConfig(root=tmp_path))
    assert [f for f in result.findings if f.rule_id == "SM004"] == []


# -- EVT rules ----------------------------------------------------------------


def test_evt001_flags_unbound_loop_capture():
    findings = lint_source(
        textwrap.dedent(
            """
            def arm(sim, nodes):
                for node in nodes:
                    sim.schedule(1.0, lambda: fail(node))
            """
        )
    )
    assert [f.rule_id for f in findings] == ["EVT001"]
    assert "'node'" in findings[0].message


def test_evt001_allows_default_binding():
    assert _ids(
        """
        def arm(sim, nodes):
            for node in nodes:
                sim.schedule(1.0, lambda n=node: fail(n))
        """
    ) == []


def test_evt001_ignores_lambda_outside_loops():
    assert _ids(
        """
        def arm(sim, node):
            sim.schedule(1.0, lambda: fail(node))
        """
    ) == []


def test_evt001_flags_comprehension_capture():
    assert "EVT001" in _ids(
        """
        def arm(sim, nodes):
            return [sim.schedule(1.0, lambda: fail(n)) for n in nodes]
        """
    )


def test_evt002_flags_mutable_default():
    assert "EVT002" in _ids(
        """
        def on_event(event, seen=[]):
            seen.append(event)
            return seen
        """
    )


def test_evt002_allows_none_default():
    assert _ids(
        """
        def on_event(event, seen=None):
            seen = [] if seen is None else seen
            seen.append(event)
            return seen
        """
    ) == []


# -- selection ----------------------------------------------------------------


@pytest.mark.parametrize("select,expected", [
    (["DET"], {"DET001", "DET002"}),
    (["DET001"], {"DET001"}),
    (["EVT"], set()),
])
def test_family_and_exact_selection(select, expected):
    source = """
        import time
        import random
        def f():
            return time.time(), random.random()
        """
    assert set(_ids(source, select=select)) == expected
