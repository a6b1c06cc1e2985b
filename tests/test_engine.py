from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from sbmod import solver
from sbmod.compose import compose_all, enabled_guard
from sbmod.dsl import GraphError, Model, NamedObject, parse_model
from sbmod.engine import (
    FIRST_MODEL,
    RANDOM_CELL,
    EventLog,
    ExecutionConfig,
    LogEntry,
    run,
    select_event,
)
from sbmod.formulas import FALSE, TRUE, Assignment, VarSet, conj, disj, evaluate, fraction_text, var_atom
from sbmod.graphs import ObjectGraph
from sbmod.runsets import CellRuns, CellSpace
from sbmod.solver import check_sat

VH = VarSet(("v", "h"))

EVENT_NAMES = {0: "WaterLow", 1: "AddHot", 2: "AddCold"}


def decode(log: EventLog) -> list[str]:
    return [EVENT_NAMES[int(e.assignment["x"])] for e in log.entries]


def test_select_event_first_drone_step(drone_base):
    declarations = [
        (FALSE, disj([var_atom("h", "<=", -20), var_atom("h", ">=", 20)])),
        (FALSE, disj([var_atom("v", "<=", -5), var_atom("v", ">=", 5)])),
        (conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)]), FALSE),
    ]
    a = select_event(declarations, VH)
    assert a is not None
    assert evaluate(conj([var_atom("v", ">=", 2), var_atom("v", "<", 5), var_atom("h", "==", 0)]), a)


def test_select_event_deadlock_when_nothing_requested():
    assert select_event([(FALSE, FALSE), (FALSE, TRUE)], VH) is None


def test_empty_model_deadlocks_immediately():
    model = Model(VH, ())
    log = run(model, ExecutionConfig(max_steps=5))
    assert log.entries == []
    assert log.stop_reason == "deadlock"


def test_water_tap_alternation(water_tap_model):
    log = run(water_tap_model, ExecutionConfig(max_steps=10))
    assert decode(log) == ["WaterLow", "AddHot", "AddCold", "AddHot", "AddCold", "AddHot", "AddCold"]
    assert log.stop_reason == "deadlock"


def test_every_step_satisfies_selection(drone_base, drone_property):
    # replay the log through the composite: each assignment must be enabled
    # at the composite state it was triggered in, and must follow one edge
    model = drone_base
    comp = compose_all(model)
    log = run(model, ExecutionConfig(max_steps=8))
    state = comp.initial
    for entry in log.entries:
        assert evaluate(enabled_guard(comp, state), entry.assignment)
        nxt = [e.dst for e in comp.out_edges(state) if evaluate(e.guard, entry.assignment)]
        assert len(nxt) <= 1
        state = nxt[0] if nxt else state


def test_drone_reaches_request_true_quickly(drone_base):
    comp = compose_all(drone_base)
    log = run(drone_base, ExecutionConfig(max_steps=5))
    state = comp.initial
    reached_at = None
    for entry in log.entries:
        nxt = [e.dst for e in comp.out_edges(state) if evaluate(e.guard, entry.assignment)]
        state = nxt[0] if nxt else state
        if comp.request[state] == TRUE:
            reached_at = entry.step
            break
    assert reached_at is not None and reached_at <= 3


def test_seed_determinism(water_tap_unstable_model):
    cfg = ExecutionConfig(max_steps=9, seed=123, policy=RANDOM_CELL)
    a = run(water_tap_unstable_model, cfg)
    b = run(water_tap_unstable_model, cfg)
    assert a.to_jsonl() == b.to_jsonl()
    assert a.to_jsonl()  # nonempty log


def test_random_cell_policy_varies_runs(water_tap_unstable_model):
    # without the stabilizer both taps are requested; different seeds should
    # reach different interleavings, unlike first-model
    logs = {
        run(water_tap_unstable_model, ExecutionConfig(max_steps=7, seed=s, policy=RANDOM_CELL)).to_jsonl()
        for s in range(8)
    }
    assert len(logs) > 1
    fixed = {
        run(water_tap_unstable_model, ExecutionConfig(max_steps=7, seed=s, policy=FIRST_MODEL)).to_jsonl()
        for s in range(8)
    }
    assert len(fixed) == 1


# two-variable atoms, whose cells the depth-first enumeration lists
TWO_VARIABLE_TEXT = """
model { vars x, y;
  object A { loop { sync(request = x + y >= 2 || x - y < 0 && y <= 3);
                    if (x + y >= 4) { sync(request = x >= 1 && y != 2 || x < -1); } } }
  object B { loop { sync(waitfor = x + y >= 2, block = x == 5); sync(waitfor = true, block = x - y >= 3); } }
}
"""

# every run ends, after two or three steps
ENDING_TEXT = """
model { vars x;
  object A { sync(request = x == 0 || x == 7); if (x >= 5) { sync(request = x < 3); sync(request = x >= 1); } else { sync(request = x == 2); } }
  object B { sync(waitfor = x <= 7); sync(waitfor = x <= 4); }
}
"""


def _branching_graphs() -> Model:
    """A graph beside a script, where witnesses drawn at one state tuple
    move the graph to different states."""
    x = VarSet(("x",))
    g = ObjectGraph.make(
        states=["a", "b", "c"], initial="a",
        request={"a": disj([var_atom("x", "==", 1), var_atom("x", "==", 4)]),
                 "b": disj([var_atom("x", "==", 0), var_atom("x", "==", 2)]),
                 "c": conj([var_atom("x", ">=", 4), var_atom("x", "<=", 8)])},
        block={"c": var_atom("x", "==", 5)},
        edges=[("a", var_atom("x", "<", 3), "b"), ("a", var_atom("x", ">=", 3), "c"),
               ("b", var_atom("x", "==", 0), "a"), ("b", var_atom("x", "==", 2), "c"),
               ("c", var_atom("x", ">=", 6), "a")],
    )
    script = parse_model("model { vars x; object S { loop { sync(waitfor = x >= 2); "
                         "if (x >= 6) { sync(block = x == 1, waitfor = x <= 2); } } } }").get("S")
    return Model(x, (NamedObject("G", g), NamedObject("S", script)))


@pytest.mark.parametrize("policy", [FIRST_MODEL, RANDOM_CELL])
def test_memoized_selection_matches_per_step_rebuild(policy, workloads, drone_model, water_tap_model):
    # run works each state tuple's selection and each (tuple, drawn witness)
    # move out once; ref_run selects and moves afresh on every step
    from oracles import WATER_TAP_TEXT, ref_run

    models = [parse_model(workloads.ring_text(5)), drone_model, water_tap_model,
              parse_model(WATER_TAP_TEXT), _branching_graphs(), parse_model(ENDING_TEXT),
              parse_model(workloads.wide_text(20)), parse_model(TWO_VARIABLE_TEXT)]
    stops = set()
    for m in models:
        for seed in range(3):
            log = run(m, ExecutionConfig(max_steps=200, seed=seed, policy=policy))
            ref = ref_run(m, 200, seed, policy)
            assert (log.to_jsonl(), log.stop_reason) == (ref.to_jsonl(), ref.stop_reason)
            stops.add(log.stop_reason)
    assert stops == {"max-steps", "deadlock", "ended"}


def test_random_cell_budget_counts_cells_not_atoms(monkeypatch):
    # 13 thresholds on one variable cut its line into 27 cells, well inside
    # the cell budget, so the picks spread instead of replaying one model
    X = VarSet(("x",))
    request = disj([var_atom("x", ">=", i) for i in range(1, 14)])
    picks = {select_event([(request, FALSE)], X, RANDOM_CELL, random.Random(s))["x"] for s in range(8)}
    assert len(picks) > 1
    assert all(p >= 1 for p in picks)
    # 40 thresholds on each of x and y: 41^2 = 1,681 cells, though their
    # line pieces number 81^2 = 6,561
    XY = VarSet(("x", "y"))
    request = disj([var_atom(v, ">=", i) for v in ("x", "y") for i in range(1, 41)])
    calls = []
    real = solver.check_sat
    monkeypatch.setattr(solver, "check_sat", lambda f, vars: calls.append(f) or real(f, vars))
    picks = {tuple(select_event([(request, FALSE)], XY, RANDOM_CELL, random.Random(s)).values.values())
             for s in range(8)}
    monkeypatch.undo()
    assert len(picks) > 1
    # each draw asks for the selection's model and the drawn cell's witness,
    # not for a witness of every one of the 1,681 cells
    assert len(calls) <= 2 * 8


def test_object_order_is_observationally_irrelevant(drone_base):
    reordered = Model(drone_base.vars, tuple(reversed(drone_base.objects)))
    a = run(drone_base, ExecutionConfig(max_steps=8))
    b = run(reordered, ExecutionConfig(max_steps=8))
    assert [e.assignment for e in a.entries] == [e.assignment for e in b.entries]
    assert [set(e.woke) for e in a.entries] == [set(e.woke) for e in b.entries]


def test_engine_runs_are_composite_paths(drone_base, water_tap_model):
    # forward half of the engine/graph agreement, over several seeds
    for model in (drone_base, water_tap_model):
        comp = compose_all(model)
        for seed in range(4):
            log = run(model, ExecutionConfig(max_steps=8, seed=seed, policy=RANDOM_CELL))
            state = comp.initial
            for entry in log.entries:
                assert evaluate(enabled_guard(comp, state), entry.assignment)
                nxt = [e.dst for e in comp.out_edges(state) if evaluate(e.guard, entry.assignment)]
                assert len(nxt) <= 1
                state = nxt[0] if nxt else state


def test_composite_paths_replay_in_engine(drone_base):
    # reverse half: a random enabled composite path concretizes into
    # assignments the engine could have produced; replaying them against the
    # scripts follows the same composite states (engine side of the
    # interpreter/graph correspondence)
    from sbmod.dsl import initial_state, step_script
    from sbmod.extract import state_name
    from sbmod.compose import JOIN

    comp = compose_all(drone_base)
    rng = random.Random(17)
    scripts = [o.item for o in drone_base.objects]
    for _ in range(60):
        state = comp.initial
        object_states = [initial_state(s) for s in scripts]
        for _ in range(6):
            options = [e for e in comp.out_edges(state)
                       if check_sat(conj([e.guard, enabled_guard(comp, state)]), VH) is not None]
            if not options:
                break
            edge = options[rng.randrange(len(options))]
            a = check_sat(conj([edge.guard, enabled_guard(comp, state)]), VH).restricted_to(VH)
            object_states = [step_script(t, s, a) for t, s in zip(scripts, object_states)]
            state = edge.dst
            assert state == JOIN.join(state_name(s) for s in object_states)


def test_engine_refuses_overlapping_guards_like_run_sets():
    # every event the object requests meets both out-edges of ``a``
    x = VarSet(("x",))
    g = ObjectGraph.make(
        states=["a", "b", "c"], initial="a",
        request={"a": var_atom("x", ">=", 5)},
        edges=[("a", var_atom("x", ">=", 0), "b"), ("a", var_atom("x", ">=", 5), "c")],
    )
    with pytest.raises(GraphError, match="overlap"):
        run(Model(x, (NamedObject("G", g),)), ExecutionConfig(max_steps=3))
    with pytest.raises(GraphError, match="overlap"):
        CellRuns.build(g, CellSpace.for_graphs([g], x))


def test_jsonl_format(water_tap_model):
    log = run(water_tap_model, ExecutionConfig(max_steps=2))
    lines = [json.loads(line) for line in log.to_jsonl().splitlines()]
    assert lines[0]["step"] == 1
    assert lines[0]["assignment"] == {"x": "0"}
    assert "woke" in lines[0]


def reference_jsonl(log: EventLog) -> str:
    """The log written one ``json.dumps`` per entry."""
    return "".join(json.dumps({
        "step": e.step,
        "assignment": {v: fraction_text(e.assignment.values[v]) for v in sorted(e.assignment.values)},
        "woke": list(e.woke),
    }, sort_keys=True) + "\n" for e in log.entries)


@pytest.mark.parametrize("policy", [FIRST_MODEL, RANDOM_CELL])
def test_jsonl_matches_one_dump_per_entry(policy, workloads, drone_text):
    texts = [workloads.ring_text(5), workloads.wide_text(7), drone_text, workloads.wide_text(80)]
    for text in texts:
        for seed in (1, 2):
            log = run(parse_model(text), ExecutionConfig(max_steps=500, seed=seed, policy=policy))
            assert log.to_jsonl() == reference_jsonl(log)


def test_jsonl_of_a_hand_built_log():
    shared = Assignment({"y": Fraction(-3, 4), "x": Fraction(10**30)})
    twin = Assignment({"x": Fraction(1, 3), "y": Fraction(0)})
    log = EventLog()
    assert log.to_jsonl() == ""
    # one assignment object with two woke tuples, and two distinct but equal
    # assignments, interleaved
    for step, (a, woke) in enumerate([(shared, ("A",)), (shared, ()), (twin, ("A", "B")),
                                      (Assignment(dict(twin.values)), ("A", "B")), (shared, ("A",)),
                                      (twin, ())], start=1):
        log.entries.append(LogEntry(step, a, woke))
    text = log.to_jsonl()
    assert text == reference_jsonl(log)
    assert text.splitlines()[:2] == [
        '{"assignment": {"x": "1000000000000000000000000000000", "y": "-3/4"}, "step": 1, "woke": ["A"]}',
        '{"assignment": {"x": "1000000000000000000000000000000", "y": "-3/4"}, "step": 2, "woke": []}',
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        ExecutionConfig(max_steps=0)
    with pytest.raises(ValueError):
        ExecutionConfig(max_steps=1, policy="chaotic")
