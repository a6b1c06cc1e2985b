"""Acceptance criteria, one test per criterion, with exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Everything here is exact: rational arithmetic throughout, solver
equivalence where formulas may differ syntactically, set equality on the
exact sign-cell alphabet for run sets.
"""

from __future__ import annotations

import random

from sbmod.compose import compose, compose_all
from sbmod.dsl import initial_state, insert_object, parse_model, step_script
from sbmod.engine import ExecutionConfig, run
from sbmod.extract import (
    ExtractStats,
    extract_graph,
    simplify_graph,
    state_name,
)
from sbmod.formulas import (
    TRUE,
    VarSet,
    conj,
    disj,
    evaluate,
    var_atom,
)
from sbmod.graphs import ObjectGraph, materialized_edges
from sbmod.runsets import CellRuns, CellSpace
from sbmod.solver import check_sat, equivalent
from sbmod.verify import (
    Counterexample,
    Safe,
    check_safety,
    find_deadlocks,
    repair,
)

from oracles import (
    accepts,
    doomed_states,
    fourier_motzkin_satisfiable,
    isomorphic,
    rand_assignment,
    rand_atom_pool,
    rand_conjunction,
    rand_formula,
    runs_equal_minus_violations,
)

VH = VarSet(("v", "h"))


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_predicate_collection(drone_model):
    nav = drone_model.get("Navigate")
    preds = nav.predicates
    assert len(preds) == 5
    expected = [
        var_atom("v", ">=", 2).atom,
        var_atom("h", "==", 0).atom,
        var_atom("h", ">=", 10).atom,
        var_atom("v", "==", 0).atom,
        var_atom("h", "<", 0).atom,
    ]
    for a in expected:
        assert a.polarity_rep() in preds
    stats = ExtractStats()
    extract_graph(nav, VH, stats=stats)
    assert set(stats.cells_per_state.values()) == {32}
    assert len(stats.cells_per_state) == len(extract_graph(nav, VH).states)
    report(1, "|P| = 5 with the expected predicates; 32 sign cells per state")


def expected_navigate_graph() -> ObjectGraph:
    climb = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    turn = var_atom("h", ">=", 10)
    shallow = var_atom("h", "<", 10)
    return ObjectGraph.make(
        states=["A", "B", "C", "D"],
        initial="A",
        request={"A": climb, "B": turn, "C": turn, "D": TRUE},
        block={
            "B": disj([var_atom("v", "!=", 0), var_atom("h", "<", 0)]),
            "C": disj([shallow, var_atom("v", "!=", 0)]),
        },
        waitfor={"B": shallow},
        edges=[("A", climb, "B"), ("B", shallow, "C"), ("B", turn, "D"),
               ("C", turn, "D"), ("D", TRUE, "D")],
    )


def test_criterion_2_extraction_shape(drone_model):
    g = simplify_graph(extract_graph(drone_model.get("Navigate"), VH), VH)
    expected = expected_navigate_graph()
    assert len(g.states) == 4
    assert isomorphic(g, expected, VH)
    report(2, "Navigate extracts to its 4-state graph with the documented guards")


def expected_composite() -> ObjectGraph:
    limits = disj([
        var_atom("h", "<=", -20), var_atom("h", ">=", 20),
        var_atom("v", "<=", -5), var_atom("v", ">=", 5),
    ])
    climb = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    turn_block = disj([var_atom("v", "!=", 0), var_atom("h", "<", 0), limits])
    forced_block = disj([var_atom("h", "<", 10), var_atom("v", "!=", 0), limits])
    gentle = conj([var_atom("v", ">=", 2), var_atom("v", "<", 4), var_atom("h", "==", 0)])
    sharp = conj([var_atom("v", ">=", 4), var_atom("h", "==", 0)])
    h10 = var_atom("h", ">=", 10)
    medium = conj([h10, var_atom("h", "<", 18)])
    return ObjectGraph.make(
        states=["q1", "q2", "q3", "q4", "q5", "q6"],
        initial="q1",
        request={"q1": climb, "q2": h10, "q3": h10, "q4": TRUE, "q5": h10, "q6": TRUE},
        block={"q1": limits, "q2": turn_block, "q3": forced_block, "q4": limits,
               "q5": turn_block, "q6": limits},
        waitfor={"q1": climb, "q2": TRUE, "q3": h10, "q5": TRUE},
        edges=[
            ("q1", gentle, "q2"), ("q1", sharp, "q5"),
            ("q2", var_atom("h", "<", 10), "q3"), ("q2", h10, "q4"),
            ("q3", h10, "q4"),
            ("q5", var_atom("h", "<", 10), "q3"), ("q5", medium, "q4"),
            ("q5", var_atom("h", ">=", 18), "q6"),
            ("q4", TRUE, "q4"), ("q6", TRUE, "q6"),
        ],
        bad=["q6"],
    )


def test_criterion_3_composition_shape(drone_model):
    comp = compose_all(drone_model)
    assert len(comp.states) == 6
    assert isomorphic(comp, expected_composite(), VH)
    report(3, "drone x property composite has exactly the expected 6 states")


def test_criterion_4_counterexample(drone_base, drone_property):
    result = check_safety(drone_base, drone_property)
    assert isinstance(result, Counterexample)
    assert len(result.trace.steps) == 2
    step1 = conj([var_atom("v", ">=", 4), var_atom("h", "==", 0), var_atom("v", "<", 5)])
    step2 = conj([var_atom("h", ">=", 18), var_atom("h", "<", 20), var_atom("v", "==", 0)])
    a1, a2 = (s.assignment for s in result.trace.steps)
    assert evaluate(step1, a1) and evaluate(step2, a2)
    # the reported path is the sharp-climb, sharp-turn chain
    comp = result.composite
    assert result.trace.steps[0].state == comp.initial
    assert result.trace.end_state in comp.bad
    report(4, "shortest counterexample has length 2 with the stated assignments")


def test_criterion_5_repair(drone_text, drone_base, drone_property):
    patch, attractor, comp = repair(drone_base, drone_property)
    (bad,) = comp.bad
    assert attractor == frozenset({bad})

    # exactly one edge is cut: the sharp-turn guard out of the armed state
    cuts = patch.cut_edges()
    assert len(cuts) == 1
    cut_state, cut_guard = cuts[0]
    assert cut_guard == var_atom("h", ">=", 18)
    cut_edges = [e for e in comp.edges if e.src == cut_state and e.dst == bad]
    assert len(cut_edges) == 1
    assert equivalent(cut_edges[0].guard, cut_guard, VH)
    assert all(e.src in (cut_state, bad) for e in comp.edges if e.dst == bad)

    # the emitted patch, re-parsed and composed, makes the model safe
    patched_text = insert_object(drone_text, patch.to_script_text())
    patched_model = parse_model(patched_text)
    prop = patched_model.get("NoConsecutiveSharpTurns")
    base = patched_model.without("NoConsecutiveSharpTurns")
    assert isinstance(check_safety(base, prop), Safe)

    # no deadlocks introduced
    patched_comp = compose(comp, patch.tracker, VH)
    assert find_deadlocks(patched_comp, VH) <= find_deadlocks(comp, VH)

    # exact run-set equality over the sign-cell alphabet, for every depth
    space = CellSpace.for_graphs([comp, patched_comp], VH)
    original_runs = CellRuns.build(comp, space)
    patched_runs = CellRuns.build(patched_comp, space)
    witness = runs_equal_minus_violations(
        original_runs, patched_runs, doomed=doomed_states(comp, VH))
    assert witness is None

    # spot probes: the violating prefix is gone, its gentle twin survives
    sharp_then_turn = (space.key_of(rand_grid(4, 0)), space.key_of(rand_grid(0, 18)))
    gentle_then_turn = (space.key_of(rand_grid(2, 0)), space.key_of(rand_grid(0, 18)))
    assert accepts(original_runs, sharp_then_turn)
    assert not accepts(patched_runs, sharp_then_turn)
    assert accepts(patched_runs, gentle_then_turn)
    report(5, "patch cuts exactly the armed sharp-turn edge; run sets match exactly")


def rand_grid(v: int, h: int):
    from sbmod.formulas import Assignment

    return Assignment.make({"v": v, "h": h})


def test_criterion_6_water_tap_alternation(water_tap_model):
    log = run(water_tap_model, ExecutionConfig(max_steps=10))
    names = {0: "WaterLow", 1: "AddHot", 2: "AddCold"}
    events = [names[int(e.assignment["x"])] for e in log.entries]
    assert events[0] == "WaterLow"
    assert events[1:] == ["AddHot", "AddCold", "AddHot", "AddCold", "AddHot", "AddCold"]
    report(6, "encoded water tap alternates AddHot/AddCold exactly after WaterLow")


def test_criterion_7_bisimulation_suite(drone_model):
    rng = random.Random(501)
    mismatches = 0
    for name in drone_model.names():
        script = drone_model.get(name)
        graph = simplify_graph(extract_graph(script, VH), VH)
        for _ in range(500):  # interpreter trace -> graph path
            s, q = initial_state(script), graph.initial
            for _ in range(6):
                a = rand_assignment(rng, VH.names)
                s = step_script(script, s, a)
                moved = [e.dst for e in graph.out_edges(q) if evaluate(e.guard, a)]
                q = moved[0] if moved else q
                if state_name(s) != q:
                    mismatches += 1
        for _ in range(500):  # graph path -> concretized interpreter trace
            s, q = initial_state(script), graph.initial
            for _ in range(6):
                options = materialized_edges(graph, q, VH)
                e = options[rng.randrange(len(options))]
                model = check_sat(e.guard, VH)
                s = step_script(script, s, model.restricted_to(VH))
                if state_name(s) != e.dst:
                    mismatches += 1
                q = e.dst
    assert mismatches == 0
    report(7, "500+500 traces per fixture object agree in both directions")


def test_criterion_8_solver_property_suite():
    rng = random.Random(88)
    vars = VarSet(("w", "x", "y", "z"))
    sat_count = 0
    for _ in range(10_000):
        f = rand_formula(rng, rng.randint(1, 6), rand_atom_pool(rng))
        result = check_sat(f, vars)
        if result is not None:
            sat_count += 1
            assert evaluate(f, result)
    assert 0 < sat_count < 10_000

    disagreements = 0
    for _ in range(1_000):
        atoms = rand_conjunction(rng)
        from sbmod.formulas import Atom

        ours = check_sat(conj([Atom(a) for a in atoms]), vars) is not None
        if ours != fourier_motzkin_satisfiable(atoms):
            disagreements += 1
    assert disagreements == 0
    report(8, f"10000 models all evaluate true ({sat_count} sat); 1000 conjunctions agree with the elimination oracle")
