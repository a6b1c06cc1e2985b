"""End-to-end cases beyond the main fixtures: attractor growth through the
fixpoint, longer counterexamples, wider predicate sets, and simplex chains."""

from __future__ import annotations

from fractions import Fraction

from sbmod.compose import compose
from sbmod.dsl import insert_object, parse_model
from sbmod.extract import ExtractStats, extract_graph, simplify_graph
from sbmod.formulas import VarSet, atom, conj, evaluate, var_atom
from sbmod.runsets import CellRuns, CellSpace
from sbmod.solver import check_sat, equivalent
from sbmod.verify import (
    Counterexample,
    Safe,
    check_safety,
    repair,
    verify_patch,
)

from oracles import TRAP_MODEL, bounded_runs, doomed_states

X = VarSet(("x",))


def test_attractor_grows_through_forced_chain():
    m = parse_model(TRAP_MODEL)
    base = m.without("Trap")
    prop = m.get("Trap")

    verdict = check_safety(base, prop)
    assert isinstance(verdict, Counterexample)
    assert len(verdict.trace.steps) == 3
    assert evaluate(conj([var_atom("x", ">=", 5), var_atom("x", "<=", 10)]),
                    verdict.trace.steps[0].assignment)

    patch, attractor, comp = repair(base, prop)
    # the bad state plus the two forced trap states joined the attractor
    assert len(attractor) == 3
    assert len([q for q in attractor if q in comp.bad]) == 1

    cuts = patch.cut_edges()
    assert len(cuts) == 1
    _, guard = cuts[0]
    assert equivalent(guard, var_atom("x", ">=", 5), X)

    report = verify_patch(base, patch, prop)
    assert report.containment_ok
    assert report.ok

    # the emitted patch is a one-state blocker; full textual round trip
    text = patch.to_script_text()
    patched = parse_model(insert_object(TRAP_MODEL, text))
    assert isinstance(check_safety(patched.without("Trap"), patched.get("Trap")), Safe)

    # patched runs live strictly below 5
    patched_comp = compose(comp, patch.tracker, X)
    space = CellSpace.for_graphs([comp, patched_comp], X)
    runs = CellRuns.build(patched_comp, space)
    for word in bounded_runs(runs, depth=4):
        for (value,) in word:
            assert Fraction(0) <= value < Fraction(5)


def test_doomed_states_empty_on_safe_model(water_tap_model):
    from sbmod.compose import compose_all
    from sbmod.graphs import encode_discrete
    from conftest import WATER_TAP_EVENTS, two_hot_in_a_row
    from oracles import with_property

    prop = encode_discrete(WATER_TAP_EVENTS, two_hot_in_a_row())
    comp = compose_all(with_property(water_tap_model, prop))
    assert doomed_states(comp, water_tap_model.vars) == frozenset()


def test_extraction_with_eight_predicates():
    steps = "\n".join(
        f"if (x >= {i}) {{ sync(waitfor = true); }}" for i in (1, 2, 3)
    )
    m = parse_model(
        f"""
        model {{ vars x, y;
          object Wide {{
            sync(request = x >= 1 || x >= 2 || x >= 3 || x >= 4
                         || y >= 1 || y >= 2 || y >= 3 || y >= 4);
            {steps}
            loop {{ sync(request = true); }}
          }}
        }}
        """
    )
    stats = ExtractStats()
    g = extract_graph(m.get("Wide"), m.vars, stats=stats)
    assert len(stats.predicates) == 8
    assert set(stats.cells_per_state.values()) == {256}
    sg = simplify_graph(g, m.vars)
    # first hop leaves the initial state for one of the conditional stops
    assert len(sg.out_edges("s0")) >= 2
    # guards per state still partition that state's wake condition
    for q in sg.states:
        outs = [e.guard for e in sg.out_edges(q)]
        for i, a in enumerate(outs):
            for b in outs[i + 1:]:
                assert check_sat(conj([a, b]), m.vars) is None


def test_solver_equality_chain_propagation():
    chain = conj([
        atom({"w": 1, "x": -1}, "==", 0),
        atom({"x": 1, "y": -1}, "==", 0),
        atom({"y": 1, "z": -1}, "==", 0),
        var_atom("z", ">=", 5),
        var_atom("w", "<", 5),
    ])
    vars = VarSet(("w", "x", "y", "z"))
    assert check_sat(chain, vars) is None

    sat_chain = conj([
        atom({"w": 1, "x": -1}, "==", 0),
        atom({"x": 1, "y": -1}, "==", 0),
        var_atom("y", ">", 3),
        var_atom("w", "<", Fraction(7, 2)),
    ])
    r = check_sat(sat_chain, vars)
    assert r is not None
    assert r["w"] == r["x"] == r["y"]
    assert Fraction(3) < r["w"] < Fraction(7, 2)


def test_strict_squeeze_between_variables():
    f = conj([
        atom({"x": 1, "y": -1}, "<", 0),   # x < y
        atom({"y": 1, "z": -1}, "<", 0),   # y < z
        atom({"x": 1, "z": -1}, ">=", 0),  # x >= z
    ])
    assert check_sat(f, VarSet(("x", "y", "z"))) is None
