from __future__ import annotations

import json

import pytest

from sbmod import graphs
from sbmod.compose import compose_all
from sbmod.dsl import GraphError, Model, NamedObject
from sbmod.formulas import FALSE, TRUE, VarSet, disj, var_atom
from sbmod.graphs import DiscreteObject, ObjectGraph, encode_discrete, to_dot, to_json_dict
from sbmod.graphs import EncodingError
from sbmod.runsets import CellRuns, CellSpace

from conftest import WATER_TAP_EVENTS, water_adder, water_tap_objects
from oracles import bounded_runs, discrete_runs


def idle_graph() -> ObjectGraph:
    return ObjectGraph.make(states=["i"], initial="i")


def test_labels_default_to_false():
    g = idle_graph()
    assert g.request["i"] == FALSE
    assert g.block["i"] == FALSE
    assert g.waitfor["i"] == FALSE


def test_unknown_edge_state_rejected():
    with pytest.raises(GraphError):
        ObjectGraph.make(states=["a"], initial="a", edges=[("a", TRUE, "ghost")])
    with pytest.raises(GraphError):
        ObjectGraph.make(states=["a"], initial="b")
    with pytest.raises(GraphError):
        ObjectGraph.make(states=["a"], initial="a", bad=["ghost"])


def test_stay_guard_complements_wake():
    g = ObjectGraph.make(
        states=["a", "b"], initial="a",
        request={"a": var_atom("x", "<", 5)},
        edges=[("a", var_atom("x", "<", 5), "b")],
    )
    assert g.stay_guard("a") == var_atom("x", ">=", 5)
    assert g.stay_guard("b") == TRUE


def test_stay_guard_is_computed_once(monkeypatch):
    def make():
        return ObjectGraph.make(states=["a", "b"], initial="a",
                                request={"a": var_atom("x", "<", 5)}, waitfor={"b": var_atom("x", ">", 7)},
                                edges=[("a", var_atom("x", "<", 5), "b")])

    calls = []
    negate = graphs.negate
    monkeypatch.setattr(graphs, "negate", lambda f: calls.append(f) or negate(f))
    g = make()
    stay = g.stay_guard("a")
    assert g.stay_guard("a") is stay and g.stay_guard("b") is g.stay_guard("b")
    assert calls == [g.wake("a"), g.wake("b")]
    # equality ignores what is cached; the graph takes no new attribute
    assert g == make() and make().stay_guard("a") == stay
    with pytest.raises(AttributeError):
        g.extra = None


def test_explore_visits_each_state_once_in_breadth_first_order():
    # a state is (number, tag) and is named by its number alone
    succ = {0: [1, 2], 1: [2, 3], 2: [0], 3: []}
    log = []

    def visit(state):
        n, tag = state
        log.append(("visit", state))

        def moves():
            for m in succ[n]:
                log.append(("move", n, m))
                # the move 1 -> 2 reaches a second state named "n2"
                yield var_atom("x", "==", 10 * n + m), (m, "late" if n == 1 else tag)

        return var_atom("x", ">=", n), var_atom("x", "<", -n), TRUE if n % 2 else FALSE, n == 3, moves()

    g, found = graphs.explore((0, "first"), lambda state: f"n{state[0]}", visit)
    # moves are consumed lazily and in order: each state's moves run before the next visit
    assert log == [("visit", (0, "first")), ("move", 0, 1), ("move", 0, 2),
                   ("visit", (1, "first")), ("move", 1, 2), ("move", 1, 3),
                   ("visit", (2, "first")), ("move", 2, 0),
                   ("visit", (3, "late"))]
    assert list(found.items()) == [("n0", (0, "first")), ("n1", (1, "first")),
                                   ("n2", (2, "first")), ("n3", (3, "late"))]
    assert g == ObjectGraph.make(
        states=["n0", "n1", "n2", "n3"], initial="n0",
        request={f"n{n}": var_atom("x", ">=", n) for n in succ},
        block={f"n{n}": var_atom("x", "<", -n) for n in succ},
        waitfor={"n1": TRUE, "n3": TRUE},
        edges=[(f"n{n}", var_atom("x", "==", 10 * n + m), f"n{m}") for n in succ for m in succ[n]],
        bad=["n3"],
    )


def test_explore_move_into_a_known_state_adds_no_state():
    def visit(n):
        return TRUE, FALSE, FALSE, False, [(TRUE, n), (FALSE, 0)]

    g, found = graphs.explore(0, str, visit)
    assert found == {"0": 0}
    assert g.states == {"0"} and g.bad == frozenset()
    assert [(e.src, e.dst) for e in g.edges] == [("0", "0"), ("0", "0")]


def test_encode_discrete_single_object():
    hot = encode_discrete(WATER_TAP_EVENTS, water_adder("AddHot"))
    # four states; the second requests exactly x == 1
    assert len(hot.states) == 4
    assert hot.request["w1"] == var_atom("x", "==", 1)
    assert hot.waitfor["w0"] == var_atom("x", "==", 0)
    guards = sorted(str(e.guard) for e in hot.out_edges("w1"))
    assert guards == ["x == 1"]


def test_encode_discrete_empty_request_is_false():
    obj = DiscreteObject.make(states=["a"], initial="a")
    g = encode_discrete(WATER_TAP_EVENTS, obj)
    assert g.request["a"] == FALSE


def test_encode_discrete_multi_event_set_becomes_disjunction():
    obj = DiscreteObject.make(
        states=["a"], initial="a", request={"a": ["AddHot", "AddCold"]})
    g = encode_discrete(WATER_TAP_EVENTS, obj)
    assert g.request["a"] == disj([var_atom("x", "==", 1), var_atom("x", "==", 2)])


def test_encode_discrete_unknown_event():
    obj = DiscreteObject.make(states=["a"], initial="a", request={"a": ["Explode"]})
    with pytest.raises(EncodingError):
        encode_discrete(WATER_TAP_EVENTS, obj)


def _encoded_model(with_stability: bool) -> Model:
    objs = water_tap_objects(with_stability)
    return Model(
        VarSet(("x",)),
        tuple(NamedObject(n, encode_discrete(WATER_TAP_EVENTS, d)) for n, d in objs),
    )


@pytest.mark.parametrize("with_stability", [True, False])
def test_encoded_runs_match_discrete_semantics(with_stability):
    # brute-force the discrete executions, then compare against the encoded
    # composite's runs decoded back to event names (depth 8)
    depth = 8
    discrete = [d for _, d in water_tap_objects(with_stability)]
    expected, _ = discrete_runs(discrete, depth)

    model = _encoded_model(with_stability)
    composite = compose_all(model)
    space = CellSpace.for_graphs([composite], model.vars)
    runs = bounded_runs(CellRuns.build(composite, space), depth)
    names = {0: "WaterLow", 1: "AddHot", 2: "AddCold"}
    decoded = set()
    for word in runs:
        assert all(value.denominator == 1 and int(value) in names for (value,) in word)
        decoded.add(tuple(names[int(value)] for (value,) in word))
    assert decoded == expected


def test_json_schema_shape():
    g = ObjectGraph.make(
        states=["a", "b"], initial="a",
        request={"a": var_atom("v", ">=", 2)},
        edges=[("a", var_atom("v", ">=", 2), "b")],
        bad=["b"],
    )
    data = to_json_dict(g)
    assert set(data) == {"states", "initial", "labels", "edges", "bad"}
    assert data["states"] == ["a", "b"]
    assert data["initial"] == "a"
    assert data["labels"]["a"]["request"] == "(>= v 2)"
    assert data["bad"] == ["b"]
    # the non-wake self-loop is materialized on export
    assert {"from": "a", "guard": "(< v 2)", "to": "a"} in data["edges"]
    json.dumps(data)  # must be serializable as-is


def test_dot_contains_labels_and_guards():
    g = ObjectGraph.make(
        states=["a"], initial="a", request={"a": var_atom("v", ">=", 2)},
        edges=[("a", var_atom("v", ">=", 2), "a")],
    )
    dot = to_dot(g, "demo")
    assert dot.startswith('digraph "demo"')
    assert "R: v >= 2" in dot
    assert '"a" -> "a" [label="v >= 2"];' in dot


def test_model_rejects_duplicate_names():
    g = idle_graph()
    with pytest.raises(GraphError):
        Model(VarSet(("x",)), (NamedObject("A", g), NamedObject("A", g)))
