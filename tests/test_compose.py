from __future__ import annotations

import random

import pytest

from sbmod.compose import JOIN, compose, compose_all, enabled_guard
from sbmod.dsl import GraphError, Model
from sbmod.extract import object_graphs
from sbmod.formulas import FALSE, TRUE, VarSet, conj, disj, evaluate, negate, var_atom
from sbmod.graphs import ObjectGraph, encode_discrete
from sbmod.solver import check_sat, equivalent

from conftest import WATER_TAP_EVENTS, water_adder, water_stability
from oracles import isomorphic, rand_assignment

VH = VarSet(("v", "h"))


def drone_graphs(drone_model):
    return dict(object_graphs(drone_model))


def idle() -> ObjectGraph:
    return ObjectGraph.make(states=["i"], initial="i")


def test_identity_element(drone_model):
    nav = drone_graphs(drone_model)["Navigate"]
    prod = compose(nav, idle(), VH)
    assert isomorphic(prod, nav, VH)
    prod2 = compose(idle(), nav, VH)
    assert isomorphic(prod2, nav, VH)


def test_composite_labels_are_elementwise_disjunctions(drone_model):
    gs = drone_graphs(drone_model)
    g1, g2 = gs["Navigate"], gs["NoConsecutiveSharpTurns"]
    prod = compose(g1, g2, VH)
    rng = random.Random(7)
    for name in prod.reachable():
        a, b = name.split(JOIN)
        for _ in range(25):
            point = rand_assignment(rng, VH.names)
            assert evaluate(prod.request[name], point) == (
                evaluate(g1.request[a], point) or evaluate(g2.request[b], point))
            assert evaluate(prod.block[name], point) == (
                evaluate(g1.block[a], point) or evaluate(g2.block[b], point))


def test_bad_states_propagate(drone_model):
    gs = drone_graphs(drone_model)
    prod = compose(gs["Navigate"], gs["NoConsecutiveSharpTurns"], VH)
    for name in prod.bad:
        _, b = name.split(JOIN)
        assert b in gs["NoConsecutiveSharpTurns"].bad


def test_commutative_and_associative_up_to_isomorphism(drone_model):
    gs = drone_graphs(drone_model)
    a, b, c = gs["VerticalLimit"], gs["Navigate"], gs["NoConsecutiveSharpTurns"]
    assert isomorphic(compose(a, b, VH), compose(b, a, VH), VH)
    assert isomorphic(compose(compose(a, b, VH), c, VH), compose(a, compose(b, c, VH), VH), VH)


def test_all_composite_guards_satisfiable(drone_model):
    comp = compose_all(drone_model)
    for e in comp.edges:
        assert check_sat(e.guard, VH) is not None


def test_drone_composite_has_six_states(drone_model):
    comp = compose_all(drone_model)
    assert len(comp.states) == 6
    assert len(comp.bad) == 1
    drone_only = compose_all(drone_model.without("NoConsecutiveSharpTurns"))
    assert len(drone_only.states) == 4


def test_single_object_fold(drone_model):
    single = Model(VH, (drone_model.objects[2],))  # Navigate
    comp = compose_all(single)
    assert isomorphic(comp, drone_graphs(drone_model)["Navigate"], VH)


def test_water_tap_product_blocks_cold_after_hot():
    x = VarSet(("x",))
    hot = encode_discrete(WATER_TAP_EVENTS, water_adder("AddHot"))
    stab = encode_discrete(WATER_TAP_EVENTS, water_stability())
    prod = compose(hot, stab, x)
    add_cold = var_atom("x", "==", 2)
    add_hot = var_atom("x", "==", 1)
    for name in prod.reachable():
        _, t = name.split(JOIN)
        expected = add_cold if t == "t0" else add_hot
        assert equivalent(prod.block[name], expected, x)


def test_path_correspondence_with_components(drone_model):
    # composite runs project to component runs and conversely (grid cells)
    gs = drone_graphs(drone_model)
    g1, g2 = gs["Navigate"], gs["NoConsecutiveSharpTurns"]
    prod = compose(g1, g2, VH)
    rng = random.Random(3)

    def step(graph, q, a):
        for e in graph.out_edges(q):
            if evaluate(e.guard, a):
                return e.dst
        return q

    for _ in range(200):
        q1, q2, qp = g1.initial, g2.initial, prod.initial
        for _ in range(6):
            a = rand_assignment(rng, VH.names)
            q1, q2 = step(g1, q1, a), step(g2, q2, a)
            qp = step(prod, qp, a)
            assert qp == f"{q1}{JOIN}{q2}"


def test_enabled_guard_examples(drone_model):
    comp = compose_all(drone_model)
    q1 = comp.initial
    blocks = disj([
        var_atom("h", "<=", -20), var_atom("h", ">=", 20),
        var_atom("v", "<=", -5), var_atom("v", ">=", 5),
    ])
    expected = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0), negate(blocks)])
    assert equivalent(enabled_guard(comp, q1), expected, VH)

    # request-true terminal state stays enabled under the blocks
    terminal = [q for q in comp.states if equivalent(comp.request[q], TRUE, VH) and q not in comp.bad]
    assert terminal
    for q in terminal:
        assert check_sat(enabled_guard(comp, q), VH) is not None

    nothing = ObjectGraph.make(states=["d"], initial="d")
    assert enabled_guard(nothing, "d") == FALSE
    with pytest.raises(GraphError):
        enabled_guard(nothing, "ghost")


def test_self_blocking_state_is_disabled():
    g = ObjectGraph.make(
        states=["d"], initial="d",
        request={"d": var_atom("x", "<", 5)},
        block={"d": var_atom("x", "<", 5)},
    )
    assert check_sat(enabled_guard(g, "d"), VarSet(("x",))) is None
