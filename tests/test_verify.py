from __future__ import annotations

import sys

import pytest

from sbmod.compose import JOIN, compose, compose_all, enabled_guard
from sbmod.dsl import GraphError, Model
from sbmod.formulas import TRUE, FalseF, VarSet, conj, evaluate, var_atom
from sbmod.graphs import ObjectGraph, encode_discrete
from sbmod.runsets import CellRuns, CellSpace
from sbmod.solver import check_sat
from sbmod.verify import (
    Counterexample,
    DeterminizationError,
    InvalidPropertyError,
    Patch,
    RepairUnsoundError,
    Safe,
    UnrepairableError,
    check_safety,
    compute_bad_attractor,
    find_deadlocks,
    repair,
    synthesize_patch,
    verify_patch,
)

from conftest import WATER_TAP_EVENTS, two_hot_in_a_row
from oracles import bounded_runs, discrete_runs, with_property

VH = VarSet(("v", "h"))
X = VarSet(("x",))


# ---------------------------------------------------------------------------
# safety checking


def test_drone_counterexample(drone_base, drone_property):
    result = check_safety(drone_base, drone_property)
    assert isinstance(result, Counterexample)
    trace = result.trace
    assert len(trace.steps) == 2
    assert trace.verdict == "BadReached"
    a1, a2 = (s.assignment for s in trace.steps)
    assert evaluate(conj([var_atom("v", ">=", 4), var_atom("h", "==", 0), var_atom("v", "<", 5)]), a1)
    assert evaluate(conj([var_atom("h", ">=", 18), var_atom("h", "<", 20), var_atom("v", "==", 0)]), a2)


def test_counterexample_steps_satisfy_guard_and_enabled(drone_base, drone_property):
    result = check_safety(drone_base, drone_property)
    comp = result.composite
    state = comp.initial
    for step in result.trace.steps:
        assert step.state == state
        assert evaluate(enabled_guard(comp, state), step.assignment)
        nxt = [e.dst for e in comp.out_edges(state) if evaluate(e.guard, step.assignment)]
        assert len(nxt) == 1
        state = nxt[0]
    assert state == result.trace.end_state
    assert state in comp.bad


def test_inert_property_reports_safe(drone_base):
    inert = ObjectGraph.make(states=["p"], initial="p", waitfor={"p": TRUE},
                             edges=[("p", TRUE, "p")])
    assert isinstance(check_safety(drone_base, inert), Safe)


def test_property_must_not_request_or_block(drone_base):
    greedy = ObjectGraph.make(states=["p"], initial="p", request={"p": TRUE},
                              edges=[("p", TRUE, "p")])
    with pytest.raises(InvalidPropertyError):
        check_safety(drone_base, greedy)
    blocker = ObjectGraph.make(states=["p"], initial="p", block={"p": var_atom("v", ">", 0)})
    with pytest.raises(InvalidPropertyError):
        check_safety(drone_base, blocker)


def _encoded_two_hot():
    return encode_discrete(WATER_TAP_EVENTS, two_hot_in_a_row())


def test_water_tap_safety_depends_on_stability(water_tap_model, water_tap_unstable_model):
    prop = _encoded_two_hot()
    assert isinstance(check_safety(water_tap_unstable_model, prop), Counterexample)
    assert isinstance(check_safety(water_tap_model, prop), Safe)
    # cross-check with the discrete brute-force executor
    from conftest import water_tap_objects

    for with_stability, expect_violation in ((False, True), (True, False)):
        discrete = [d for _, d in water_tap_objects(with_stability)] + [two_hot_in_a_row()]
        _, violating = discrete_runs(discrete, depth=8)
        assert bool(violating) == expect_violation


# ---------------------------------------------------------------------------
# deadlocks


def test_drone_composite_has_no_deadlocks(drone_base, drone_property):
    comp = compose_all(with_property(drone_base, drone_property))
    assert find_deadlocks(comp, VH) == frozenset()


def test_false_request_is_deadlock():
    g = ObjectGraph.make(states=["d"], initial="d")
    assert find_deadlocks(g, X) == frozenset({"d"})


def test_self_blocking_request_is_deadlock():
    g = ObjectGraph.make(
        states=["d"], initial="d",
        request={"d": var_atom("x", "<", 5)}, block={"d": var_atom("x", "<", 5)})
    assert find_deadlocks(g, X) == frozenset({"d"})


# ---------------------------------------------------------------------------
# bad attractor


def _composite(drone_base, drone_property):
    return compose_all(with_property(drone_base, drone_property))


def test_drone_attractor_is_only_the_bad_state(drone_base, drone_property):
    comp = _composite(drone_base, drone_property)
    (bad,) = comp.bad
    attractor = compute_bad_attractor(comp, [bad], VH)
    assert attractor == frozenset({bad})
    # closure: nobody outside has every enabled successor inside
    for q in comp.reachable():
        if q in attractor:
            continue
        succs = {e.dst for e in comp.out_edges(q)
                 if check_sat(conj([e.guard, enabled_guard(comp, q)]), VH) is not None}
        assert not (succs and succs <= attractor)


def test_forced_chain_is_unrepairable():
    g = ObjectGraph.make(
        states=["a", "b", "c"], initial="a",
        request={"a": TRUE, "b": TRUE, "c": TRUE},
        waitfor={"a": TRUE, "b": TRUE},
        edges=[("a", TRUE, "b"), ("b", TRUE, "c")],
        bad=["c"],
    )
    with pytest.raises(UnrepairableError):
        compute_bad_attractor(g, ["c"], X)


def test_diamond_attractor_takes_only_the_doomed_branch():
    neg, pos = var_atom("x", "<", 0), var_atom("x", ">=", 0)
    g = ObjectGraph.make(
        states=["s", "l", "r", "bad", "ok"], initial="s",
        request={q: TRUE for q in ("s", "l", "r", "ok")},
        waitfor={"s": TRUE, "l": TRUE, "r": TRUE},
        edges=[("s", neg, "l"), ("s", pos, "r"),
               ("l", TRUE, "bad"), ("r", TRUE, "ok"), ("ok", TRUE, "ok")],
        bad=["bad"],
    )
    assert compute_bad_attractor(g, ["bad"], X) == frozenset({"bad", "l"})


def test_attractor_rejects_unreachable_seed():
    g = ObjectGraph.make(states=["a", "b"], initial="a", request={"a": TRUE})
    with pytest.raises(GraphError):
        compute_bad_attractor(g, ["b"], X)


def test_attractor_rejects_seed_behind_a_disabled_edge():
    # b is reachable through a satisfiable guard, but no run takes it
    g = ObjectGraph.make(
        states=["a", "b"], initial="a",
        request={"a": var_atom("x", "<", 0)},
        edges=[("a", var_atom("x", ">=", 0), "b")],
        bad=["b"],
    )
    assert g.reachable() == ["a", "b"]
    with pytest.raises(GraphError, match="enabled moves"):
        compute_bad_attractor(g, ["b"], X)


# ---------------------------------------------------------------------------
# patch synthesis


def test_drone_patch_cuts_exactly_the_sharp_turn(drone_base, drone_property):
    patch, attractor, comp = repair(drone_base, drone_property)
    cuts = patch.cut_edges()
    assert len(cuts) == 1
    (state, guard) = cuts[0]
    assert guard == var_atom("h", ">=", 18)
    # the cut state is the composite state reached by the sharp climb
    (entry,) = [e for e in comp.out_edges(comp.initial)
                if check_sat(conj([e.guard, var_atom("v", ">=", 4)]), VH) is not None]
    assert entry.dst == state
    assert len(patch.tracker.states) == len(comp.states) - 1


def test_patch_refuses_a_bad_initial_state():
    g = ObjectGraph.make(states=["a"], initial="a", bad=["a"])
    with pytest.raises(UnrepairableError, match="initial state is bad"):
        synthesize_patch(g, frozenset({"a"}), X)


def test_patch_refuses_overlapping_kept_edges():
    g = ObjectGraph.make(
        states=["a", "b", "c"], initial="a", waitfor={"a": var_atom("x", ">=", 0)},
        edges=[("a", var_atom("x", ">=", 0), "b"), ("a", var_atom("x", ">=", 1), "c")],
    )
    with pytest.raises(DeterminizationError, match="overlapping guards out of 'a'"):
        synthesize_patch(g, frozenset(), X)


def test_patch_refuses_a_cut_that_deadlocks():
    # every event ``a`` requests falls under the cut of x >= 0
    g = ObjectGraph.make(
        states=["a", "bad"], initial="a", request={"a": var_atom("x", ">=", 1)},
        edges=[("a", var_atom("x", ">=", 0), "bad")], bad=["bad"],
    )
    with pytest.raises(RepairUnsoundError, match="patch would deadlock state 'a'") as err:
        synthesize_patch(g, frozenset({"bad"}), X)
    assert err.value.report.details == {"deadlocked_state": "a"}


def test_identity_patch_when_nothing_bad(drone_base):
    inert = ObjectGraph.make(states=["p"], initial="p", waitfor={"p": TRUE},
                             edges=[("p", TRUE, "p")])
    patch, attractor, _ = repair(drone_base, inert)
    assert attractor == frozenset()
    assert patch.cut_edges() == []
    assert all(isinstance(f, FalseF) for f in patch.tracker.block.values())


def test_patched_model_is_safe_and_deadlock_free(drone_base, drone_property):
    patch, _, comp = repair(drone_base, drone_property)
    patched_model = Model(VH, drone_base.objects + (patch.as_named_object(),))
    assert isinstance(check_safety(patched_model, drone_property), Safe)
    patched_comp = compose(comp, patch.tracker, VH)
    assert find_deadlocks(patched_comp, VH) == frozenset()


def test_patch_composability_removes_one_edge(drone_base, drone_property):
    patch, _, comp = repair(drone_base, drone_property)
    patched = compose(comp, patch.tracker, VH)

    def enabled_edges(g, vars):
        out = set()
        for q in g.reachable():
            for e in g.out_edges(q):
                if check_sat(conj([e.guard, enabled_guard(g, q)]), vars) is not None:
                    out.add((e.src, e.dst))
        return out

    keep = len(comp.initial.split(JOIN))

    def project(name):
        return JOIN.join(name.split(JOIN)[:keep])

    before = enabled_edges(comp, VH)
    after = {(project(s), project(d)) for s, d in enabled_edges(patched, VH)}
    (bad,) = comp.bad
    removed = before - after
    assert removed == {(q, bad) for q, _ in patch.cut_edges()}
    assert after <= before


def test_runs_preserved_exactly(drone_base, drone_property):
    patch, _, _ = repair(drone_base, drone_property)
    assert verify_patch(drone_base, patch, drone_property).containment_ok


def test_water_tap_patch_removes_exactly_hot_hot_runs(water_tap_unstable_model):
    prop = _encoded_two_hot()
    patch, attractor, comp = repair(water_tap_unstable_model, prop)
    assert attractor
    report = verify_patch(water_tap_unstable_model, patch, prop)
    assert report.containment_ok
    assert report.ok

    # decoded comparison against the independent discrete executor: the
    # patched runs are exactly those keeping a non-violating future open
    from conftest import water_tap_objects
    from oracles import discrete_safe_runs

    discrete = [d for _, d in water_tap_objects(False)] + [two_hot_in_a_row()]
    expected = discrete_safe_runs(discrete, depth=6)
    patched = compose(comp, patch.tracker, water_tap_unstable_model.vars)
    space = CellSpace.for_graphs([patched], water_tap_unstable_model.vars)
    words = bounded_runs(CellRuns.build(patched, space), depth=6)
    names = {0: "WaterLow", 1: "AddHot", 2: "AddCold"}
    decoded = {tuple(names[int(value)] for (value,) in w) for w in words}
    assert decoded == expected


# ---------------------------------------------------------------------------
# patch verification


def test_verify_patch_passes_on_drone(drone_base, drone_property):
    patch, _, _ = repair(drone_base, drone_property)
    report = verify_patch(drone_base, patch, drone_property)
    assert report.ok
    assert "pass" in report.summary()


def test_verify_identity_patch_on_safe_model(water_tap_model):
    prop = _encoded_two_hot()
    patch, attractor, _ = repair(water_tap_model, prop)
    assert attractor == frozenset()
    report = verify_patch(water_tap_model, patch, prop)
    assert report.ok


def _overblocking_patch(drone_base, drone_property) -> Patch:
    patch, _, _ = repair(drone_base, drone_property)
    (q5, _) = patch.cut_edges()[0]
    wider = dict(patch.tracker.block)
    wider[q5] = var_atom("h", ">=", 10)  # blocks legal turns too
    tracker = ObjectGraph.make(
        states=patch.tracker.states,
        initial=patch.tracker.initial,
        request=patch.tracker.request,
        block=wider,
        waitfor=patch.tracker.waitfor,
        edges=[(e.src, e.guard, e.dst) for e in patch.tracker.edges],
    )
    return Patch(tracker=tracker, name="Overblock")


def _identity_patch(drone_base, drone_property) -> Patch:
    _, _, comp = repair(drone_base, drone_property)
    return synthesize_patch(comp, frozenset(), drone_base.vars, "Identity")


def test_overblocking_patch_fails_containment(drone_base, drone_property):
    bad_patch = _overblocking_patch(drone_base, drone_property)
    with pytest.raises(RepairUnsoundError) as err:
        verify_patch(drone_base, bad_patch, drone_property)
    report = err.value.report
    assert report.containment_ok is False
    assert "lost_run" in report.details or "new_deadlocks" in report.details


def test_identity_patch_keeps_violating_runs(drone_base, drone_property):
    # blocking nothing leaves the violating runs in, which the exact run-set
    # comparison reports as runs the original minus violations lacks
    identity = _identity_patch(drone_base, drone_property)
    with pytest.raises(RepairUnsoundError) as err:
        verify_patch(drone_base, identity, drone_property)
    report = err.value.report
    assert report.safe_after_patch is False
    assert report.containment_ok is False
    assert "foreign_run" in report.details


def _patch_case(case: str, request) -> tuple:
    """(model, property, patch) for the clause (a) cross-check."""
    if case == "water_tap":
        m, prop = request.getfixturevalue("water_tap_unstable_model"), _encoded_two_hot()
        return m, prop, repair(m, prop)[0]
    m, prop = request.getfixturevalue("drone_base"), request.getfixturevalue("drone_property")
    build = {"drone": lambda *a: repair(*a)[0], "identity": _identity_patch,
             "overblock": _overblocking_patch}[case]
    return m, prop, build(m, prop)


@pytest.mark.parametrize("case, safe", [
    ("drone", True), ("identity", False), ("overblock", True), ("water_tap", True),
])
def test_clause_a_agrees_with_check_safety(case, safe, request):
    m, prop, patch = _patch_case(case, request)
    oracle = check_safety(Model(m.vars, m.objects + (patch.as_named_object(),)), prop)
    try:
        report = verify_patch(m, patch, prop)
    except RepairUnsoundError as err:
        report = err.report
    assert report.safe_after_patch is isinstance(oracle, Safe) is safe
    if not safe:
        violation = report.details["violation"]
        assert violation.verdict == "BadReached"
        assert len(violation) == len(oracle.trace)


# the package re-exports compose(), which shadows its module's name
_COMPOSE_MODULE = sys.modules["sbmod.compose"]


def _count_calls(monkeypatch, names: tuple[str, ...], module=None) -> dict[str, list]:
    """Record (args, result) of every call to the named functions."""
    import sbmod.verify as verify

    module = module or verify
    calls: dict[str, list] = {name: [] for name in names}

    def counting(name: str):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls[name].append((args, result))
            return result

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def _assert_run_graph_then_patch(calls: dict[str, list], products: dict[str, list]) -> list:
    """Two run_graph builds: the model's, then the patch composed onto that
    run graph; no full product is folded. Returns the model's parts."""
    (model_args, (graph, _)), (patch_args, _) = calls["run_graph"]
    assert len(patch_args[0]) == 2 and patch_args[0][0] is graph
    assert products["compose_all"] == [] and products["compose"] == []
    return model_args[0]


def test_verify_patch_composes_once(drone_base, drone_property, monkeypatch):
    patch, _, composite = repair(drone_base, drone_property)
    calls = _count_calls(monkeypatch, ("run_graph", "check_safety"))
    products = _count_calls(monkeypatch, ("compose", "compose_all"), _COMPOSE_MODULE)
    assert verify_patch(drone_base, patch, drone_property).ok
    assert calls["check_safety"] == []
    # no full product, original or patched, is built
    _assert_run_graph_then_patch(calls, products)
    assert calls["run_graph"][1][0][0][1] is patch.tracker

    # handed repair's run graph, verify_patch composes only the patch onto it
    for counted in (*calls.values(), *products.values()):
        counted.clear()
    assert verify_patch(drone_base, patch, drone_property, composite).ok
    assert products["compose_all"] == []
    ((args, _),) = calls["run_graph"]
    assert args[0][0] is composite and args[0][1] is patch.tracker


def test_repair_verify_counts(monkeypatch, capsys):
    from sbmod.cli import main

    from conftest import FIXTURES

    calls = _count_calls(monkeypatch, ("run_graph",))
    products = _count_calls(monkeypatch, ("compose", "compose_all"), _COMPOSE_MODULE)
    assert main(["repair", str(FIXTURES / "drone.sbm"), "--property", "NoConsecutiveSharpTurns", "--verify"]) == 0
    assert "run containment: pass" in capsys.readouterr().out
    # one run graph per run: repair's, shared with verify_patch, which
    # composes the patch onto it
    parts = _assert_run_graph_then_patch(calls, products)
    assert len(parts) == 4  # three objects and the property
