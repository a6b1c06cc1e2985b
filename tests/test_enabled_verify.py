"""Analysis along enabled moves: the run graph against the full product plus
an enabled-edge filter, the patch's tracker against the run
graph, the unbounded run-set comparison against the bounded reference, and
the one move rule."""

from __future__ import annotations

import random

import pytest

from sbmod import cells, minimize, solver
from sbmod.compose import JOIN, compose, compose_all, enabled_guard, object_graphs, run_graph
from sbmod.dsl import parse_model
from sbmod.formulas import FALSE, Assignment, VarSet, conj, disj, var_atom
from sbmod.graphs import GraphError, Model, NamedObject, ObjectGraph, encode_discrete
from sbmod.runsets import CellRuns, CellSpace
from sbmod.verify import (
    Patch,
    RepairUnsoundError,
    repair,
    synthesize_patch,
    verify_patch,
)

from conftest import FIXTURES, WATER_TAP_EVENTS, two_hot_in_a_row, water_tap_objects
from oracles import (
    TRAP_MODEL,
    WATER_TAP_TEXT,
    accepts,
    bounded_runs,
    doomed_states,
    enabled_edges,
    enabled_reachable,
    indep_text,
    rand_atom_pool,
    rand_formula,
    reference_run_graph,
    ring_n_text,
    runs_equal_minus_violations,
    token_ring_text,
    with_property,
)

X = VarSet(("x",))


def _tap(with_stability: bool) -> tuple[Model, ObjectGraph]:
    objs = water_tap_objects(with_stability)
    m = Model(X, tuple(NamedObject(n, encode_discrete(WATER_TAP_EVENTS, d)) for n, d in objs))
    return m, encode_discrete(WATER_TAP_EVENTS, two_hot_in_a_row())


def _parsed(text: str, prop: str) -> tuple[Model, ObjectGraph]:
    m = parse_model(text)
    return m.without(prop), m.get(prop)


def _case(name: str, workloads) -> tuple[Model, object]:
    """(model without its property, property) by name; a sized family is
    named ``family:n``."""
    family, _, size = name.partition(":")
    if family == "drone":
        return _parsed((FIXTURES / "drone.sbm").read_text(), "NoConsecutiveSharpTurns")
    if family == "tap":
        return _tap(with_stability=False)
    if family == "safe_tap":
        return _tap(with_stability=True)
    if family == "dsl_tap":
        return _parsed(WATER_TAP_TEXT, "TwoHot")
    if family == "trap":
        return _parsed(TRAP_MODEL, "Trap")
    if family == "ring":
        return _parsed(workloads.ring_text(int(size or 5)), "AllMarked")
    if family == "wide":
        return _parsed(workloads.wide_text(int(size or 7)), "Far")
    if family == "ring_n":
        return _parsed(ring_n_text(int(size or 5)), "P")
    if family == "token_ring":
        return _parsed(token_ring_text(int(size or 4)), "ReachLast")
    if family == "indep":
        return _parsed(indep_text(int(size or 4)), "P")
    raise KeyError(name)


def _full_composite(m: Model, prop) -> ObjectGraph:
    """The simplified composite with every satisfiable edge."""
    return compose_all(with_property(m, prop))


# ---------------------------------------------------------------------------
# the run graph of two parts against the filtered full product


def _assert_run_graph_matches(g1: ObjectGraph, g2: ObjectGraph, vars) -> ObjectGraph:
    """The run graph of ``g1`` and ``g2`` has the states, labels, bad set and
    parts of their full product cut to enabled moves, and out of each state
    one edge per destination that fires exactly where the cut's edges into
    that destination do."""
    full = compose(g1, g2, vars)
    table = enabled_edges(full, vars)
    reached = enabled_reachable(full, table)
    graph, parts = run_graph([g1, g2], vars)
    assert graph.initial == full.initial
    assert sorted(graph.states) == sorted(reached)
    assert graph.bad == full.bad & set(reached)
    # the full product names a pair by joining it; part names may hold JOIN too
    pairs = {q: [(a, b) for a in g1.states for b in g2.states if a + JOIN + b == q] for q in reached}
    assert parts == {q: pair for q, (pair,) in pairs.items()}
    for q in reached:
        for labels in ("request", "block", "waitfor"):
            assert getattr(graph, labels)[q] == getattr(full, labels)[q]
        enabled = enabled_guard(full, q)
        out = graph.out_edges(q)
        assert [e.dst for e in out] == sorted({e.dst for e in table[q]})
        for e in out:
            into = disj([r.guard for r in table[q] if r.dst == e.dst])
            assert solver.equivalent(conj([e.guard, enabled]), conj([into, enabled]), vars), (q, e.dst)
    return graph


@pytest.mark.parametrize("name, patched_states", [
    ("drone", None), ("tap", None), ("safe_tap", None), ("ring", 11), ("wide", 5),
])
def test_enabled_product_matches_filtered_full_product(name, patched_states, workloads):
    m, prop = _case(name, workloads)
    patch, _, composite = repair(m, prop)
    patched = _assert_run_graph_matches(composite, patch.tracker, m.vars)
    if patched_states is not None:
        assert len(patched.states) == patched_states
    report = verify_patch(m, patch, prop, composite)
    assert report.ok and report.details["patched_states"] == len(patched.states)


def test_enabled_product_of_model_objects(workloads):
    # the product of two plain objects, not only composite-and-tracker
    for name in ("drone", "ring"):
        m, _ = _case(name, workloads)
        (_, a), (_, b), *_ = object_graphs(m)
        _assert_run_graph_matches(a, b, m.vars)


def _random_object(rng: random.Random, name: str) -> ObjectGraph:
    pool = rand_atom_pool(rng, ("x", "y"), 2, 4)
    states = [f"{name}{i}" for i in range(3)]

    def f():
        return rand_formula(rng, 2, pool)

    return ObjectGraph.make(
        states=states, initial=states[0],
        request={q: f() for q in states if rng.random() < 0.8},
        block={q: f() for q in states if rng.random() < 0.4},
        waitfor={q: f() for q in states if rng.random() < 0.6},
        edges=[(q, f(), rng.choice(states)) for q in states for _ in range(rng.randint(0, 2))],
        bad=[states[-1]] if rng.random() < 0.5 else [],
    )


@pytest.mark.parametrize("seed", range(8))
def test_enabled_product_on_random_objects(seed):
    rng = random.Random(seed)
    _assert_run_graph_matches(_random_object(rng, "a"), _random_object(rng, "b"), VarSet(("x", "y")))


# ---------------------------------------------------------------------------
# the run graph, built from the initial tuple without the full product


@pytest.mark.parametrize("name", [
    "ring_n:4", "ring_n:5", "ring_n:6", "ring_n:8",
    "token_ring:3", "token_ring:4", "token_ring:5",
    "ring:5", "ring:8", "wide:7", "wide:12",
    "drone", "trap", "tap", "safe_tap", "dsl_tap",
])
def test_run_graph_matches_cut_full_composite(name, workloads):
    m, prop = _case(name, workloads)
    reference = reference_run_graph(m, prop)
    graph, _ = run_graph([g for _, g in object_graphs(with_property(m, prop))], m.vars)
    assert graph.initial == reference.initial
    assert graph.states == reference.states
    assert graph.bad == reference.bad
    for labels in ("request", "block", "waitfor"):
        assert getattr(graph, labels) == getattr(reference, labels)
    # merged guards, written the same way
    assert [e.key() for e in graph.edges] == [e.key() for e in reference.edges]
    assert graph == reference


# ---------------------------------------------------------------------------
# the patch tracks the run graph only


@pytest.mark.parametrize("name", ["drone", "tap", "safe_tap", "ring", "ring_n", "token_ring"])
def test_repair_runs_on_the_run_graph(name, workloads):
    m, prop = _case(name, workloads)
    full = _full_composite(m, prop)
    reached = set(enabled_reachable(full, enabled_edges(full, m.vars)))
    patch, attractor, composite = repair(m, prop)
    assert composite.states == reached
    assert attractor == doomed_states(full, m.vars) & reached
    assert patch.tracker.states <= reached
    assert all(q in reached for q, _ in patch.cut_edges())
    # a composite self-loop is the tracker's implicit stay, not a wake-up
    assert all(e.src != e.dst for e in patch.tracker.edges)


@pytest.mark.parametrize("name", ["drone", "tap", "ring", "wide", "ring_n", "token_ring"])
def test_run_graph_patch_keeps_the_full_patchs_runs(name, workloads):
    # the patch synthesized on the full composite tracks states no run
    # reaches; on the run graph it is smaller, and the runs it leaves are
    # exactly the same
    m, prop = _case(name, workloads)
    full = _full_composite(m, prop)
    patch, attractor, composite = repair(m, prop)
    over_full = synthesize_patch(full, doomed_states(full, m.vars), m.vars)
    assert len(patch.tracker.states) <= len(over_full.tracker.states)
    patched = [run_graph([composite, p.tracker], m.vars)[0] for p in (patch, over_full)]
    space = CellSpace.for_graphs(patched, m.vars)
    a, b = (CellRuns(g, space) for g in patched)
    assert runs_equal_minus_violations(a, b, frozenset()) is None
    assert runs_equal_minus_violations(b, a, frozenset()) is None


# ---------------------------------------------------------------------------
# clause (c): the unbounded pair search against the bounded reference

# materialized run sets grow as (enabled cells)^depth; these caps keep the
# reference below about 10k words per side
MAX_DEPTH = {"drone": 4, "wide": 3, "tap": 6, "ring": 6}


def _reblocked(patch: Patch, block_at: dict) -> Patch:
    t = patch.tracker
    tracker = ObjectGraph.make(
        states=t.states, initial=t.initial, request=t.request, block=block_at,
        waitfor=t.waitfor, edges=[(e.src, e.guard, e.dst) for e in t.edges])
    return Patch(tracker=tracker, name=patch.name)


def _mutants(patch: Patch, composite: ObjectGraph, vars, rng: random.Random) -> list[tuple[str, Patch]]:
    """The repaired patch, one cut dropped, and one extra block added, both
    at states some run reaches (the tracker also covers states none does)."""
    table = enabled_edges(composite, vars)
    doomed = doomed_states(composite, vars)
    reached = set(enabled_reachable(composite, table))
    out = [("repaired", patch)]
    cuts = [q for q, _ in patch.cut_edges() if q in reached]
    if cuts:
        q = rng.choice(cuts)
        out.append(("dropped_cut", _reblocked(patch, {**patch.tracker.block, q: FALSE})))
    q = rng.choice(sorted(q for q in reached - doomed if any(e.dst not in doomed for e in table[q])))
    extra = rng.choice([e for e in table[q] if e.dst not in doomed]).guard
    out.append(("extra_block", _reblocked(patch, {**patch.tracker.block, q: disj([patch.tracker.block[q], extra])})))
    return out


def _difference_against_reference(m: Model, composite: ObjectGraph, patch: Patch,
                                   depth: int) -> tuple[str, object]:
    vars = m.vars
    lazy, _ = run_graph([composite, patch.tracker], vars)
    full = compose(composite, patch.tracker, vars)
    # one alphabet for both sides: the full product's atoms cover the run graph's
    space = CellSpace.for_graphs([composite, full], vars)
    doomed = doomed_states(composite, vars)
    original = CellRuns(composite, space)
    witness = runs_equal_minus_violations(original, CellRuns(lazy, space), doomed)

    reference = CellRuns(full, space)
    for d in range(1, depth + 1):
        kept = bounded_runs(original, d, avoid=doomed)
        patched = bounded_runs(reference, d)
        assert (kept == patched) == (witness is None or len(witness) > d), d
        if witness is not None and len(witness) == d:
            assert (witness in kept) != (witness in patched)
    if witness is None:
        return "equal", None
    kind = "lost_run" if accepts(original, witness, avoid=doomed) else "foreign_run"
    assert accepts(original, witness, avoid=doomed) != accepts(CellRuns(lazy, space), witness)
    return kind, witness


def test_unbounded_clause_c_matches_bounded_reference(workloads):
    kinds: dict[str, set[str]] = {}
    for seed, name in enumerate(("drone", "tap", "ring", "wide")):
        m, prop = _case(name, workloads)
        patch, _, composite = repair(m, prop)
        for mutation, candidate in _mutants(patch, composite, m.vars, random.Random(seed)):
            kind, witness = _difference_against_reference(m, composite, candidate, MAX_DEPTH[name])
            assert witness is None or len(witness) <= MAX_DEPTH[name]  # the reference saw it
            kinds.setdefault(mutation, set()).add(kind)
    assert kinds == {"repaired": {"equal"}, "dropped_cut": {"foreign_run"}, "extra_block": {"lost_run"}}


def test_verify_patch_reports_the_shortest_lost_run(drone_base, drone_property):
    patch, _, composite = repair(drone_base, drone_property)
    (q, _), = patch.cut_edges()
    wider = _reblocked(patch, {**patch.tracker.block, q: var_atom("h", ">=", 10)})
    with pytest.raises(RepairUnsoundError) as err:
        verify_patch(drone_base, wider, drone_property, composite)
    report = err.value.report
    witness = report.details["lost_run"]
    kind, expected = _difference_against_reference(drone_base, composite, wider, MAX_DEPTH["drone"])
    assert kind == "lost_run" and len(witness) == len(expected) <= MAX_DEPTH["drone"]


# ---------------------------------------------------------------------------
# clause (c) read off the patched run graph, against the cell reference


@pytest.mark.parametrize("name, seeds", [
    ("drone", 6), ("tap", 6), ("dsl_tap", 6), ("ring", 6), ("wide", 6), ("token_ring", 6),
    ("indep:4", 6), ("indep:6", 1),
    ("ring_n", 0),  # no run leaves the initial state, so there is nothing to mutate
])
def test_clause_c_matches_the_cell_reference(name, seeds, workloads):
    m, prop = _case(name, workloads)
    patch, _, composite = repair(m, prop)
    doomed = doomed_states(composite, m.vars)
    identity = _reblocked(patch, dict.fromkeys(patch.tracker.states, FALSE))
    candidates = [("repaired", patch), ("identity", identity)]
    for seed in range(seeds):
        candidates += _mutants(patch, composite, m.vars, random.Random(seed))[1:]
    for mutation, candidate in candidates:
        try:
            report = verify_patch(m, candidate, prop, composite)
        except RepairUnsoundError as err:
            report = err.report
        patched, _ = run_graph([composite, candidate.tracker], m.vars)
        space = CellSpace.for_graphs([composite, patched], m.vars)
        original, after = CellRuns(composite, space), CellRuns(patched, space)
        expected = runs_equal_minus_violations(original, after, doomed)
        assert report.containment_ok == (expected is None), mutation
        kinds = [k for k in ("lost_run", "foreign_run") if k in report.details]
        if expected is None:
            assert kinds == [], mutation
            continue
        (kind,) = kinds
        assert kind == ("lost_run" if accepts(original, expected, doomed) else "foreign_run"), mutation
        # one model per step, each in the cell of a letter of a shortest differing word
        witness = report.details[kind]
        assert all(isinstance(a, Assignment) for a in witness)
        word = tuple(space.key_of(a) for a in witness)
        assert len(word) == len(expected), mutation
        kept = accepts(original, word, doomed)
        assert kept != accepts(after, word) and kept == (kind == "lost_run"), mutation


# ---------------------------------------------------------------------------
# verify_patch on the ring-n family


@pytest.mark.parametrize("n", [4, 5, 6])
def test_verify_patch_on_ring_n(n):
    m, prop = _parsed(ring_n_text(n), "P")
    patch, attractor, composite = repair(m, prop)
    assert attractor == frozenset()
    report = verify_patch(m, patch, prop, composite)
    assert report.ok
    # each station requests its own value and the next one blocks it, so no
    # run gets past the initial state
    assert report.details["patched_states"] == 1


@pytest.mark.parametrize("name", ["indep:4", "ring:5"])
def test_warm_repair_and_verify_build_no_model(name, workloads, monkeypatch):
    # the yes/no questions of the product, the deadlock checks and the patch
    # go through ``satisfiable``; with the caches warm, a safe patched run
    # graph leaves no question that needs a model
    for module, cache in [(solver, "_cache"), (solver, "_decided"), (cells, "_cache"), (minimize, "_cache")]:
        monkeypatch.setattr(module, cache, {})
    m, prop = _case(name, workloads)

    def round_trip():
        patch, attractor, composite = repair(m, prop)
        return patch.tracker, attractor, composite, verify_patch(m, patch, prop, composite)

    tracker, attractor, composite, report = round_trip()

    def no_model(f, vars):
        raise AssertionError("a yes/no question built a model")

    monkeypatch.setattr(solver, "check_sat", no_model)
    again = round_trip()
    assert again[:3] == (tracker, attractor, composite)
    assert again[3].summary() == report.summary() and again[3].details == report.details


# ---------------------------------------------------------------------------
# the one move rule


def test_overlapping_guards_raise_instead_of_picking_one():
    g = ObjectGraph.make(
        states=["a", "b", "c"], initial="a",
        request={"a": var_atom("x", ">=", 0)},
        edges=[("a", var_atom("x", ">=", 0), "b"), ("a", var_atom("x", ">=", 5), "c")],
    )
    space = CellSpace.for_graphs([g], X)
    with pytest.raises(GraphError, match="overlap"):
        CellRuns.build(g, space)
