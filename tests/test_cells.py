"""The sign-cell engine and the exactness of everything built on it: run-set
alphabets, random-cell selection, and the source-level invariant checks."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sbmod import cells as cells_module, solver
from sbmod.cells import cell_formula, satisfiable_masks, sign_mask, witness
from sbmod.dsl import GraphError, parse_model
from sbmod.engine import RANDOM_CELL, select_event
from sbmod.extract import ExtractStats, extract_graph
from sbmod.formulas import (
    FALSE,
    TRUE,
    Assignment,
    VarSet,
    atom,
    atoms_of,
    conj,
    disj,
    evaluate,
    polarity_classes,
    var_atom,
)
from sbmod.graphs import ObjectGraph
from sbmod.runsets import CellRuns, CellSpace
from sbmod.solver import check_sat

from oracles import rand_atom_pool

X = VarSet(("x",))
XY = VarSet(("x", "y"))
SRC = Path(__file__).resolve().parent.parent / "src" / "sbmod"


def _brute_force(atoms, vars):
    # reference enumeration: one query per mask
    return {mask for mask in range(1 << len(atoms))
            if check_sat(cell_formula(atoms, mask), vars) is not None}


def test_cells_match_brute_force_on_drone_predicates(drone_model):
    stats = ExtractStats()
    extract_graph(drone_model.get("Navigate"), drone_model.vars, stats=stats)
    atoms = list(stats.predicates)
    masks = satisfiable_masks(atoms, drone_model.vars)
    assert list(masks) == sorted(_brute_force(atoms, drone_model.vars))
    for mask in masks:
        w = witness(atoms, mask, drone_model.vars)
        assert w == check_sat(cell_formula(atoms, mask), drone_model.vars)
        assert sign_mask(atoms, w) == mask


def _counting_check_sat(monkeypatch) -> list:
    """Empty the mask cache and count the ``check_sat`` calls cells make."""
    monkeypatch.setattr(cells_module, "_masks", {})
    calls = []
    real = solver.check_sat
    monkeypatch.setattr(solver, "check_sat", lambda f, vars: calls.append(f) or real(f, vars))
    return calls


def test_cells_match_brute_force_on_mixed_atoms(monkeypatch):
    # thresholds, equalities, a disequality and a two-variable atom
    f = disj([
        conj([var_atom("x", ">=", Fraction(1, 2)), var_atom("x", "<=", Fraction(3, 4))]),
        var_atom("x", "==", 40),
        var_atom("y", "!=", 3),
        atom({"x": 1, "y": 1}, "<", 1),
        var_atom("y", ">", -30),
    ])
    atoms = polarity_classes(atoms_of(f))
    calls = _counting_check_sat(monkeypatch)
    masks = satisfiable_masks(atoms, XY)
    witnesses = [witness(atoms, mask, XY) for mask in masks]
    # the two-variable atom keeps the depth-first search and its prefix queries
    assert len(calls) > len(masks)
    monkeypatch.undo()
    assert set(masks) == _brute_force(atoms, XY)
    assert len(masks) < 1 << len(atoms)
    # cells partition the space: every witness lies in its own cell only
    for mask, w in zip(masks, witnesses):
        assert evaluate(cell_formula(atoms, mask), w)


def _line_constant(rng: random.Random, pool: list[Fraction]) -> Fraction:
    # repeats, fractions, negatives and numbers of more than 4,000 digits
    if pool and rng.random() < 0.4:
        return rng.choice(pool)
    kind = rng.randrange(4)
    if kind == 0:
        c = Fraction(rng.randint(-5, 5))
    elif kind == 1:
        c = Fraction(rng.randint(-9, 9), rng.choice([2, 3, 7]))
    else:
        huge = 10 ** rng.randint(4001, 4100)
        c = Fraction(rng.choice([-1, 1]) * huge + rng.randint(-3, 3), rng.choice([1, 1, 3]))
    pool.append(c)
    return c


def test_line_cells_match_brute_force_on_single_variable_atoms():
    rng = random.Random(1515)
    relations = ("<", "<=", "==", ">=", ">", "!=")
    pruned = 0
    for _ in range(80):
        names = ("x", "y", "z")[:rng.randint(1, 3)]
        pool: list[Fraction] = []
        atoms = [var_atom(rng.choice(names), rng.choice(relations), _line_constant(rng, pool)).atom
                 for _ in range(rng.randint(1, 6))]
        vars = VarSet(names)
        masks = satisfiable_masks(atoms, vars)
        expected = sorted(_brute_force(atoms, vars))
        assert list(masks) == expected, atoms
        for mask in masks:
            w = witness(atoms, mask, vars)
            assert w == check_sat(cell_formula(atoms, mask), vars)
            assert sign_mask(atoms, w) == mask
        pruned += len(expected) < 1 << len(atoms)
    assert pruned >= 40


def test_single_variable_cells_take_one_query_each(monkeypatch, workloads):
    stats = ExtractStats()
    model = parse_model(workloads.wide_text(7))
    extract_graph(model.get("Wide"), model.vars, stats=stats)
    atoms = list(stats.predicates)
    calls = _counting_check_sat(monkeypatch)
    masks = satisfiable_masks(atoms, model.vars)
    for mask in masks:
        witness(atoms, mask, model.vars)
    assert len(calls) == len(masks) < 1 << len(atoms)


def test_masks_are_the_cells_without_their_witnesses(monkeypatch, workloads):
    model = parse_model(workloads.wide_text(7))
    cases = [
        # one-variable atoms: the masks are read off the number line
        (list(model.get("Wide").predicates), model.vars, 0),
        # a two-variable atom: the depth-first search asks prefix queries
        ([var_atom("x", ">=", 1).atom, atom({"x": 1, "y": 1}, "<", 1).atom, var_atom("y", "<", 0).atom], XY, 1),
    ]
    for atoms, vars, queried in cases:
        calls = _counting_check_sat(monkeypatch)
        masks = satisfiable_masks(atoms, vars)
        assert (len(calls) > 0) == queried
        asked = len(calls)
        witnesses = [witness(atoms, mask, vars) for mask in masks]
        # a remembered enumeration, plus one witness query per mask
        assert satisfiable_masks(atoms, vars) is masks
        assert len(calls) == asked + len(masks)
        monkeypatch.undo()
        assert [sign_mask(atoms, w) for w in witnesses] == list(masks)
        assert masks == tuple(sorted(_brute_force(atoms, vars)))


def test_cell_cache_stops_inserting_at_the_limit(monkeypatch):
    monkeypatch.setattr(cells_module, "_masks", {})
    monkeypatch.setattr(solver, "_CACHE_LIMIT", 2)
    tables = [[var_atom("x", ">=", k).atom, var_atom("y", "<", k).atom, atom({"x": 1, "y": -1}, "<=", k).atom]
              for k in range(-3, 3)]
    for _ in range(2):  # the second pass reads the two cached tables back
        for atoms in tables:
            assert list(satisfiable_masks(atoms, XY)) == sorted(_brute_force(atoms, XY))
    assert len(cells_module._masks) == 2


def _masks_within(monkeypatch, atoms, vars, budget: int):
    """``satisfiable_masks`` under a cell budget of ``budget``, with empty
    caches, and the ``check_sat`` calls it made."""
    monkeypatch.undo()
    calls = _counting_check_sat(monkeypatch)
    monkeypatch.setattr(cells_module, "MAX_CELLS", budget)
    return satisfiable_masks(atoms, vars), calls


def test_cell_budget_counts_one_variable_atoms_exactly(monkeypatch):
    # the count is exact when every atom has one variable and bounds the
    # cells from above otherwise; a refusal asks no query
    rng = random.Random(11)
    names = ("w", "x", "y", "z")
    single = 0
    for _ in range(60):
        atoms = polarity_classes(a.atom for a in rand_atom_pool(rng, variables=names, hi=6))
        vars = VarSet(names)
        masks, _ = _masks_within(monkeypatch, atoms, vars, 1 << 30)
        assert masks == tuple(sorted(_brute_force(atoms, vars)))
        assert _masks_within(monkeypatch, atoms, vars, len(masks) - 1) == (None, [])
        if all(len(a.coeffs) == 1 for a in atoms):
            single += 1
            assert _masks_within(monkeypatch, atoms, vars, len(masks))[0] == masks
    assert 0 < single < 60
    # eight thresholds cut the line into 17 pieces, which have 9 sign vectors
    thresholds = [var_atom("x", ">=", k).atom for k in range(8)]
    assert len(_masks_within(monkeypatch, thresholds, X, 9)[0]) == 9
    assert _masks_within(monkeypatch, thresholds, X, 8)[0] is None
    monkeypatch.undo()
    assert len(satisfiable_masks(thresholds, X)) == 9


def test_polarity_classes_collapse_negations():
    a = var_atom("x", ">=", 2).atom
    reps = polarity_classes([a, a.negated(), var_atom("x", "<", 7).atom])
    assert len(reps) == 2
    assert all(r.polarity_rep() == r for r in reps)
    assert a.polarity_rep() == a.negated().polarity_rep()


def test_no_atoms_is_one_cell():
    assert satisfiable_masks([], X) == (0,)
    assert witness([], 0, X)["x"] == 0


def test_cellspace_has_witness_between_fractional_thresholds():
    # the region holds no integer, and it still needs a witness of its own
    region = conj([var_atom("x", ">=", Fraction(1, 2)), var_atom("x", "<=", Fraction(3, 4))])
    g = ObjectGraph.make(states=["a"], initial="a", request={"a": region})
    space = CellSpace.for_graphs([g], X)
    assert any(evaluate(region, w) for w in space.witnesses)
    inside = space.key_of(Assignment.make({"x": Fraction(5, 8)}))
    assert Fraction(1, 2) <= inside[0] <= Fraction(3, 4)
    assert [key for key, _ in CellRuns.build(g, space).moves["a"]] == [inside]


def test_cellspace_has_witness_past_a_large_threshold():
    g = ObjectGraph.make(
        states=["a", "b"], initial="a",
        request={"a": TRUE, "b": FALSE},
        edges=[("a", var_atom("x", ">=", 40), "b")],
    )
    space = CellSpace.for_graphs([g], X)
    assert any(w["x"] >= 40 for w in space.witnesses)
    assert "b" in {dst for _, dst in CellRuns.build(g, space).moves["a"]}


def test_cellspace_past_the_cell_budget_is_refused():
    # 13 variables, one threshold each: 2^13 cells, past the cell budget
    names = tuple(f"v{i}" for i in range(13))
    g = ObjectGraph.make(states=["a"], initial="a", request={"a": disj([var_atom(v, ">=", 1) for v in names])})
    with pytest.raises(GraphError, match="MAX_CELLS"):
        CellSpace.for_graphs([g], VarSet(names))


def test_random_cell_picks_every_cell_inside_the_selection():
    request = disj([var_atom("x", "==", k) for k in (1, 2, 3)] + [var_atom("x", ">", 10)])
    block = var_atom("x", "==", 2)
    picks = set()
    for seed in range(40):
        a = select_event([(request, block)], X, RANDOM_CELL, random.Random(seed))
        assert evaluate(request, a) and not evaluate(block, a)
        picks.add(a["x"] if a["x"] <= 10 else "above")
    assert picks == {1, 3, "above"}
    again = [select_event([(request, block)], X, RANDOM_CELL, random.Random(5)) for _ in range(2)]
    assert again[0] == again[1]


def test_sources_use_no_assert_statements():
    # ``python -O`` strips assert statements, so invariants must raise
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []
