from __future__ import annotations

import random
from fractions import Fraction

from sbmod import cells, engine, minimize, simplex, solver
from sbmod.formulas import (
    RELATIONS,
    Assignment,
    Atom,
    LinearAtom,
    VarSet,
    atom,
    atoms_of,
    canonicalize,
    conj,
    disj,
    evaluate,
    negate,
    var_atom,
)
from sbmod.solver import check_sat, entails, equivalent, to_smtlib2

from oracles import (
    fourier_motzkin_satisfiable,
    grid_satisfiable,
    rand_atom_pool,
    rand_conjunction,
    rand_formula,
    ref_concretize,
    ref_first_delta,
    ref_satisfiable,
    ref_search,
    ref_theory_model,
)

VH = VarSet(("v", "h"))


def test_sat_with_model():
    f = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    r = check_sat(f, VH)
    assert r is not None
    assert evaluate(f, r)


def test_unsat_contradiction():
    f = conj([var_atom("x", "<", 5), var_atom("x", ">=", 5)])
    assert check_sat(f, VarSet(("x",))) is None


def test_interval_intersection():
    # independent oracle: intersect per-variable bounds by hand
    # h in [18, 20) and v in (-5, 5) with v == 0 -> v must be 0, h in [18, 20)
    f = conj([
        var_atom("h", ">=", 18), var_atom("h", "<", 20),
        var_atom("v", ">", -5), var_atom("v", "<", 5), var_atom("v", "==", 0),
    ])
    r = check_sat(f, VH)
    assert r is not None
    assert r["v"] == 0
    assert Fraction(18) <= r["h"] < Fraction(20)


def test_strict_inequalities_satisfied_strictly():
    f = conj([var_atom("x", ">", 0), var_atom("x", "<", Fraction(1, 1000))])
    r = check_sat(f, VarSet(("x",)))
    assert r is not None
    assert 0 < r["x"] < Fraction(1, 1000)


def test_disequality_split():
    f = conj([var_atom("x", "!=", 0), var_atom("x", ">=", 0), var_atom("x", "<=", 1)])
    r = check_sat(f, VarSet(("x",)))
    assert r is not None
    assert 0 < r["x"] <= 1


def test_unconstrained_variables_default_to_zero():
    r = check_sat(var_atom("v", ">=", 2), VH)
    assert r["h"] == 0


def test_determinism():
    f = disj([conj([var_atom("v", ">=", 2), var_atom("h", "<", 0)]), var_atom("h", ">", 7)])
    models = [check_sat(f, VH) for _ in range(3)]
    assert models[0] == models[1] == models[2]


def test_entails_interval_containment():
    assert entails(var_atom("h", ">=", 18), var_atom("h", ">=", 10), VH)
    assert not entails(var_atom("h", ">=", 10), var_atom("h", ">=", 18), VH)


def test_entails_needs_block_context():
    # without the drone's blocks v can reach 5; with them it cannot
    f = conj([var_atom("v", ">=", 4), var_atom("h", "==", 0)])
    goal = negate(var_atom("v", ">=", 5))
    blocks = disj([
        var_atom("h", "<=", -20), var_atom("h", ">=", 20),
        var_atom("v", "<=", -5), var_atom("v", ">=", 5),
    ])
    assert not entails(f, goal, VH)
    assert entails(conj([f, negate(blocks)]), goal, VH)
    # cross-check on the integer grid
    assert grid_satisfiable(conj([f, negate(goal)]), ("v", "h"))
    assert not grid_satisfiable(conj([f, negate(blocks), negate(goal)]), ("v", "h"))


def test_equivalent_absorption_and_excluded_middle():
    assert equivalent(disj([var_atom("h", ">=", 10), var_atom("h", ">=", 18)]), var_atom("h", ">=", 10), VH)
    from sbmod.formulas import TRUE

    assert equivalent(TRUE, disj([var_atom("h", "<", 0), var_atom("h", ">=", 0)]), VH)
    lhs = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    rhs = conj([var_atom("v", ">=", 2), var_atom("h", "<=", 0), var_atom("h", ">=", 0)])
    assert equivalent(lhs, rhs, VH)
    # grid cross-check of the last equivalence
    assert not grid_satisfiable(conj([lhs, negate(rhs)]), ("v", "h"))
    assert not grid_satisfiable(conj([rhs, negate(lhs)]), ("v", "h"))


def test_model_soundness_randomized():
    rng = random.Random(11)
    vars = VarSet(("w", "x", "y", "z"))
    for _ in range(1500):
        f = rand_formula(rng, rng.randint(1, 6), rand_atom_pool(rng))
        r = check_sat(f, vars)
        if r is not None:
            assert evaluate(f, r)


def test_conjunction_agrees_with_fourier_motzkin():
    rng = random.Random(5)
    for _ in range(400):
        atoms = rand_conjunction(rng)
        ours = check_sat(conj([_wrap(a) for a in atoms]), VarSet(("w", "x", "y", "z"))) is not None
        oracle = fourier_motzkin_satisfiable(atoms)
        assert ours == oracle


def _wrap(a):
    from sbmod.formulas import Atom

    return Atom(a)


def test_multivar_constraints_via_simplex():
    # x + y >= 10, x - y >= 0, x <= 6 forces x in [5, 6], y in [10 - x, x]
    f = conj([
        _wrap_atoms({"x": 1, "y": 1}, ">=", 10),
        _wrap_atoms({"x": 1, "y": -1}, ">=", 0),
        var_atom("x", "<=", 6),
    ])
    r = check_sat(f, VarSet(("x", "y")))
    assert r is not None
    assert evaluate(f, r)
    unsat = conj([
        _wrap_atoms({"x": 1, "y": 1}, ">=", 10),
        var_atom("x", "<=", 2),
        var_atom("y", "<=", 2),
    ])
    assert check_sat(unsat, VarSet(("x", "y"))) is None


def _wrap_atoms(coeffs, rel, const):
    from sbmod.formulas import atom

    return atom(coeffs, rel, const)


def test_smtlib2_dump_shape():
    f = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    text = to_smtlib2(f, VH)
    assert "(set-logic QF_LRA)" in text
    assert "(declare-const h Real)" in text
    assert "(assert (and (= h 0) (>= v 2)))" in text
    assert text.strip().endswith("(get-model)")


# ---------------------------------------------------------------------------
# the pruned ``!=`` split search against the eager reference


def _split_literals(rng: random.Random, variables: tuple[str, ...], disequalities: int):
    """Bounds over ``variables`` plus exactly ``disequalities`` ``!=``
    literals, some written as negated equalities, in shuffled order."""
    def linear():
        chosen = rng.sample(variables, rng.randint(1, len(variables)))
        return {v: rng.choice([-2, -1, 1, 2]) for v in chosen}

    literals = [(LinearAtom.make(linear(), rng.choice(["<", "<=", ">=", ">"]), rng.randint(-3, 3)),
                 rng.random() < 0.7)
                for _ in range(rng.randint(0, 4))]
    for _ in range(disequalities):
        a = LinearAtom.make(linear(), "==", Fraction(rng.randint(-6, 6), rng.choice([1, 2])))
        literals.append((a, False) if rng.random() < 0.5 else (a.negated(), True))
    rng.shuffle(literals)
    return literals


def test_split_search_matches_eager_reference():
    rng = random.Random(2026)
    unsat = sat_with_splits = 0
    for _ in range(600):
        variables = rng.choice([("x",), ("x", "y")])
        literals = _split_literals(rng, variables, rng.randint(0, 8))
        expected = ref_theory_model(literals)
        assert solver._theory_model(literals) == expected, literals
        unsat += expected is None
        splits = sum((a if value else a.negated()).rel == "!=" for a, value in literals)
        sat_with_splits += expected is not None and splits >= 2
    assert unsat >= 50 and sat_with_splits >= 50


def test_split_search_prunes_infeasible_prefixes(monkeypatch):
    k = 12
    x = {"x": 1}
    literals = [(LinearAtom.make(x, ">=", 0), True), (LinearAtom.make(x, "<=", k - 1), True)]
    literals += [(LinearAtom.make(x, "==", i), False) for i in range(k)]
    calls = []
    feasible = solver._feasible
    monkeypatch.setattr(solver, "_feasible", lambda constraints: calls.append(1) or feasible(constraints))
    model = solver._theory_model(literals)
    # x < 0 fails once; then x > 0 and x < 1, x < 2, ... each hold at once
    assert len(calls) <= 2 * k + 1
    monkeypatch.undo()
    assert model == ref_theory_model(literals)
    f = conj([var_atom("x", ">=", 0), var_atom("x", "<=", k - 1)]
             + [var_atom("x", "!=", i) for i in range(k)])
    assert check_sat(f, VarSet(("x",))) == Assignment({"x": Fraction(1, 2)})


def test_debug_dump_writes_each_query_to_stderr(monkeypatch, capsys):
    monkeypatch.setattr(solver, "_DEBUG", True)  # what SBM_SOLVER_DEBUG=1 sets
    check_sat(conj([var_atom("v", ">=", 2), var_atom("h", "<", 1)]), VH)
    err = capsys.readouterr().err
    assert err.startswith("(set-logic QF_LRA)\n")
    assert "(assert (and " in err
    assert err.index("(declare-const v Real)") < err.index("(check-sat)")
    # an entailment dumps its query, f and not g, although it builds no model
    f, g = var_atom("v", ">=", 2), var_atom("v", ">", 1)
    assert entails(f, g, VH)
    assert capsys.readouterr().err == to_smtlib2(conj([f, negate(g)]), VH) + "\n"
    assert entails(f, g, VH)  # a repeated query is dumped again
    assert capsys.readouterr().err.count("(check-sat)") == 1


def test_satisfiable_dumps_what_check_sat_dumps(monkeypatch, capsys):
    monkeypatch.setattr(solver, "_DEBUG", True)  # what SBM_SOLVER_DEBUG=1 sets
    xy = VarSet(("x", "y"))
    two = atom({"x": 1, "y": -1}, "<", Fraction(1, 2))
    for f in [
        conj([two, var_atom("x", ">=", 2)]),
        disj([conj([two, var_atom("y", "!=", 0)]), var_atom("x", "<", -1)]),
        conj([atom({"x": 1, "y": 1}, "==", 3), var_atom("x", ">", 3), var_atom("y", ">", 0)]),
    ]:
        expected = check_sat(f, xy) is not None
        dumped = capsys.readouterr().err
        assert solver.satisfiable(f, xy) == expected
        assert capsys.readouterr().err == dumped == to_smtlib2(f, xy) + "\n"


# ---------------------------------------------------------------------------
# single-variable conjunctions: bound clamping against the simplex


def _single_variable_literals(rng: random.Random) -> list[tuple[LinearAtom, bool]]:
    return [(LinearAtom.make({rng.choice("xyz"): rng.choice([-2, -1, 1, 3])},
                             rng.choice(["<", "<=", "==", ">=", ">", "!="]),
                             Fraction(rng.randint(-4, 4), rng.choice([1, 2]))),
             rng.random() < 0.7)
            for _ in range(rng.randint(0, 7))]


def test_bound_clamping_matches_simplex(monkeypatch):
    def no_simplex(constraints):
        raise AssertionError(f"simplex called on single-variable atoms: {constraints}")

    rng = random.Random(1212)
    unsat = sat_with_splits = 0
    for _ in range(1500):
        literals = _single_variable_literals(rng)
        with monkeypatch.context() as patched:
            patched.setattr(simplex, "feasible", no_simplex)
            clamped = solver._theory_model(literals)
        with monkeypatch.context() as patched:
            patched.setattr(solver, "_feasible", simplex.feasible)
            expected = solver._theory_model(literals)
        if expected is None:
            assert clamped is None, literals
            unsat += 1
        else:
            # same values, same variable order
            assert list(clamped.items()) == list(expected.items()), literals
            sat_with_splits += any((a if value else a.negated()).rel == "!=" for a, value in literals)
    assert unsat >= 100 and sat_with_splits >= 100


# ---------------------------------------------------------------------------
# concretization: a single-variable literal reads its variable's value


def test_single_variable_concretization_matches_the_generic_sum():
    rng = random.Random(1717)
    rels: set[str] = set()
    halved = strict = fractional = negative = 0
    for _ in range(1500):
        literals = _single_variable_literals(rng)
        values = solver._theory_model(literals)
        if values is None:
            continue
        first = ref_first_delta(values, literals)
        moving = [v for v, (_, inf) in values.items() if inf]
        if moving and rng.random() < 0.5:
            # a disequality on the value at the first delta sets no delta bound
            # and holds of the symbolic model, but fails at that delta
            var = rng.choice(moving)
            a = LinearAtom.make({var: 1}, "==", values[var][0] + values[var][1] * first)
            literal = (a, False) if rng.random() < 0.5 else (a.negated(), True)
            literals.insert(rng.randint(0, len(literals)), literal)
        concrete = solver._concretize(values, literals)
        assert list(concrete.items()) == list(ref_concretize(values, literals).items()), literals
        halved += concrete != {v: std + inf * first for v, (std, inf) in values.items()}
        for a, value in literals:
            eff = a if value else a.negated()
            rels.add(eff.rel)
            strict += eff.rel in ("<", ">")
            fractional += eff.const.denominator != 1
            negative += eff.const < 0
    assert rels == set(RELATIONS)
    assert halved >= 100 and strict >= 500 and fractional >= 500 and negative >= 500, (
        halved, strict, fractional, negative)


# ---------------------------------------------------------------------------
# decision-only search against the model-producing one


def _decision_pool(rng: random.Random) -> list[Atom]:
    # few variables and constants, so that bounds on one variable often meet
    # at one constant, where strictness and ``!=`` decide the answer
    pool = []
    for _ in range(rng.randint(2, 7)):
        chosen = rng.sample(["x", "y", "z"], rng.choice([1, 1, 1, 2]))
        coeffs = {v: rng.choice([-2, -1, 1, 2]) for v in chosen}
        const = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))
        pool.append(Atom(LinearAtom.make(coeffs, rng.choice(["<", "<=", "==", ">=", ">", "!="]), const)))
    return pool


def test_decision_matches_check_sat(monkeypatch):
    monkeypatch.setattr(solver, "_decided", {})
    xyz = VarSet(("x", "y", "z"))
    rng = random.Random(1313)
    sat = unsat = entailed = 0
    for _ in range(2000):
        pool = _decision_pool(rng)
        # a conjunction of small formulas is unsatisfiable often enough
        f = conj([rand_formula(rng, rng.randint(0, 2), pool) for _ in range(rng.randint(2, 6))])
        g = rand_formula(rng, rng.randint(0, 3), pool)
        expected = check_sat(f, xyz) is not None
        assert solver.satisfiable(f, xyz) == expected, f
        holds = entails(f, g, xyz)
        assert holds == (check_sat(conj([f, negate(g)]), xyz) is None), (f, g)
        sat += expected
        unsat += not expected
        entailed += holds and expected
    assert sat >= 500 and unsat >= 500 and entailed >= 200


def test_compiled_decision_search_matches_the_reference(monkeypatch):
    calls: list[list[tuple[LinearAtom, bool]]] = []
    theory = solver._theory_model
    monkeypatch.setattr(solver, "_theory_model", lambda literals: calls.append(list(literals)) or theory(literals))
    rng = random.Random(1818)
    sat = unsat = one_variable = two_variable = disequality = 0
    for _ in range(2000):
        pool = _decision_pool(rng)
        f = conj([rand_formula(rng, rng.randint(0, 3), pool) for _ in range(rng.randint(1, 6))])
        expected = ref_satisfiable(f)
        reference_calls = calls[:]
        calls.clear()
        assert (solver._search(f, [], propagate=True) is not None) == expected, f
        # the same tree: the same trails reach the theory check, in the same order
        assert calls == reference_calls, f
        calls.clear()
        sat += expected
        unsat += not expected
        atoms = atoms_of(f)
        one_variable += any(len(a.coeffs) == 1 for a in atoms)
        two_variable += any(len(a.coeffs) == 2 for a in atoms)
        disequality += any(a.rel == "!=" for a in atoms)
    assert min(sat, unsat, one_variable, two_variable, disequality) >= 500, (
        sat, unsat, one_variable, two_variable, disequality)


# ---------------------------------------------------------------------------
# conjunctions of literals: one theory call against the DPLL search


def test_conjunction_takes_the_search_leaf_model(monkeypatch):
    def no_search(*args):
        raise AssertionError(f"Boolean search on a conjunction of literals: {args[0]}")

    monkeypatch.setattr(solver, "_cache", {})
    wxyz = VarSet(("w", "x", "y", "z"))
    rng = random.Random(1616)
    unsat = sat_with_splits = sat_with_rows = 0
    for _ in range(2000):
        f = conj([Atom(a) for a in rand_conjunction(rng)])
        trail: list[tuple[LinearAtom, bool]] = []
        solution = ref_search(f, trail)
        with monkeypatch.context() as patched:
            patched.setattr(solver, "_search", no_search)
            result = check_sat(f, wxyz)
        if solution is None:
            assert result is None, f
            unsat += 1
            continue
        concrete = solver._concretize(solution, trail)
        assert result == Assignment({v: concrete.get(v, Fraction(0)) for v in wxyz.names}), f
        sat_with_splits += any(a.rel == "!=" for a in atoms_of(f))
        sat_with_rows += any(len(a.coeffs) == 2 for a in atoms_of(f))
    assert unsat >= 300 and sat_with_splits >= 300 and sat_with_rows >= 300, (unsat, sat_with_splits, sat_with_rows)


# ---------------------------------------------------------------------------
# the model search on its compiled table against the rebuild search


def test_model_search_matches_the_rebuild_reference(monkeypatch):
    calls: list[list[tuple[LinearAtom, bool]]] = []
    theory = solver._theory_model
    monkeypatch.setattr(solver, "_theory_model", lambda literals: calls.append(list(literals)) or theory(literals))
    monkeypatch.setattr(solver, "_cache", {})
    wxyz = VarSet(("w", "x", "y", "z"))
    rng = random.Random(1919)
    sat = unsat = one_variable = two_variable = disequality = 0
    for n in range(2400):
        pool = rand_atom_pool(rng) if n % 2 else _decision_pool(rng)
        g = canonicalize(conj([rand_formula(rng, rng.randint(0, 3), pool) for _ in range(rng.randint(1, 6))]))
        expected_trail: list[tuple[LinearAtom, bool]] = []
        expected = ref_search(g, expected_trail)
        reference_calls = calls[:]
        calls.clear()
        trail: list[tuple[LinearAtom, bool]] = []
        solution = solver._search(g, trail, propagate=False)
        # the same tree: the same trails reach the theory check, in the same order
        assert calls == reference_calls, g
        assert trail == expected_trail, g
        assert solution == expected and (solution is None or list(solution) == list(expected)), g
        result = check_sat(g, wxyz)
        calls.clear()
        if expected is None:
            assert result is None, g
            unsat += 1
        else:
            concrete = solver._concretize(expected, expected_trail)
            assert result == Assignment({v: concrete.get(v, Fraction(0)) for v in wxyz.names}), g
            sat += 1
        atoms = atoms_of(g)
        one_variable += any(len(a.coeffs) == 1 for a in atoms)
        two_variable += any(len(a.coeffs) == 2 for a in atoms)
        disequality += any(a.rel == "!=" for a in atoms)
    assert min(sat, unsat, one_variable, two_variable, disequality) >= 500, (
        sat, unsat, one_variable, two_variable, disequality)


def test_remember_stops_inserting_at_the_limit(monkeypatch):
    monkeypatch.setattr(solver, "_CACHE_LIMIT", 3)
    cache, calls = {}, []

    def compute(k):
        calls.append(k)
        return 10 * k

    for _ in range(2):
        for k in range(5):
            assert solver.remember(cache, k, lambda: compute(k)) == 10 * k
    assert cache == {0: 0, 1: 10, 2: 20}
    assert calls == [0, 1, 2, 3, 4, 3, 4]  # only the keys past the limit are computed again


def test_remember_hits_on_a_cached_false_or_empty_tuple():
    def recompute():
        raise AssertionError("a cached value was computed again")

    cache = {"decided": False, "cells": ()}
    assert solver.remember(cache, "decided", recompute) is False
    assert solver.remember(cache, "cells", recompute) == ()
    assert solver.remember(cache, "new", lambda: False) is False
    assert solver.remember(cache, "new", recompute) is False


def test_remember_keeps_a_cached_none():
    # check_sat caches None for an unsatisfiable query; asking again must not solve it again
    cache, calls = {}, []

    def compute():
        calls.append(1)
        return None

    assert solver.remember(cache, "unsat", compute) is None
    assert solver.remember(cache, "unsat", compute) is None
    assert len(calls) == 1


def test_every_per_process_cache_is_bounded(monkeypatch):
    caches = [(solver, "_cache"), (solver, "_decided"), (cells, "_masks"), (minimize, "_cache")]
    for module, name in caches:
        monkeypatch.setattr(module, name, {})
    monkeypatch.setattr(solver, "_CACHE_LIMIT", 1)
    q = VarSet(("q",))
    f = disj([conj([var_atom("q", ">=", 1), var_atom("q", "<", 3)]), var_atom("q", ">", 2)])
    assert check_sat(f, q) is not None
    assert entails(var_atom("q", ">", 5), f, q)
    assert len(cells.satisfiable_masks([var_atom("q", "<", 1).atom, var_atom("q", ">", 4).atom], q)) == 3
    assert minimize.boolean_minimize(f, q) == var_atom("q", ">=", 1)
    rng = random.Random(0)
    assert engine.select_event([(f, var_atom("q", "==", 2))], q, engine.RANDOM_CELL, rng) is not None
    # each cache took its first entry and no other
    assert [len(getattr(module, name)) for module, name in caches] == [1] * len(caches)
