from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sbmod import solver
from sbmod.formulas import (
    FALSE,
    TRUE,
    And,
    Assignment,
    Atom,
    DomainMismatchError,
    Formula,
    LinearAtom,
    Or,
    VarSet,
    atom,
    canonicalize,
    conj,
    disj,
    evaluate,
    formula_key,
    negate,
    to_infix,
    to_sexpr,
    var_atom,
)

from oracles import (
    rand_atom,
    rand_assignment,
    rand_atom_pool,
    rand_formula,
    ref_atom_key,
    ref_canonicalize,
    ref_formula_key,
    ref_negate,
)


def test_evaluate_conjunction():
    f = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    assert evaluate(f, Assignment.make({"v": 3, "h": 0}))
    assert not evaluate(f, Assignment.make({"v": 1, "h": 0}))


def test_evaluate_true_constant():
    for values in ({"v": 0}, {"v": -17, "h": 4}):
        assert evaluate(TRUE, Assignment.make(values))


def test_evaluate_contradiction():
    h10 = var_atom("h", ">=", 10)
    f = conj([h10, negate(h10)])
    assert not evaluate(f, Assignment.make({"v": 0, "h": 11}))


def test_evaluate_missing_variable_raises():
    f = var_atom("v", ">=", 2)
    with pytest.raises(DomainMismatchError):
        evaluate(f, Assignment.make({"h": 0}))


def test_boundary_exactness():
    # v == 5 must be recognized as hitting v >= 5 exactly; a float
    # representation of 5 via thirds would get this wrong
    third = Fraction(5, 3)
    a = Assignment({"v": third * 3})
    assert evaluate(var_atom("v", ">=", 5), a)
    assert not evaluate(var_atom("v", ">", 5), a)


def test_canonical_negation_flips_relation():
    assert negate(var_atom("h", ">=", 10)) == var_atom("h", "<", 10)
    assert negate(var_atom("x", "==", 3)) == var_atom("x", "!=", 3)


def test_canonical_collapses_negation_pairs():
    assert canonicalize(var_atom("h", ">=", 10)) == negate(var_atom("h", "<", 10))


def test_coefficient_normalization():
    assert atom({"v": 2}, ">=", 4) == var_atom("v", ">=", 2)
    assert atom({"v": -1}, ">=", -2) == var_atom("v", "<=", 2)
    assert atom({"v": Fraction(1, 2), "h": 1}, "<", 1) == atom({"v": 1, "h": 2}, "<", 2)


def test_atom_requires_nonzero_coefficient():
    with pytest.raises(ValueError):
        LinearAtom.make({"v": 0}, ">=", 1)


def test_atoms_are_built_normalized():
    with pytest.raises(ValueError):
        LinearAtom((("v", Fraction(2)),), ">=", Fraction(4))
    a = atom({"v": -2, "h": 4}, "<", 6).atom
    assert a.coeffs == (("h", 1), ("v", Fraction(-1, 2)))
    assert a.negated() == LinearAtom(a.coeffs, ">=", Fraction(3, 2))


def test_integral_keys_behave_like_fraction_keys():
    rng = random.Random(11)
    atoms = [rand_atom(rng).atom for _ in range(400)]
    numbers = [n for a in atoms for n in (a.const, *(c for _, c in a.coeffs))]
    assert any(n.denominator == 1 for n in numbers) and any(n.denominator > 1 for n in numbers)
    for a in atoms:
        key, ref = a.key(), ref_atom_key(a)
        assert key == ref and hash(key) == hash(ref)
        coeffs, _, const = key
        assert all(type(n) is (int if n.denominator == 1 else Fraction) for n in (const, *(c for _, c in coeffs)))
    for a, b in zip(atoms, atoms[1:] + atoms[:1]):
        assert (a.key() < b.key()) == (ref_atom_key(a) < ref_atom_key(b))
        assert (a.key() == b.key()) == (ref_atom_key(a) == ref_atom_key(b))
    assert sorted(atoms, key=LinearAtom.key) == sorted(atoms, key=ref_atom_key)


def test_int_and_fraction_numbers_share_a_cache_entry(monkeypatch):
    monkeypatch.setattr(solver, "_cache", {})
    xy = VarSet(("x", "y"))
    from_ints = conj([atom({"x": 3, "y": 6}, "<=", 2), var_atom("y", "!=", 5)])
    from_fractions = conj([atom({"x": Fraction(3), "y": Fraction(6)}, "<=", Fraction(2)),
                           var_atom("y", "!=", Fraction(5))])
    first = solver.check_sat(from_ints, xy)
    assert solver.check_sat(from_fractions, xy) is first
    assert len(solver._cache) == 1


def test_canonicalize_idempotent_and_sorted():
    f = Or((var_atom("v", ">=", 2), And((TRUE, var_atom("h", "<", 0))), FALSE))
    once = canonicalize(f)
    assert canonicalize(once) == once


def test_canonicalize_units():
    assert canonicalize(And((TRUE, TRUE))) == TRUE
    assert canonicalize(And((TRUE, FALSE))) == FALSE
    assert canonicalize(Or(())) == FALSE
    assert disj([]) == FALSE
    assert conj([]) == TRUE


def test_canonicalize_preserves_evaluation_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        pool = rand_atom_pool(rng)
        f = rand_formula(rng, rng.randint(1, 5), pool)
        g = canonicalize(f)
        a = rand_assignment(rng)
        assert evaluate(f, a) == evaluate(g, a)


def _nodes(f: Formula):
    yield f
    for c in getattr(f, "children", ()):
        yield from _nodes(c)


def _assert_matches_reference(ours: Formula, raw: Formula) -> None:
    expected = ref_canonicalize(raw)
    assert ours == expected
    for node in _nodes(ours):
        assert formula_key(node) == ref_formula_key(node)
        if isinstance(node, Atom):
            assert node.atom.coeffs[0][1] == 1


def test_canonicalize_agrees_with_reference_tree_walk():
    rng = random.Random(4404)
    for _ in range(3000):
        pool = rand_atom_pool(rng)
        f = rand_formula(rng, rng.randint(1, 5), pool)
        g = canonicalize(f)
        _assert_matches_reference(g, f)
        _assert_matches_reference(negate(f), ref_negate(f))
        assert canonicalize(g) is g
        for node in _nodes(g):
            assert canonicalize(node) is node
        # conj and disj take raw parts as well as canonical ones
        raw = [rand_formula(rng, rng.randint(0, 3), pool) for _ in range(rng.randint(0, 4))]
        raw += rng.sample([TRUE, FALSE, f], rng.randint(0, 2))
        parts = [canonicalize(p) for p in raw]
        for given in (parts, raw):
            _assert_matches_reference(conj(given), And(tuple(given)))
            _assert_matches_reference(disj(given), Or(tuple(given)))
        _assert_matches_reference(negate(g), ref_negate(g))


def test_prefix_conjunction_grows_one_part_at_a_time():
    # compose._moves extends its canonical prefix by one guard per part; the
    # query must be the conjunction of the whole guard list, key for key
    rng = random.Random(5505)
    for _ in range(1000):
        pool = rand_atom_pool(rng)
        parts = [rand_formula(rng, rng.randint(0, 3), pool) for _ in range(rng.randint(1, 6))]
        parts += rng.sample([TRUE, FALSE], rng.randint(0, 1))
        rng.shuffle(parts)
        prefix = TRUE
        for i, part in enumerate(parts):
            prefix = conj([prefix, part])
            whole = conj(parts[:i + 1])
            assert prefix == whole and formula_key(prefix) == formula_key(whole), parts[:i + 1]


def test_varset_sorted_and_validated():
    assert VarSet(("h", "v")).names == VarSet(("v", "h")).names == ("h", "v")
    with pytest.raises(ValueError):
        VarSet(())
    with pytest.raises(ValueError):
        VarSet(("v", "v"))


def test_infix_round_style():
    f = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    assert to_infix(f) == "h == 0 && v >= 2"
    g = disj([var_atom("h", "<=", -20), var_atom("h", ">=", 20)])
    assert to_infix(g) == "h <= -20 || h >= 20"


def test_sexpr_format():
    f = conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)])
    assert to_sexpr(f) == "(and (= h 0) (>= v 2))"
    assert to_sexpr(var_atom("x", "!=", 0)) == "(distinct x 0)"
    assert to_sexpr(atom({"v": 1, "h": 2}, "<", Fraction(1, 2))) == "(< (+ h (* (/ 1 2) v)) (/ 1 4))"


def test_multivar_atom_evaluation():
    f = atom({"x": 1, "y": -1}, ">", 0)  # x > y
    assert evaluate(f, Assignment.make({"x": 3, "y": 2}))
    assert not evaluate(f, Assignment.make({"x": 2, "y": 2}))


_LHS_RELATIONS = {"<": lambda l, c: l < c, "<=": lambda l, c: l <= c, "==": lambda l, c: l == c,
                  ">=": lambda l, c: l >= c, ">": lambda l, c: l > c, "!=": lambda l, c: l != c}


def test_holds_agrees_with_the_fraction_sum():
    # single-variable atoms read the value alone; the reference sums every term
    rng = random.Random(1313)
    single = multi = 0
    for _ in range(3000):
        chosen = rng.sample(["x", "y", "z"], rng.choice([1, 1, 2, 3]))
        a = LinearAtom.make({v: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2])) for v in chosen},
                            rng.choice(["<", "<=", "==", ">=", ">", "!="]),
                            Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
        values = {v: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for v in ("x", "y", "z")}
        lhs = sum((c * values[v] for v, c in a.coeffs), Fraction(0))
        assert a.holds(values) == _LHS_RELATIONS[a.rel](lhs, a.const), (a, values)
        missing = dict(values)
        del missing[rng.choice(a.variables())]
        with pytest.raises(DomainMismatchError):
            a.holds(missing)
        single += len(a.coeffs) == 1
        multi += len(a.coeffs) > 1
    assert single >= 1000 and multi >= 1000
