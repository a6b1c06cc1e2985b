from __future__ import annotations

import random

from sbmod import cells, minimize, solver
from sbmod.formulas import (
    FALSE,
    TRUE,
    VarSet,
    atom,
    atoms_of,
    canonicalize,
    conj,
    disj,
    evaluate,
    polarity_classes,
    var_atom,
)
from sbmod.minimize import _prime_implicants, _select_cover, boolean_minimize

from oracles import VARS, rand_atom_pool, rand_formula, ref_prime_implicants, witnessed_cells

XY = VarSet(("x", "y"))


def _covers_on(prime: tuple[int, int], on: set[int]) -> bool:
    value, care = prime
    return any(m & care == value for m in on)


def test_primes_agree_with_pairwise_merging():
    rng = random.Random(20261018)
    for i in range(3000):
        # one case in 50 at n = 8, where a case of the reference takes ~80 ms
        n = 8 if i % 50 == 0 else rng.randint(1, 7)
        p_on = rng.random()
        p_dc = rng.random() * (1 - p_on)
        on: set[int] = set()
        dc: set[int] = set()
        for m in range(1 << n):
            r = rng.random()
            if r < p_on:
                on.add(m)
            elif r < p_on + p_dc:
                dc.add(m)
        if not on:
            continue
        off = set(range(1 << n)) - on - dc
        ref = ref_prime_implicants(on, dc, n)
        primes = _prime_implicants(on, off)
        assert primes == [p for p in ref if _covers_on(p, on)], (n, on, dc)
        assert _select_cover(on, primes) == _select_cover(on, ref), (n, on, dc)


def _count_queries(monkeypatch) -> dict[str, int]:
    """Count the model searches (``check_sat``) and the decision-only ones
    (``satisfiable``, which the minimizer's certificate runs through ``entails``)."""
    calls = dict.fromkeys(("check_sat", "satisfiable"), 0)
    for name in calls:
        def counted(*args, name=name, real=getattr(solver, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(solver, name, counted)
    return calls


def test_repeat_call_makes_no_solver_query(monkeypatch):
    monkeypatch.setattr(minimize, "_cache", {})
    monkeypatch.setattr(cells, "_masks", {})
    monkeypatch.setattr(solver, "_decided", {})
    calls = _count_queries(monkeypatch)
    # the two-variable atom makes the cell enumeration ask prefix queries
    f = disj([var_atom("x", ">=", 3), var_atom("x", ">=", 5), var_atom("y", "<", 1),
              atom({"x": 1, "y": 1}, "<=", 2)])
    first = boolean_minimize(f, XY)
    assert calls["check_sat"] > 0
    assert calls["satisfiable"] == 2  # the certificate's two entailments
    calls.update(check_sat=0, satisfiable=0)
    assert boolean_minimize(f, XY) == first
    assert calls == {"check_sat": 0, "satisfiable": 0}


def test_memo_stops_inserting_at_the_limit(monkeypatch):
    monkeypatch.setattr(minimize, "_cache", {})
    monkeypatch.setattr(solver, "_CACHE_LIMIT", 2)
    for k in range(5):
        f = disj([var_atom("x", ">=", k), var_atom("x", ">=", k + 1)])
        assert boolean_minimize(f, XY) == canonicalize(var_atom("x", ">=", k))
    assert len(minimize._cache) == 2


def test_fourteen_atom_guard_is_minimized():
    # the request of the 14-predicate wide object: past the old 12-atom cap
    f = disj([var_atom("x", ">=", i) for i in range(1, 8)]
             + [var_atom("y", ">=", i) for i in range(1, 8)])
    assert len(atoms_of(canonicalize(f))) == 14
    g = boolean_minimize(f, XY)
    assert g == canonicalize(disj([var_atom("x", ">=", 1), var_atom("y", ">=", 1)]))
    assert minimize._size(g) < minimize._size(canonicalize(f))
    assert solver.equivalent(g, f, XY)


def test_guard_over_many_independent_atoms_is_left_as_written(monkeypatch):
    # 14 variables, one threshold each: 2^14 cells, past the cell budget
    names = tuple(f"v{i}" for i in range(14))
    f = canonicalize(disj([var_atom(v, ">=", 1) for v in names]))
    calls = _count_queries(monkeypatch)
    assert cells.satisfiable_masks(atoms_of(f), VarSet(names)) is None
    assert boolean_minimize(f, VarSet(names)) == f
    assert calls == {"check_sat": 0, "satisfiable": 0}


def test_unsatisfiable_guard_minimizes_to_false():
    assert boolean_minimize(conj([var_atom("x", ">=", 1), var_atom("x", "<", 0)]), XY) == FALSE


def test_on_set_matches_evaluation_on_witnesses():
    # the bitset walk (cells.holding_masks) against evaluating the formula on
    # each cell's witness: over the formula's own atoms, as the minimizer
    # calls it, and, as the raw per-cell extraction calls it, over lists
    # that strictly contain them (all of a script's predicates) and on the
    # constant guards TRUE and FALSE
    rng, more = random.Random(1414), random.Random(1415)
    xyzw = VarSet(VARS)
    partial = wider = 0

    def on_set(f, atoms) -> tuple[list[int], int]:
        sat = witnessed_cells(atoms, xyzw)
        on = cells.holding_masks(f, atoms, [mask for mask, _ in sat])
        assert on == [mask for mask, witness in sat if evaluate(f, witness)], (f, atoms)
        return on, len(sat)

    for _ in range(400):
        f = canonicalize(rand_formula(rng, rng.randint(1, 4), rand_atom_pool(rng, lo=2, hi=6)))
        atoms = polarity_classes(atoms_of(f))
        if not atoms:
            continue
        on, count = on_set(f, atoms)
        partial += 0 < len(on) < count
        extra = [a for g in rand_atom_pool(more, lo=1, hi=1) for a in atoms_of(canonicalize(g))]
        superset = polarity_classes([*atoms, *extra])
        if len(superset) == len(atoms):
            continue
        wider += 1
        on_set(f, superset)
        for constant, holds in ((TRUE, True), (FALSE, False)):
            on, count = on_set(constant, superset)
            assert len(on) == (count if holds else 0)
    assert partial >= 200 and wider >= 300
