"""Guard-formula minimization over sign cells of the formula's own atoms.

A formula over atoms a1..an is constant on each sign cell (a complete
true/false choice per atom), so it is a Boolean function of the atom signs.
``cells.satisfiable_cells`` lists the satisfiable cells with a witness each:
the ON set is the cells whose witness satisfies the formula, and the cells it
does not list are arithmetically unsatisfiable (e.g. h >= 10 and h < 0
together), can never occur, and act as don't-cares. Quine-McCluskey with
those don't-cares yields a small disjunction of literal conjunctions; the
result is only used when the solver certifies equivalence with the input, so
this is purely a readability transform and never changes semantics.
"""

from __future__ import annotations

from . import cells, solver
from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    LinearAtom,
    Or,
    VarSet,
    atoms_of,
    canonicalize,
    conj,
    evaluate,
)

_MAX_ATOMS = 12


def _combine(implicants: set[tuple[int, int]]) -> set[tuple[int, int]]:
    # implicant = (values, care_mask); merge pairs differing in one cared bit
    out: set[tuple[int, int]] = set()
    merged: set[tuple[int, int]] = set()
    items = sorted(implicants)
    for i, (va, ca) in enumerate(items):
        for vb, cb in items[i + 1:]:
            if ca != cb:
                continue
            diff = va ^ vb
            if diff and not (diff & (diff - 1)):
                out.add((va & ~diff, ca & ~diff))
                merged.add((va, ca))
                merged.add((vb, cb))
    out |= implicants - merged
    return out


def _prime_implicants(on: set[int], dc: set[int], n: int) -> list[tuple[int, int]]:
    full = (1 << n) - 1
    current: set[tuple[int, int]] = {(m, full) for m in on | dc}
    while True:
        nxt = _combine(current)
        if nxt == current:
            break
        current = nxt
    return sorted(current)


def _covers(implicant: tuple[int, int], minterm: int) -> bool:
    value, care = implicant
    return (minterm & care) == (value & care)


def _select_cover(on: set[int], primes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    remaining = set(on)
    chosen: list[tuple[int, int]] = []
    cover_map = {p: {m for m in on if _covers(p, m)} for p in primes}
    # essential primes first
    for m in sorted(on):
        owners = [p for p in primes if m in cover_map[p]]
        if len(owners) == 1 and owners[0] not in chosen:
            chosen.append(owners[0])
            remaining -= cover_map[owners[0]]
    while remaining:
        best = max(
            primes,
            key=lambda p: (len(cover_map[p] & remaining), bin(~p[1]).count("1"), [-x for x in p]),
        )
        if not cover_map[best] & remaining:
            raise AssertionError("prime cover selection stalled")
        chosen.append(best)
        remaining -= cover_map[best]
    return chosen


def _implicant_formula(implicant: tuple[int, int], atoms: list[LinearAtom]) -> Formula:
    value, care = implicant
    literals = []
    for i, a in enumerate(atoms):
        if (care >> i) & 1:
            literals.append(Atom(a) if (value >> i) & 1 else Atom(a.negated()))
    return conj(literals) if literals else TRUE


def boolean_minimize(f: Formula, vars: VarSet) -> Formula:
    """Smallest equivalent disjunction-of-conjunctions found, else ``f``."""
    f = canonicalize(f)
    atoms = cells.polarity_classes(atoms_of(f))
    if not atoms or len(atoms) > _MAX_ATOMS:
        return f
    sat = cells.satisfiable_cells(atoms, vars)
    n = len(atoms)
    on = {mask for mask, witness in sat if evaluate(f, witness)}
    if not on:
        return FALSE
    dc = set(range(1 << n)) - {mask for mask, _ in sat}
    primes = _prime_implicants(on, dc, n)
    cover = _select_cover(on, primes)
    result = canonicalize(Or(tuple(_implicant_formula(p, atoms) for p in cover)))
    if _smaller(result, f) and solver.equivalent(result, f, vars):
        return result
    return f


def _size(f: Formula) -> int:
    if isinstance(f, (And, Or)):
        return 1 + sum(_size(c) for c in f.children)
    return 1


def _smaller(candidate: Formula, original: Formula) -> bool:
    return _size(candidate) <= _size(original)
