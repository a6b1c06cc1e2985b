"""Guard-formula minimization over sign cells of the formula's own atoms.

A formula over atoms a1..an is constant on each sign cell (a complete
true/false choice per atom), so it is a Boolean function of the atom signs.
``cells.satisfiable_masks`` lists the satisfiable cells by their masks,
with no witness: the ON set is the cells on which the formula holds, the OFF
set the other satisfiable cells. An atom's truth on a cell is its bit in the
cell's mask, so the ON set comes from one walk of the formula over per-atom
bitsets across the cells (``cells.holding_masks``). Over one-variable atoms
the masks are read off the number line, so the cells cost no query at all.
Cells it does not list are arithmetically unsatisfiable (e.g. h >= 10 and
h < 0 together), can never occur, and act as don't-cares, but they are never
built: the prime implicants through each ON cell are read off the OFF cells
alone, as minimal hitting sets of the bits in which each OFF cell differs
from it, so the work follows |ON|, |OFF| and n rather than 2^n. A greedy
cover of the ON cells by those primes gives a small disjunction of literal
conjunctions; the result is only used when the solver certifies equivalence
with the input (``solver.equivalent``, a decision-only search that builds no
model), so this is purely a readability transform and never changes
semantics. Guards past the cell budget, where ``cells`` lists none, are
left as written. Results are remembered per process.
"""

from __future__ import annotations

from collections.abc import Iterable

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
    disj,
    formula_key,
    polarity_classes,
)

# results keyed by (formula key, variable names), kept by solver.remember
_cache: dict[tuple, Formula] = {}


def _minimal_sets(masks: Iterable[int], kept: list[int]) -> list[int]:
    """Append to ``kept``, smallest first, each of ``masks`` that includes no
    mask already kept; no kept mask then includes another if none did."""
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _hitting_sets(edges: Iterable[int]) -> list[int]:
    """Minimal hitting sets of ``edges`` (bitmasks), by Berge's algorithm."""
    sets = [0]
    for e in _minimal_sets(edges, []):
        bits = [1 << i for i in range(e.bit_length()) if (e >> i) & 1]
        hit = [s for s in sets if s & e]
        sets = _minimal_sets((s | b for s in sets if not s & e for b in bits), hit)
    return sets


def _prime_implicants(on: set[int], off: set[int]) -> list[tuple[int, int]]:
    # implicant = (values, care_mask). A cube through ON cell m avoids OFF
    # cell o iff its care mask meets m ^ o, so the primes through m are the
    # cubes (m & C, C) for the minimal hitting sets C of {m ^ o : o in OFF}.
    primes = {(m & c, c) for m in on for c in _hitting_sets(m ^ o for o in off)}
    return sorted(primes)


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
    return solver.remember(_cache, (formula_key(f), vars.names), lambda: _minimize(f, vars))


def _minimize(f: Formula, vars: VarSet) -> Formula:
    atoms = polarity_classes(atoms_of(f))
    masks = cells.satisfiable_masks(atoms, vars) if atoms else None
    if masks is None:
        return f
    on = set(cells.holding_masks(f, atoms, masks))
    if not on:
        return FALSE
    primes = _prime_implicants(on, set(masks) - on)
    cover = _select_cover(on, primes)
    result = disj(_implicant_formula(p, atoms) for p in cover)
    if _smaller(result, f) and solver.equivalent(result, f, vars):
        return result
    return f


def _size(f: Formula) -> int:
    if isinstance(f, (And, Or)):
        return 1 + sum(_size(c) for c in f.children)
    return 1


def _smaller(candidate: Formula, original: Formula) -> bool:
    return _size(candidate) <= _size(original)
