"""Satisfiable sign cells over an ordered list of atoms, as masks.

A sign cell over atoms a0..a(n-1) (one per {atom, negated atom} pair) is a
complete truth-value choice per atom, written as a mask whose bit i is the
sign of ai. Every formula over those atoms is constant on each cell, so the
satisfiable cells stand for all assignments. ``satisfiable_masks`` is the
one enumerator, and ``holding_masks`` gives the cells on which a formula
holds (a guard's ON cells; the cells that take an edge; the cells inside
the engine's selection formula). Guard minimization, the raw per-cell
extraction and the engine's ``random-cell`` draw read masks alone;
``witness`` asks the solver for a point of one cell, for the cell the
engine drew and for run sets (cells are the alphabet of runs).

When every atom has one variable, the cells are read off the number line
without a query: a variable's t distinct constants cut its line into 2t + 1
pieces (the constants and the open intervals between and beyond them), the
atoms on that variable are constant on each piece, so one sample point per
piece gives that variable's sign vectors, and since the variables are
independent the cells are all the combinations of one vector per variable.
Otherwise enumeration is a depth-first search over partial sign vectors. A
prefix the solver finds unsatisfiable is pruned with all its completions,
and a prefix the parent's witness already satisfies needs no query, so the
work follows the number of satisfiable cells rather than 2^n. A cell's
witness is the solver's model of the full cell conjunction, one query per
cell, which the solver's cache remembers. The enumerator answers None,
before any query, when the cells may number more than ``MAX_CELLS``: the
count is the product of each variable's line-piece vectors (exact),
doubled per atom over several variables.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import prod

from . import solver
from .formulas import And, Assignment, Atom, FalseF, Formula, LinearAtom, Or, TrueF, VarSet, conj

# enumeration costs prefix queries when an atom has two variables, so cells
# are listed only up to the 2^12 cells of 12 independent atoms: past it, the
# minimizer leaves a guard as written, the raw per-cell extraction and run
# sets refuse, and the engine's ``random-cell`` policy falls back to the
# solver's model. Witnesses serve only the cell the engine drew and run
# sets. The symbolic extraction allows as many feasible paths out of a state.
MAX_CELLS = 1 << 12

# mask tables, keyed by (atom keys, variable names), kept by solver.remember
_masks: dict[tuple, tuple[int, ...]] = {}


def _literal(a: LinearAtom, positive: bool) -> Formula:
    return Atom(a) if positive else Atom(a.negated())


def cell_formula(atoms: Sequence[LinearAtom], mask: int) -> Formula:
    """Conjunction asserting each atom positively (bit set) or negatively."""
    return conj([_literal(a, bool((mask >> i) & 1)) for i, a in enumerate(atoms)])


def sign_mask(atoms: Sequence[LinearAtom], a: Assignment) -> int:
    """The mask of the cell that contains the assignment ``a``."""
    return sum(1 << i for i, atom in enumerate(atoms) if atom.holds(a.values))


def satisfiable_masks(atoms: Sequence[LinearAtom], vars: VarSet) -> tuple[int, ...] | None:
    """The masks of all satisfiable cells over ``atoms``, ascending, or None
    when they may number more than ``MAX_CELLS``."""
    key = (tuple(a.key() for a in atoms), vars.names)
    return solver.remember(_masks, key, lambda: _enumerate(atoms, vars))


def holding_masks(f: Formula, atoms: Sequence[LinearAtom], masks: Sequence[int]) -> list[int]:
    """The masks, among the cell masks ``masks`` over ``atoms``, of the cells
    on which the canonical ``f`` holds, in the order of ``masks``; every atom
    of ``f`` is one of ``atoms`` or its negation. One walk of ``f`` over
    per-atom cell bitsets: bit j of atom i's column is set when ``masks[j]``
    has bit i set, a negated atom's column is the complement, ``And`` is
    ``&``, ``Or`` is ``|``, ``TRUE`` is every cell and ``FALSE`` none."""
    every = (1 << len(masks)) - 1
    column: dict[tuple, int] = {}
    for i, a in enumerate(atoms):
        bits = sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1)
        column[a.key()] = bits
        column[a.negated().key()] = every ^ bits
    on = _cell_bits(f, column, every)
    return [mask for j, mask in enumerate(masks) if on >> j & 1]


def _cell_bits(g: Formula, column: dict[tuple, int], every: int) -> int:
    """The bitset of the cells on which ``g`` holds (``holding_masks``)."""
    if isinstance(g, Atom):
        return column[g.atom.key()]
    if isinstance(g, And):
        bits = every
        for c in g.children:
            bits &= _cell_bits(c, column, every)
        return bits
    if isinstance(g, Or):
        bits = 0
        for c in g.children:
            bits |= _cell_bits(c, column, every)
        return bits
    if isinstance(g, TrueF):
        return every
    if isinstance(g, FalseF):
        return 0
    raise TypeError(f"unexpected node in canonical formula: {g!r}")


def _enumerate(atoms: Sequence[LinearAtom], vars: VarSet) -> tuple[int, ...] | None:
    pieces = _line_pieces(atoms)
    several = sum(len(a.coeffs) > 1 for a in atoms)
    if prod(map(len, pieces)) << several > MAX_CELLS:
        return None
    if not several:
        masks = {0}
        for vectors in pieces:
            masks = {m | v for m in masks for v in vectors}
        return tuple(sorted(masks))
    found: list[int] = []
    # prefix witnesses must cover every atom's variables, not just ``vars``
    everything = VarSet(tuple(set(vars.names).union(*(a.variables() for a in atoms))))
    _descend(atoms, everything, found, 0, 0, [], Assignment({v: Fraction(0) for v in everything.names}))
    return tuple(sorted(found))


def _descend(atoms: Sequence[LinearAtom], everything: VarSet, found: list[int],
             i: int, mask: int, literals: list[Formula], witness: Assignment) -> None:
    """Append to ``found`` the satisfiable cells that extend the prefix
    ``mask`` over ``atoms[:i]``, which is satisfiable, and which ``witness``
    satisfies. Queries pass the plain conjunction: check_sat canonicalizes
    it anyway."""
    if i == len(atoms):
        found.append(mask)
        return
    for positive in (False, True):
        prefix = literals + [_literal(atoms[i], positive)]
        inside = witness
        if atoms[i].holds(witness.values) != positive:
            inside = solver.check_sat(And(tuple(prefix)), everything)
            if inside is None:
                continue
        _descend(atoms, everything, found, i + 1, mask | (positive << i), prefix, inside)


def witness(atoms: Sequence[LinearAtom], mask: int, vars: VarSet) -> Assignment:
    """The solver's model of the satisfiable cell ``mask``, queried as the
    plain conjunction of its literals in atom order
    (``check_sat(cell_formula(atoms, mask), vars)``)."""
    literals = tuple(_literal(a, bool((mask >> i) & 1)) for i, a in enumerate(atoms))
    return solver.check_sat(And(literals), vars)


def _line_pieces(atoms: Sequence[LinearAtom]) -> list[set[int]]:
    """The sign vectors, as masks, of the one-variable atoms on each variable.

    A variable's vectors are those of its atoms at one point of each of the
    2t + 1 pieces that its t distinct constants cut the line into; the
    variables are independent, so the satisfiable cells over the one-variable
    atoms are every OR of one vector each.
    """
    by_var: dict[str, list[int]] = {}
    for i, a in enumerate(atoms):
        if len(a.coeffs) == 1:
            by_var.setdefault(a.coeffs[0][0], []).append(i)
    pieces = []
    for var, indices in by_var.items():
        consts = sorted({atoms[i].const for i in indices})
        points = [consts[0] - 1, *consts, consts[-1] + 1]
        points += [(lo + hi) / 2 for lo, hi in zip(consts, consts[1:])]
        pieces.append({sum(1 << i for i in indices if atoms[i].holds({var: p})) for p in points})
    return pieces
