"""Run sets of composite graphs over the exact sign-cell alphabet.

Every formula of a set of graphs is built from finitely many atoms, so it is
constant on each satisfiable sign cell over their union (``cells.py``). The
cells, one solver witness each, are therefore an exact finite alphabet: an
assignment is the same letter as its cell's witness, with no region left
out and no restriction on the atoms. Runs become words over that alphabet,
which makes "the patched model removes exactly the violating runs and
nothing else" checkable by exhaustive bounded-depth comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .cells import polarity_classes, satisfiable_cells, sign_mask
from .compose import enabled_guard
from .formulas import Assignment, LinearAtom, VarSet, atoms_of, evaluate
from .graphs import ObjectGraph


def _graph_atoms(g: ObjectGraph) -> Iterator[LinearAtom]:
    for table in (g.request, g.block, g.waitfor):
        for f in table.values():
            yield from atoms_of(f)
    for e in g.edges:
        yield from atoms_of(e.guard)


@dataclass(frozen=True)
class CellSpace:
    """The satisfiable sign cells over the atoms of some graphs.

    A cell's letter (its key) is the tuple of its witness's values over
    ``vars``; ``witnesses`` lists one assignment per cell.
    """

    vars: tuple[str, ...]
    atoms: tuple[LinearAtom, ...]
    witnesses: tuple[Assignment, ...]
    keys: dict[int, tuple] = field(compare=False, repr=False)  # sign mask -> key

    @staticmethod
    def for_graphs(graphs: list[ObjectGraph], vars: VarSet) -> "CellSpace":
        atoms = polarity_classes(a for g in graphs for a in _graph_atoms(g))
        cells = satisfiable_cells(atoms, vars)
        names = tuple(sorted(set(vars.names).union(*(a.variables() for a in atoms))))
        keys = {mask: tuple(w.values[v] for v in names) for mask, w in cells}
        return CellSpace(names, tuple(atoms), tuple(w for _, w in cells), keys)

    def key_of(self, a: Assignment) -> tuple:
        """The letter of the cell containing ``a``."""
        return self.keys[sign_mask(self.atoms, a)]


@dataclass
class CellRuns:
    """Per-state enabled-cell transition table of one composite graph."""

    graph: ObjectGraph
    space: CellSpace
    moves: dict[str, list[tuple[tuple, str]]]  # state -> [(cell key, successor)]

    @staticmethod
    def build(g: ObjectGraph, space: CellSpace) -> "CellRuns":
        moves: dict[str, list[tuple[tuple, str]]] = {}
        for q in g.reachable():
            enabled = enabled_guard(g, q)
            out = g.out_edges(q)
            table: list[tuple[tuple, str]] = []
            for cell in space.witnesses:
                if not evaluate(enabled, cell):
                    continue
                dst = q  # implicit stay when no edge matches
                for e in out:
                    if evaluate(e.guard, cell):
                        dst = e.dst
                        break
                table.append((space.key_of(cell), dst))
            moves[q] = table
        return CellRuns(g, space, moves)

    def runs(self, depth: int, avoid: Optional[frozenset] = None) -> set[tuple]:
        """All cell-words of length <= depth (optionally avoiding some states)."""
        banned = avoid if avoid is not None else frozenset()
        out: set[tuple] = set()

        def walk(state: str, prefix: tuple) -> None:
            if len(prefix) == depth:
                return
            for key, dst in self.moves[state]:
                if dst in banned:
                    continue
                word = prefix + (key,)
                out.add(word)
                walk(dst, word)

        if self.graph.initial in banned:
            return out
        walk(self.graph.initial, ())
        return out

    def accepts(self, word: tuple, avoid: Optional[frozenset] = None) -> bool:
        banned = avoid if avoid is not None else frozenset()
        state = self.graph.initial
        for key in word:
            nxt = None
            for k, dst in self.moves[state]:
                if k == key:
                    nxt = dst
                    break
            if nxt is None or nxt in banned:
                return False
            state = nxt
        return True


def runs_equal_minus_violations(
    original: CellRuns, patched: CellRuns, depth: int, doomed: Optional[frozenset] = None
) -> Optional[tuple]:
    """Check runs(patched) == runs(original) minus violating runs, exactly.

    A finite run counts as violating once it enters ``doomed`` (the bad
    attractor: from there every maximal continuation reaches a bad state), so
    the comparison matches removal of violating maximal runs. Works by
    synchronized, memoized descent over the two transition tables, which
    decides set equality of the depth-bounded run sets without materializing
    them. Returns None on success, else a differing word (on one side only).
    """
    banned = doomed if doomed is not None else original.graph.bad
    memo: set[tuple[str, str, int]] = set()

    def rec(qa: str, qb: str, d: int, prefix: tuple) -> Optional[tuple]:
        if d == 0 or (qa, qb, d) in memo:
            return None
        steps_a = {key: dst for key, dst in original.moves[qa] if dst not in banned}
        steps_b = {key: dst for key, dst in patched.moves[qb]}
        for key, dst in patched.moves[qb]:
            if dst in patched.graph.bad:
                return prefix + (key,)  # a violating run survived the patch
        if set(steps_a) != set(steps_b):
            diff = set(steps_a) ^ set(steps_b)
            return prefix + (sorted(diff)[0],)
        for key in steps_a:
            found = rec(steps_a[key], steps_b[key], d - 1, prefix + (key,))
            if found is not None:
                return found
        memo.add((qa, qb, d))
        return None

    return rec(original.graph.initial, patched.graph.initial, depth, ())
