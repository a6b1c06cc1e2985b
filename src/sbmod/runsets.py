"""Run sets of composite graphs over the exact sign-cell alphabet.

Every formula of a set of graphs is built from finitely many atoms, so it is
constant on each satisfiable sign cell over their union (``cells.py``). The
cells, one solver witness each, are therefore an exact finite alphabet: an
assignment is the same letter as its cell's witness, with no region left
out, within the cell budget. Runs become words over that alphabet.

A composite moves on a letter only when the letter's cell is enabled at the
current state, and then along the one out-edge whose guard holds on the
cell (or stays put when none does), so the composite is a deterministic
automaton over cells whose every state accepts. Patch verification does not
use this alphabet (``verify.py`` reads its run-set clause off the patched run
graph); the tests decode runs with it, and their reference run-set comparison
(``tests/oracles.py``) is built on it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .cells import MAX_CELLS, satisfiable_masks, sign_mask, witness
from .compose import enabled_guard
from .dsl import GraphError
from .formulas import Assignment, LinearAtom, VarSet, _read_only, _set, atoms_of, evaluate, polarity_classes
from .graphs import ObjectGraph

Move = tuple[tuple, str]  # (cell letter, successor state)


def _graph_atoms(g: ObjectGraph) -> Iterator[LinearAtom]:
    for table in (g.request, g.block, g.waitfor):
        for f in table.values():
            yield from atoms_of(f)
    for e in g.edges:
        yield from atoms_of(e.guard)


class CellSpace:
    """The satisfiable sign cells over the atoms of some graphs.

    A cell's letter (its key) is the tuple of its witness's values over
    ``vars``; ``witnesses`` lists one assignment per cell, and ``keys``
    their letters by sign mask, in the same order. ``for_graphs`` raises
    GraphError past the cell budget, where ``cells`` lists none.
    """

    __slots__ = ("vars", "atoms", "witnesses", "keys")
    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        vars: tuple[str, ...],
        atoms: tuple[LinearAtom, ...],
        witnesses: tuple[Assignment, ...],
        keys: dict[int, tuple],  # sign mask -> key
    ) -> None:
        _set(self, "vars", vars)
        _set(self, "atoms", atoms)
        _set(self, "witnesses", witnesses)
        _set(self, "keys", keys)

    @staticmethod
    def for_graphs(graphs: list[ObjectGraph], vars: VarSet) -> "CellSpace":
        atoms = polarity_classes(a for g in graphs for a in _graph_atoms(g))
        masks = satisfiable_masks(atoms, vars)
        if masks is None:
            raise GraphError(f"the graphs' {len(atoms)} atoms may have more sign cells "
                             f"than MAX_CELLS ({MAX_CELLS})")
        witnesses = tuple(witness(atoms, mask, vars) for mask in masks)
        names = tuple(sorted(set(vars.names).union(*(a.variables() for a in atoms))))
        keys = {mask: tuple(w.values[v] for v in names) for mask, w in zip(masks, witnesses)}
        return CellSpace(names, tuple(atoms), witnesses, keys)

    def key_of(self, a: Assignment) -> tuple:
        """The letter of the cell containing ``a``."""
        return self.keys[sign_mask(self.atoms, a)]


def cell_moves(g: ObjectGraph, q: str, space: CellSpace) -> list[Move]:
    """The move of ``g`` at ``q`` (``ObjectGraph.move``) on every cell enabled
    there, in cell order.

    Raises GraphError when two out-edge guards hold on one enabled cell:
    the graph would not be deterministic over cells.
    """
    enabled = enabled_guard(g, q)
    return [(letter, g.move(q, cell)) for letter, cell in zip(space.keys.values(), space.witnesses)
            if evaluate(enabled, cell)]


class CellRuns:
    """Enabled-cell transition table of one composite graph, per state.

    ``moves`` fills in as ``at`` is asked for states; ``build`` fills it for
    every reachable state up front.
    """

    __slots__ = ("graph", "space", "moves")

    def __init__(self, graph: ObjectGraph, space: CellSpace) -> None:
        self.graph = graph
        self.space = space
        self.moves: dict[str, list[Move]] = {}  # state -> its cell moves

    @staticmethod
    def build(g: ObjectGraph, space: CellSpace) -> "CellRuns":
        runs = CellRuns(g, space)
        for q in g.reachable():
            runs.at(q)
        return runs

    def at(self, q: str) -> list[Move]:
        row = self.moves.get(q)
        if row is None:
            row = self.moves[q] = cell_moves(self.graph, q, self.space)
        return row
