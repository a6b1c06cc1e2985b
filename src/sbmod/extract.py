"""Transition-graph extraction: from scenario scripts to ObjectGraphs.

Extraction explores, at every reachable state of a script (its sync uid or
END_LOCATION, see ``dsl.pending``), each satisfiable complete sign assignment
over the script's predicates, as listed with a solver witness each by
``cells.satisfiable_cells`` over the model's variable set. Each witness is
triggered through the script walk (``dsl.resume``), recording a cell-guarded
edge; ``graphs.explore`` grows the graph from the script's initial state
with that visit. Enumerating complete sign assignments (rather than only
positive predicate subsets) keeps cells pairwise disjoint, so every branch
that is reachable under some cell gets explored and the extracted graph
simulates the script exactly, in both directions.

Self-loops where the object does not wake are left implicit in the extracted
graph; composition and export materialize them as one complement-guard loop.
"""

from __future__ import annotations

from .cells import MAX_CELLS, cell_bound, cell_formula, satisfiable_cells
from .dsl import END_LOCATION, ExtractionError, ScenarioScript, initial_state, pending, resume
from .formulas import Formula, LinearAtom, VarSet, disj, evaluate
from .graphs import ObjectGraph, explore
from .minimize import boolean_minimize


def state_name(location: int) -> str:
    return "end" if location == END_LOCATION else f"s{location}"


class ExtractStats:
    """Instrumentation for extraction runs."""

    __slots__ = ("predicates", "cells_per_state", "satisfiable_cells_per_state")

    def __init__(self) -> None:
        self.predicates: tuple[LinearAtom, ...] | None = None
        self.cells_per_state: dict[str, int] = {}
        self.satisfiable_cells_per_state: dict[str, int] = {}


def extract_graph(
    script: ScenarioScript,
    vars: VarSet,
    stats: ExtractStats | None = None,
) -> ObjectGraph:
    """Breadth-first extraction of a script's underlying transition graph.

    At each discovered state, every satisfiable sign cell over the script's
    predicate set P (cells over the model's ``vars``) is triggered through
    the interpreter by its witness. Edges carry the cell conjunctions as
    guards (merge them afterwards with ``simplify_graph``).
    """
    atoms = script.predicates
    # extraction triggers every satisfiable sign cell at every state
    bound = cell_bound(atoms)
    if bound > MAX_CELLS:
        raise ExtractionError(
            f"object {script.name!r} has up to {bound} sign cells over its {len(atoms)} "
            f"predicates, over the budget of {MAX_CELLS}; reduce distinct predicates in the script")
    if stats is not None:
        stats.predicates = atoms

    cells = [(cell_formula(atoms, mask), model) for mask, model in satisfiable_cells(atoms, vars)]

    def visit(state: int):
        sync, wake = pending(script, state)
        if stats is not None:
            name = state_name(state)
            stats.cells_per_state[name] = 1 << len(atoms)
            stats.satisfiable_cells_per_state[name] = len(cells)
        # a cell that does not wake the script is its implicit self-loop, not recorded
        moves = ((guard, resume(script, state, model)) for guard, model in cells if evaluate(wake, model))
        return sync.request, sync.block, sync.waitfor, sync.bad, moves

    return explore(initial_state(script), state_name, visit)[0]


def simplify_graph(g: ObjectGraph, vars: VarSet) -> ObjectGraph:
    """Merge parallel edges into one disjunction and shrink its formula.

    Rewrites only take effect when the solver certifies equivalence over
    ``vars``, so the run set is preserved exactly.
    """
    groups: dict[tuple[str, str], list[Formula]] = {}
    for e in g.edges:
        groups.setdefault((e.src, e.dst), []).append(e.guard)
    edges = []
    for (src, dst), guards in sorted(groups.items()):
        merged = disj(guards)
        edges.append((src, boolean_minimize(merged, vars), dst))
    return ObjectGraph.make(
        states=g.states,
        initial=g.initial,
        request=g.request,
        block=g.block,
        waitfor=g.waitfor,
        edges=edges,
        bad=g.bad,
    )
