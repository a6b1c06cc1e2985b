"""Transition-graph extraction: from scenario scripts to ObjectGraphs.

An object's graph is grown from the script's initial state (its sync uid or
END_LOCATION, see ``dsl.pending``) by ``graphs.explore`` along the symbolic
script walk (``dsl.symbolic_paths``): out of each state, the conditions of
the feasible paths into one next state merge into one disjunction. A state
yields at most ``cells.MAX_CELLS`` feasible paths.

The simplified graph, which checking, repair and verification read
(``object_graph(..., simplify=True)``), minimizes each merged guard with
``simplify_graph``.

The raw graph (``extract_graph``, printed by ``graph`` without
``--simplify``) presents the same graph per sign cell: each edge is split
into one edge per satisfiable complete sign assignment over the script's
predicates (``cells.satisfiable_masks`` over the model's variable set) on
which its guard holds (``cells.holding_masks``). This is exact with no
witness and no concrete trigger, because path conditions are pairwise
disjoint, cover the wake condition and are constant on every cell; so the
raw edges out of a state are the waking cells, each into the state it leads
to. An object past the cell budget, where ``cells`` lists none, is refused.

Self-loops where the object does not wake are left implicit in the extracted
graph; composition and export materialize them as one complement-guard loop.
"""

from __future__ import annotations

# minimize is deferred (see the package docstring)
from . import minimize
from .cells import MAX_CELLS, cell_formula, holding_masks, satisfiable_masks
from .dsl import (
    END_LOCATION,
    ExtractionError,
    GraphError,
    Model,
    ScenarioScript,
    initial_state,
    pending,
    symbolic_paths,
)
from .formulas import Formula, LinearAtom, VarSet, disj
from .graphs import ObjectGraph, explore


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
    """The script's graph with one edge per satisfiable sign cell over its
    predicates (over ``vars``) that wakes it, into the state it leads to.

    Each edge of the symbolic graph (``_path_graph``) is split over the
    cells on which its guard holds. Edges carry the cell conjunctions as
    guards (merge them afterwards with ``simplify_graph``).
    """
    atoms = script.predicates
    # the raw view lists every satisfiable sign cell at every state
    masks = satisfiable_masks(atoms, vars)
    if masks is None:
        raise ExtractionError(
            f"object {script.name!r} has too many sign cells over its {len(atoms)} "
            f"predicates, over the budget of {MAX_CELLS}; reduce distinct predicates in the script")
    g = _path_graph(script, vars)
    if stats is not None:
        stats.predicates = atoms
        for name in sorted(g.states):
            stats.cells_per_state[name] = 1 << len(atoms)
            stats.satisfiable_cells_per_state[name] = len(masks)
    edges = [(e.src, cell_formula(atoms, mask), e.dst)
             for e in g.edges for mask in holding_masks(e.guard, atoms, masks)]
    return ObjectGraph.make(states=g.states, initial=g.initial, request=g.request, block=g.block,
                            waitfor=g.waitfor, edges=edges, bad=g.bad)


def _path_graph(script: ScenarioScript, vars: VarSet) -> ObjectGraph:
    """The script's graph with one edge per (state, next state), guarded by
    the disjunction of the conditions of the feasible paths between them."""
    def visit(state: int):
        sync, _ = pending(script, state)
        paths: dict[int, list[Formula]] = {}
        for count, (condition, nxt) in enumerate(symbolic_paths(script, state, vars), start=1):
            if count > MAX_CELLS:
                raise ExtractionError(
                    f"object {script.name!r} has more than {MAX_CELLS} feasible paths out of "
                    f"{state_name(state)}, over the path budget; reduce the branches between its syncs")
            paths.setdefault(nxt, []).append(condition)
        moves = ((disj(conditions), nxt) for nxt, conditions in paths.items())
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
        edges.append((src, minimize.boolean_minimize(merged, vars), dst))
    return ObjectGraph.make(
        states=g.states,
        initial=g.initial,
        request=g.request,
        block=g.block,
        waitfor=g.waitfor,
        edges=edges,
        bad=g.bad,
    )


def object_graph(item: ScenarioScript | ObjectGraph, vars: VarSet, simplify: bool = True) -> ObjectGraph:
    """An object's graph: a script is extracted, simplified from its symbolic
    walk or raw with one edge per cell; a graph is taken as it is."""
    if isinstance(item, ObjectGraph):
        return item
    if isinstance(item, ScenarioScript):
        return simplify_graph(_path_graph(item, vars), vars) if simplify else extract_graph(item, vars)
    raise GraphError(f"{item!r} is neither a script nor a graph")


def object_graphs(m: Model, simplify: bool = True) -> list[tuple[str, ObjectGraph]]:
    """Each model object's name and graph (``object_graph``)."""
    return [(o.name, object_graph(o.item, m.vars, simplify)) for o in m.objects]
