"""Transition-graph extraction: from scenario scripts to ObjectGraphs.

The interpreter half advances a script one triggered assignment at a time: a
script waits at a synchronization point, wakes only when the assignment
satisfies its request-or-waitfor condition, then runs straight-line code
(branching on the assignment) to the next sync point, reading the wake condition
and resume frames that ``ScenarioScript`` compiled for each sync. ``resume`` is
that run alone; ``step_script`` tests the wake condition first, and callers
that test it themselves (extraction, the engine) call ``resume``. A script's
state is its program location, the uid of the sync it waits at or
END_LOCATION once it has finished; that the location fully determines the
state is what makes extraction terminate.

The extraction half explores, at every reachable state, each satisfiable
complete sign assignment over the script's predicates, as listed
with a solver witness each by ``cells.satisfiable_cells`` over the model's
variable set. Each witness is triggered through the interpreter, recording
a cell-guarded edge.
Enumerating complete sign assignments (rather than only positive predicate
subsets) keeps cells pairwise disjoint, so every branch that is reachable
under some cell gets explored and the extracted graph simulates the script
exactly, in both directions.

Self-loops where the object does not wake are left implicit in the extracted
graph; composition and export materialize them as one complement-guard loop.
"""

from __future__ import annotations

from .cells import MAX_CELLS, cell_bound, cell_formula, satisfiable_cells
from .dsl import Frames, IfStmt, LoopStmt, ScenarioScript, SyncStmt
from .formulas import FALSE, Assignment, Formula, LinearAtom, VarSet, disj, evaluate
from .graphs import ObjectGraph
from .minimize import boolean_minimize

END_LOCATION = -1  # the state of a finished script; every other state is a sync uid

_FINISHED = SyncStmt()  # a finished script declares nothing


class ExtractionError(ValueError):
    pass


def state_name(location: int) -> str:
    return "end" if location == END_LOCATION else f"s{location}"


def pending(script: ScenarioScript, location: int) -> tuple[SyncStmt, Formula]:
    """The sync that a script at ``location`` waits at, and its wake
    condition; a finished script never wakes. END_LOCATION is -1, so it is
    tested before the script's lists are indexed."""
    if location == END_LOCATION:
        return _FINISHED, FALSE
    return script.syncs[location], script.wakes[location]


def _walk_to_sync(frames: Frames, a: Assignment | None) -> int:
    """Run straight-line control flow until the next sync; returns its uid."""
    stack = list(frames)
    while stack:
        stmts, i = stack.pop()
        while i < len(stmts):
            st = stmts[i]
            if isinstance(st, SyncStmt):
                return st.uid
            if isinstance(st, IfStmt):
                if a is None:
                    raise ExtractionError("conditional reached with no triggered assignment")
                stack.append((stmts, i + 1))
                stmts, i = (st.then if evaluate(st.cond, a) else st.orelse), 0
            elif isinstance(st, LoopStmt):
                stack.append((stmts, i))  # loops repeat forever
                stmts, i = st.body, 0
            else:
                raise TypeError(f"not a statement: {st!r}")
    return END_LOCATION


def initial_state(script: ScenarioScript) -> int:
    return _walk_to_sync(((script.body, 0),), None)


def resume(script: ScenarioScript, location: int, a: Assignment) -> int:
    """The state after the script at ``location`` wakes on ``a``: run on to
    the next sync point.

    The caller has tested the wake condition on ``a``.
    """
    return _walk_to_sync(script.continuations[location], a)


def step_script(script: ScenarioScript, location: int, a: Assignment) -> int:
    """Advance one triggered assignment.

    If the assignment does not satisfy the pending sync's request-or-waitfor
    condition the object does not wake and the state is returned unchanged.
    A finished script absorbs everything.
    """
    return resume(script, location, a) if evaluate(pending(script, location)[1], a) else location


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

    start = initial_state(script)
    order = [start]
    seen = {start}
    edges: list[tuple[str, Formula, str]] = []
    labels_r: dict[str, Formula] = {}
    labels_b: dict[str, Formula] = {}
    labels_w: dict[str, Formula] = {}
    bad: set[str] = set()

    i = 0
    while i < len(order):
        state = order[i]
        i += 1
        name = state_name(state)
        sync, wake = pending(script, state)
        labels_r[name] = sync.request
        labels_b[name] = sync.block
        labels_w[name] = sync.waitfor
        if sync.bad:
            bad.add(name)
        for guard, model in cells:
            if not evaluate(wake, model):
                continue  # no wake: implicit self-loop, not recorded
            nxt = resume(script, state, model)
            edges.append((name, guard, state_name(nxt)))
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
        if stats is not None:
            stats.cells_per_state[name] = 1 << len(atoms)
            stats.satisfiable_cells_per_state[name] = len(cells)

    return ObjectGraph.make(
        states=[state_name(s) for s in order],
        initial=state_name(start),
        request=labels_r,
        block=labels_b,
        waitfor=labels_w,
        edges=edges,
        bad=bad,
    )


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
