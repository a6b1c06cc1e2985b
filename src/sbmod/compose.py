"""Parallel composition of scenario-object graphs.

The composite of several objects runs them against the same triggered
assignments: states are tuples of part states (named by joining them with
``JOIN``), request/block/waitfor labels are part-wise disjunctions, and a
move takes one out-edge or the implicit stay loop (materialized here) of
each part, whose guard conjunction labels the composite edge. Moves are
listed by a depth-first search over the parts that conjoins one part's
guard at a time onto the canonical prefix and drops every prefix that is
unsatisfiable. Only the part reachable from the initial tuple is built,
which is what keeps desk-scale models small: ``graphs.explore`` grows it
with the one visit that both products share. A composite state is bad as
soon as any part is.

There are two products. ``compose`` keeps every move whose guard is
satisfiable; it is the full product behind ``graph --composite``.
``run_graph`` builds the run graph, on which checking, repair and patch
verification run: it merges the moves into one target tuple into one
minimized guard, as ``simplify_graph`` merges parallel edges, and keeps the
merged edges that can fire (their guard meets the source's
request-and-not-blocked formula), so it builds just the states that runs
reach. Patch verification composes a patch onto a run graph with it too.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from . import solver
from .dsl import GraphError, Model
from .extract import object_graphs, simplify_graph
from .formulas import TRUE, Formula, VarSet, conj, disj, negate
from .graphs import Edge, ObjectGraph, explore
from .minimize import boolean_minimize

JOIN = "⊗"  # the tensor sign keeps component provenance readable

_Move = tuple[Formula, tuple[str, ...]]  # guard conjunction, target tuple


def enabled_guard(g: ObjectGraph, q: str) -> Formula:
    """Formula an assignment must satisfy to be triggered at ``q``:
    requested by someone and blocked by no one."""
    if q not in g.states:
        raise GraphError(f"unknown state {q!r}")
    return conj([g.request[q], negate(g.block[q])])


def _outgoing_with_stay(g: ObjectGraph, q: str) -> list[tuple[Edge, bool]]:
    out: list[tuple[Edge, bool]] = [(e, False) for e in g.out_edges(q)]
    # satisfiability of the stay loop is checked in the product
    out.append((Edge(q, g.stay_guard(q), q), True))
    return out


def _moves(graphs: list[ObjectGraph], qs: tuple[str, ...], vars: VarSet) -> Iterator[_Move]:
    """The moves out of the tuple ``qs`` whose guard conjunction is satisfiable,
    in ``itertools.product`` order, without the move in which every part stays
    (that is the composite's own stay loop)."""
    options = [_outgoing_with_stay(g, q) for g, q in zip(graphs, qs)]
    return _extend(options, vars, 0, TRUE, [], False)


def _extend(options: list[list[tuple[Edge, bool]]], vars: VarSet, i: int, prefix: Formula,
            path: list[str], moved: bool) -> Iterator[_Move]:
    """The moves of ``_moves`` that extend the satisfiable ``prefix``, the
    guard conjunction of the parts before ``i``, whose targets are ``path``;
    ``moved`` tells whether one of those parts left its state. ``path`` is
    one list, extended and restored along the search, so only a whole move
    builds its target tuple."""
    last = i == len(options) - 1
    for e, stay in options[i]:
        if last and stay and not moved:
            continue
        guard = conj([prefix, e.guard])
        if not solver.satisfiable(guard, vars):
            continue  # unsatisfiable, and so is every move extending it
        if last:
            yield guard, (*path, e.dst)
        else:
            path.append(e.dst)
            yield from _extend(options, vars, i + 1, guard, path, moved or not stay)
            path.pop()


def _product(graphs: list[ObjectGraph], vars: VarSet,
             keep: Callable[[Iterator[_Move], Formula, Formula], Iterable[_Move]]
             ) -> tuple[ObjectGraph, dict[str, tuple[str, ...]]]:
    """The product reachable from the initial tuple, and its state -> tuple map.

    Out of each tuple it keeps the edges that ``keep`` makes of the tuple's
    moves and its request and block labels.
    """
    def visit(qs: tuple[str, ...]):
        request = disj([g.request[q] for g, q in zip(graphs, qs)])
        block = disj([g.block[q] for g, q in zip(graphs, qs)])
        waitfor = disj([g.waitfor[q] for g, q in zip(graphs, qs)])
        bad = any(q in g.bad for g, q in zip(graphs, qs))
        moves = keep(_moves(graphs, qs, vars), request, block)
        return request, block, waitfor, bad, moves

    return explore(tuple(g.initial for g in graphs), JOIN.join, visit)


def compose(g1: ObjectGraph, g2: ObjectGraph, vars: VarSet) -> ObjectGraph:
    """Reachable product of two object graphs over the caller's variable set."""
    return _product([g1, g2], vars, lambda moves, *_: moves)[0]


def run_graph(graphs: list[ObjectGraph],
              vars: VarSet) -> tuple[ObjectGraph, dict[str, tuple[str, ...]]]:
    """The run graph of the parts' product, and its state -> tuple map: the
    tuples that runs reach.

    The moves into one target tuple merge into one edge guarded by
    ``boolean_minimize`` of their disjunction, and an edge is kept when that
    guard meets the source's request-and-not-blocked formula. Merging before
    the cut keeps a merged guard whole, as in the simplified full composite.
    """
    def merged_enabled(moves: Iterator[_Move], request: Formula, block: Formula) -> Iterator[_Move]:
        groups: dict[str, tuple[tuple[str, ...], list[Formula]]] = {}
        for guard, targets in moves:
            groups.setdefault(JOIN.join(targets), (targets, []))[1].append(guard)
        enabled = conj([request, negate(block)])
        for dst in sorted(groups):
            targets, guards = groups[dst]
            guard = boolean_minimize(disj(guards), vars)
            if solver.satisfiable(conj([guard, enabled]), vars):
                yield guard, targets

    return _product(graphs, vars, merged_enabled)


def compose_all(m: Model, simplify: bool = True) -> ObjectGraph:
    """Left fold of the composition over the model's objects, in order."""
    graphs = object_graphs(m, simplify=simplify)
    if not graphs:
        raise GraphError("model has no objects")
    result = graphs[0][1]
    # binary, not one n-ary _product: each intermediate composite's moves are shared by many tuples
    for _, g in graphs[1:]:
        result = compose(result, g, m.vars)
    if simplify:
        result = simplify_graph(result, m.vars)
    return result
