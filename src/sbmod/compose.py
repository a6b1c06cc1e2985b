"""Parallel composition of scenario-object graphs.

The composite of several objects runs them against the same triggered
assignments: states are tuples of part states (named by joining them with
``JOIN``), request/block/waitfor labels are part-wise disjunctions, and a
move takes one out-edge or the implicit stay loop (materialized here) of
each part, whose guard conjunction labels the composite edge. Only the part
reachable from the initial tuple is built, which is what keeps desk-scale
models small. A composite state is bad as soon as any part is.

``compose`` keeps every move whose guard is satisfiable; it is the full
product behind ``graph --composite``. ``compose_enabled`` keeps only the
moves that can fire (their guard meets the source's request-and-not-blocked
formula), so it builds just the states that runs reach. Over one part it
cuts a composite down to its run graph, on which checking, repair and patch
verification all run; over two it composes a patch onto that run graph.
"""

from __future__ import annotations

import itertools

from . import solver
from .dsl import ScenarioScript
from .extract import extract_graph, simplify_graph
from .formulas import Formula, VarSet, conj, disj, negate
from .graphs import Edge, GraphError, Model, ObjectGraph

JOIN = "⊗"  # the tensor sign keeps component provenance readable


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


def _product(graphs: list[ObjectGraph], vars: VarSet,
             enabled_only: bool) -> tuple[ObjectGraph, dict[str, tuple[str, ...]]]:
    """The product reachable from the initial tuple, and its state -> tuple map.

    Keeps each move whose guard conjunction is satisfiable, or, with
    ``enabled_only``, meets the tuple's request-and-not-blocked formula.
    """
    start = tuple(g.initial for g in graphs)
    init = JOIN.join(start)
    parts: dict[str, tuple[str, ...]] = {init: start}
    order = [init]
    edges: list[tuple[str, Formula, str]] = []
    request: dict[str, Formula] = {}
    block: dict[str, Formula] = {}
    waitfor: dict[str, Formula] = {}
    bad: set[str] = set()

    i = 0
    while i < len(order):
        name = order[i]
        qs = parts[name]
        i += 1
        request[name] = disj([g.request[q] for g, q in zip(graphs, qs)])
        block[name] = disj([g.block[q] for g, q in zip(graphs, qs)])
        waitfor[name] = disj([g.waitfor[q] for g, q in zip(graphs, qs)])
        if any(q in g.bad for g, q in zip(graphs, qs)):
            bad.add(name)
        enabled = conj([request[name], negate(block[name])]) if enabled_only else None
        for move in itertools.product(*(_outgoing_with_stay(g, q) for g, q in zip(graphs, qs))):
            if all(stay for _, stay in move):
                continue  # every part stays: that is the composite's own stay loop
            guard = conj([e.guard for e, _ in move])
            query = guard if enabled is None else conj([guard, enabled])
            if not solver.check_sat(query, vars).is_sat:
                continue
            targets = tuple(e.dst for e, _ in move)
            dst = JOIN.join(targets)
            if dst not in parts:
                parts[dst] = targets
                order.append(dst)
            edges.append((name, guard, dst))

    graph = ObjectGraph.make(
        states=order,
        initial=init,
        request=request,
        block=block,
        waitfor=waitfor,
        edges=edges,
        bad=bad,
    )
    return graph, parts


def compose(g1: ObjectGraph, g2: ObjectGraph, vars: VarSet) -> ObjectGraph:
    """Reachable product of two object graphs over the caller's variable set."""
    return _product([g1, g2], vars, enabled_only=False)[0]


def compose_enabled(graphs: list[ObjectGraph],
                    vars: VarSet) -> tuple[ObjectGraph, dict[str, tuple[str, ...]]]:
    """The product along enabled moves only, and its state -> tuple map.

    Its states are the tuples that runs reach and its edges are exactly the
    enabled moves. Over one graph it keeps that graph's state names, and
    each state's out-edges are the graph's own enabled ones, in order.
    """
    return _product(graphs, vars, enabled_only=True)


def object_graphs(m: Model, simplify: bool = True) -> list[tuple[str, ObjectGraph]]:
    """Each model object's graph; scripts are extracted (and simplified)."""
    out = []
    for named in m.objects:
        if isinstance(named.item, ObjectGraph):
            out.append((named.name, named.item))
        elif isinstance(named.item, ScenarioScript):
            g = extract_graph(named.item, m.vars)
            out.append((named.name, simplify_graph(g, m.vars) if simplify else g))
        else:
            raise GraphError(f"object {named.name!r} is neither a script nor a graph")
    return out


def compose_all(m: Model, simplify: bool = True) -> ObjectGraph:
    """Left fold of the composition over the model's objects, in order."""
    graphs = object_graphs(m, simplify=simplify)
    if not graphs:
        raise GraphError("model has no objects")
    result = graphs[0][1]
    for _, g in graphs[1:]:
        result = compose(result, g, m.vars)
    if simplify:
        result = simplify_graph(result, m.vars)
    return result
