"""Parallel composition of scenario-object graphs.

The composite of two objects runs them against the same triggered
assignments: states are pairs, request/block/waitfor labels are element-wise
disjunctions, and an edge exists for each pair of component transitions
(including the implicit stay loops, materialized here) whose guard
conjunction is satisfiable. Only the part reachable from the initial pair is
built, which is what keeps desk-scale models small. A composite state is bad
as soon as either component is.

Note that reachability in ``compose`` follows all satisfiable guards, not
only enabled ones: whether an edge can actually fire during execution (its
guard meets the state's request-and-not-blocked formula) is a verification
concern. ``compose_enabled`` runs the same product loop but keeps only the
edges that can fire, so it builds just the states that runs reach; the
verifier uses it for the patched system.
"""

from __future__ import annotations

from typing import Optional

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


def _product(g1: ObjectGraph, g2: ObjectGraph, vars: VarSet,
             enabled_only: bool) -> tuple[ObjectGraph, dict[str, tuple[str, str]]]:
    """The product reachable from the initial pair, and its pair map.

    Keeps each pair of component edges whose guard conjunction is
    satisfiable, or, with ``enabled_only``, meets the pair's request-and-not-
    blocked formula.
    """
    init = f"{g1.initial}{JOIN}{g2.initial}"
    pairs: dict[str, tuple[str, str]] = {init: (g1.initial, g2.initial)}
    order = [init]
    edges: list[tuple[str, Formula, str]] = []
    request: dict[str, Formula] = {}
    block: dict[str, Formula] = {}
    waitfor: dict[str, Formula] = {}
    bad: set[str] = set()

    i = 0
    while i < len(order):
        name = order[i]
        a, b = pairs[name]
        i += 1
        request[name] = disj([g1.request[a], g2.request[b]])
        block[name] = disj([g1.block[a], g2.block[b]])
        waitfor[name] = disj([g1.waitfor[a], g2.waitfor[b]])
        if a in g1.bad or b in g2.bad:
            bad.add(name)
        enabled = conj([request[name], negate(block[name])]) if enabled_only else None
        for e1, stay1 in _outgoing_with_stay(g1, a):
            for e2, stay2 in _outgoing_with_stay(g2, b):
                if stay1 and stay2:
                    continue  # both stay: that is the composite's own stay loop
                guard = conj([e1.guard, e2.guard])
                query = guard if enabled is None else conj([guard, enabled])
                if not solver.check_sat(query, vars).is_sat:
                    continue
                dst = f"{e1.dst}{JOIN}{e2.dst}"
                if dst not in pairs:
                    pairs[dst] = (e1.dst, e2.dst)
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
    return graph, pairs


def compose(g1: ObjectGraph, g2: ObjectGraph, vars: Optional[VarSet] = None) -> ObjectGraph:
    """Reachable product of two object graphs over a common variable set."""
    if vars is None:
        from .graphs import _graph_vars

        names = set(_graph_vars(g1).names) | set(_graph_vars(g2).names)
        vars = VarSet(tuple(names))
    return _product(g1, g2, vars, enabled_only=False)[0]


def compose_enabled(g1: ObjectGraph, g2: ObjectGraph,
                    vars: VarSet) -> tuple[ObjectGraph, dict[str, tuple[str, str]]]:
    """The product along enabled moves only, and its state -> pair map.

    Its states are the pairs that runs reach and its edges are exactly the
    enabled ones, so each state's out-edges are the row ``compose`` followed
    by an enabled-edge filter gives there: the same guards, in the same order.
    """
    return _product(g1, g2, vars, enabled_only=True)


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
