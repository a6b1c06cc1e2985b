"""Graph -> script structuring: the statements of a new scenario object.

A repair adds a patch object to the model and edits no existing object, so
this is the code that writes that object, and only ``repair`` executes it;
``dsl.emit_script`` prints what ``structure_graph`` returns. The graph must
be deterministic (out-edge guards at a state pairwise unsatisfiable and
covering exactly its wake condition), and its shape must be expressible with
structured control flow: a state with one successor continues straight on,
a branching state becomes an ``if`` chain whose arms may rejoin in a shared
suffix, a self-looping state becomes a terminal ``loop``, and every cycle is
one outer ``loop`` back to the initial state. Anything else raises
``EmissionError``. An ``if`` whose two arms print the same text is then
replaced by that text, innermost first (``_collapse``), so a patch is not
written out once per arm.
"""

from __future__ import annotations

from . import solver
from .dsl import EmissionError, IfStmt, LoopStmt, SyncStmt, format_statements
from .formulas import Formula, VarSet, conj, disj, negate
from .graphs import Edge, ObjectGraph, _graph_vars, bfs_tree
from .minimize import boolean_minimize

_LOOP_END = "$loop-end"


def structure_graph(g: ObjectGraph) -> list:
    vars = _graph_vars(g)

    reachable = g.reachable()
    adv: dict[str, list[Edge]] = {}
    terminal: set[str] = set()
    for q in reachable:
        out = g.out_edges(q)
        for a in out:
            for b in out:
                if a.key() < b.key() and solver.satisfiable(conj([a.guard, b.guard]), vars):
                    raise EmissionError(f"state {q!r} has overlapping guards; graph is nondeterministic")
        covered = disj([e.guard for e in out])
        if not solver.equivalent(covered, g.wake(q), vars):
            raise EmissionError(f"state {q!r}: out-edge guards do not match its wake condition")
        selfs = [e for e in out if e.dst == q]
        others = [e for e in out if e.dst != q]
        if selfs and others:
            raise EmissionError(f"state {q!r} mixes a self-loop with outgoing transitions")
        if selfs:
            terminal.add(q)
            adv[q] = []
        else:
            adv[q] = sorted(others, key=Edge.key)

    # cycles are only expressible as one outer loop back to the initial state
    wrap_loop = False
    for q in reachable:
        kept = []
        for e in adv[q]:
            if e.dst == g.initial:
                wrap_loop = True
                kept.append(Edge(e.src, e.guard, _LOOP_END))
            else:
                kept.append(e)
        adv[q] = kept
    _check_acyclic(g.initial, adv)

    walk = _Structurer(g, vars, reachable, adv, terminal)
    body = _collapse(walk.region(g.initial, frozenset()))
    if wrap_loop:
        body = [LoopStmt(body)]
    missing = set(reachable) - walk.emitted
    if missing:
        raise EmissionError(f"states {sorted(missing)} were not structured")
    return body


class _Structurer:
    """The structuring walk over one graph's forward edges ``adv`` (edges
    back to the initial state lead to ``_LOOP_END``): ``region`` writes the
    code from a state up to a set of stops, and ``emitted`` collects the
    states it has written. The walk's methods recurse into each other through
    the instance, which refers to none of them, so a walk leaves no
    reference cycle behind."""

    __slots__ = ("g", "vars", "reachable", "adv", "terminal", "emitted")

    def __init__(self, g: ObjectGraph, vars: VarSet, reachable: list[str],
                 adv: dict[str, list[Edge]], terminal: set[str]) -> None:
        self.g = g
        self.vars = vars
        self.reachable = reachable
        self.adv = adv
        self.terminal = terminal
        self.emitted: set[str] = set()

    def reach_from(self, q: str, stops: frozenset[str]) -> set[str]:
        if q == _LOOP_END or q in stops:
            return set()
        adv = self.adv

        def onward(cur: str) -> list[Edge]:
            return [e for e in adv[cur] if e.dst != _LOOP_END and e.dst not in stops]

        return {q} | {e.dst for e in bfs_tree(q, onward)}

    def region(self, q: str, stops: frozenset[str]) -> list:
        # a run of single-edge states is one loop; only branches recurse
        g, adv, emitted = self.g, self.adv, self.emitted
        code: list = []
        while q != _LOOP_END and q not in stops:
            if q in emitted:
                raise EmissionError(f"state {q!r} is reached from structurally incompatible contexts")
            emitted.add(q)
            sync = SyncStmt(request=g.request[q], waitfor=g.waitfor[q], block=g.block[q], bad=q in g.bad)
            if q in self.terminal or not adv[q]:
                code.append(LoopStmt([sync]))
                break
            code.append(sync)
            edges = adv[q]
            if len(edges) == 1:
                q = edges[0].dst
                continue
            arm_reach = {e: self.reach_from(e.dst, stops) for e in edges}
            shared: set[str] = set()
            for i, a in enumerate(edges):
                for b in edges[i + 1:]:
                    shared |= arm_reach[a] & arm_reach[b]
            local_stops = stops | frozenset(shared)
            code.extend(_if_chain([(e.guard, self.region(e.dst, local_stops)) for e in edges]))
            if shared:
                code.extend(self.suffix(shared, stops))
                # an arm that leaves for an outer stop or the loop start emits
                # nothing for it and would fall through into the suffix's
                # unconditional last chunk
                for e in edges:
                    exits = {e.dst} | {x.dst for s in arm_reach[e] - shared for x in adv[s]}
                    if exits & (stops | {_LOOP_END}):
                        raise EmissionError(f"branch {q!r} -> {e.dst!r} would fall into a shared suffix")
            break
        return code

    def suffix(self, shared: set[str], stops: frozenset[str]) -> list:
        adv, vars, reachable = self.adv, self.vars, self.reachable
        order = _topo_order(shared, adv)
        entry: dict[str, Formula] = {}
        for s in order:
            incoming = [e.guard for q in reachable for e in adv[q] if e.dst == s]
            entry[s] = boolean_minimize(disj(incoming), vars)
        # falling through the chunk chain re-tests entry conditions, so every
        # edge into the suffix must deny the entries it skips over
        pos = {s: i for i, s in enumerate(order)}
        for q in reachable:
            for e in adv[q]:
                if e.dst not in pos:
                    continue
                start = pos[q] + 1 if q in pos else 0
                for skipped in order[start:pos[e.dst]]:
                    if not solver.entails(e.guard, negate(entry[skipped]), vars):
                        raise EmissionError(
                            f"edge {q!r} -> {e.dst!r} cannot fall past suffix state {skipped!r}")
                if pos[e.dst] < len(order) - 1 and not solver.entails(e.guard, entry[e.dst], vars):
                    raise EmissionError(f"edge {q!r} -> {e.dst!r} misses its entry condition")
            if q in pos:
                for e in adv[q]:
                    if e.dst != _LOOP_END and e.dst not in pos:
                        raise EmissionError(f"suffix state {q!r} escapes to exclusive state {e.dst!r}")
                    if e.dst != _LOOP_END and pos[e.dst] <= pos[q]:
                        raise EmissionError(f"suffix states {q!r} -> {e.dst!r} are not forward-ordered")
        code: list = []
        for s in order[:-1]:
            siblings = frozenset(x for x in order if x != s)
            body = self.region(s, stops | siblings)
            if body:
                code.append(IfStmt(entry[s], body, []))
        code.extend(self.region(order[-1], stops))
        return code


def _if_chain(arms: list[tuple[Formula, list]]) -> list:
    nonempty = [(guard, body) for guard, body in arms if body]
    if not nonempty:
        return []
    all_full = len(nonempty) == len(arms)
    chain: list = []
    tail = chain
    for i, (guard, body) in enumerate(nonempty):
        last = i == len(nonempty) - 1
        if last and all_full and i > 0:
            tail.extend(body)
        else:
            node = IfStmt(guard, body, [])
            tail.append(node)
            tail = node.orelse
    return chain


def _collapse(stmts: list) -> list:
    """``stmts`` with each ``if (c) { A } else { A }`` replaced by ``A``,
    innermost first. A condition only reads the current assignment and both
    arms go on into the same statements, so the arms' shared text runs either
    way; arms are compared by their printed text."""
    out: list = []
    for st in stmts:
        if isinstance(st, IfStmt):
            then, orelse = _collapse(st.then), _collapse(st.orelse)
            if format_statements(then) == format_statements(orelse):
                out.extend(then)
                continue
            st = IfStmt(st.cond, then, orelse)
        elif isinstance(st, LoopStmt):
            st = LoopStmt(_collapse(st.body))
        out.append(st)
    return out


def _check_acyclic(initial: str, adv: dict[str, list[Edge]]) -> None:
    """Depth-first search from ``initial`` with an explicit stack of
    (state, its unexplored out-edges); a state is 1 while on the stack."""
    colors = {initial: 1}
    stack = [(initial, iter(adv[initial]))]
    while stack:
        q, edges = stack[-1]
        for e in edges:
            if e.dst == _LOOP_END:
                continue
            c = colors.get(e.dst, 0)
            if c == 1:
                raise EmissionError(f"cycle through {e.dst!r} does not pass the initial state")
            if c == 0:
                colors[e.dst] = 1
                stack.append((e.dst, iter(adv[e.dst])))
                break
        else:
            colors[q] = 2
            stack.pop()


def _topo_order(shared: set[str], adv: dict[str, list[Edge]]) -> list[str]:
    indeg = {s: 0 for s in shared}
    for s in shared:
        for e in adv[s]:
            if e.dst in indeg:
                indeg[e.dst] += 1
    ready = sorted(s for s, d in indeg.items() if d == 0)
    order: list[str] = []
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        for e in adv[cur]:
            if e.dst in indeg:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
                    ready.sort()
    if len(order) != len(shared):
        raise EmissionError("shared suffix is not acyclic")
    return order
