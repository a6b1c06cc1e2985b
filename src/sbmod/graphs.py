"""Guard-labeled transition graphs for scenario objects.

An ObjectGraph is the explicit form of a scenario object: states carry
request/block/waitfor formulas, edges carry guard formulas, and a subset of
states may be marked bad (safety-property objects use that). States where the
object does not wake keep an implicit self-loop; it is materialized as a
single complement-guard edge during composition and export. An object that
wakes takes the one out-edge whose guard holds, or stays when none does
(``ObjectGraph.move``); execution and run sets both follow that rule.

Solver queries range over the caller's variable set, the model's. Only a
graph written out on its own (``to_json_dict``, ``to_dot``) uses the
variables its labels and guards mention.

A model's objects may be graphs as well as scripts (``dsl.Model``).
Discrete-event objects are supported through ``encode_discrete``, which
embeds them into the real-valued setting with one fresh variable: event i
becomes the atom ``x == i``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping

from . import solver
from .dsl import GraphError
from .formulas import (
    FALSE,
    Assignment,
    Formula,
    VarSet,
    _read_only,
    _set,
    canonicalize,
    disj,
    evaluate,
    formula_key,
    negate,
    to_infix,
    to_sexpr,
    var_atom,
    variables_of,
)

StateId = str


class EncodingError(ValueError):
    """Discrete object references an event absent from the event list."""


class Edge:
    __slots__ = ("src", "guard", "dst")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, src: StateId, guard: Formula, dst: StateId) -> None:
        _set(self, "src", src)
        _set(self, "guard", guard)
        _set(self, "dst", dst)

    def __eq__(self, other: object) -> bool:
        return (type(other) is Edge and other.src == self.src and other.dst == self.dst
                and other.guard == self.guard)

    def __hash__(self) -> int:
        return hash((self.src, self.guard, self.dst))

    def key(self) -> tuple:
        return (self.src, self.dst, formula_key(self.guard))


class ObjectGraph:
    """Explicit transition graph of one scenario object.

    Immutable by convention after construction; use ``make`` so that label
    maps are total (missing entries default to false) and edges come out in
    canonical order. Equality compares every field but ``_out`` and
    ``_stay``, which are derived from ``edges`` and from the labels.
    """

    __slots__ = ("states", "initial", "request", "block", "waitfor", "edges", "bad", "_out", "_stay")

    def __init__(
        self,
        states: frozenset[StateId],
        initial: StateId,
        request: dict[StateId, Formula],
        block: dict[StateId, Formula],
        waitfor: dict[StateId, Formula],
        edges: tuple[Edge, ...],
        bad: frozenset[StateId] = frozenset(),
    ) -> None:
        self.states = states
        self.initial = initial
        self.request = request
        self.block = block
        self.waitfor = waitfor
        self.edges = edges
        self.bad = bad
        # state -> its out-edges, in the order of ``edges``
        self._out: dict[StateId, list[Edge]] = {}
        for e in edges:
            self._out.setdefault(e.src, []).append(e)
        self._stay: dict[StateId, Formula] = {}  # state -> its stay guard, once asked for

    def _fields(self) -> tuple:
        return (self.states, self.initial, self.request, self.block, self.waitfor, self.edges, self.bad)

    def __eq__(self, other: object) -> bool:
        return type(other) is ObjectGraph and other._fields() == self._fields()

    @staticmethod
    def make(
        states: Iterable[StateId],
        initial: StateId,
        request: Mapping[StateId, Formula] = (),
        block: Mapping[StateId, Formula] = (),
        waitfor: Mapping[StateId, Formula] = (),
        edges: Iterable[tuple[StateId, Formula, StateId]] = (),
        bad: Iterable[StateId] = (),
    ) -> "ObjectGraph":
        state_set = frozenset(states)
        if initial not in state_set:
            raise GraphError(f"initial state {initial!r} not among states")
        for name, labels in (("request", request), ("block", block), ("waitfor", waitfor)):
            unknown = set(dict(labels)) - state_set
            if unknown:
                raise GraphError(f"{name} labels reference unknown states {sorted(unknown)}")
        bad_set = frozenset(bad)
        if not bad_set <= state_set:
            raise GraphError(f"bad states {sorted(bad_set - state_set)} not among states")
        edge_objs = []
        for src, guard, dst in edges:
            if src not in state_set or dst not in state_set:
                raise GraphError(f"edge {src!r} -> {dst!r} references unknown states")
            edge_objs.append(Edge(src, canonicalize(guard), dst))
        edge_objs.sort(key=Edge.key)

        def total(labels: Mapping[StateId, Formula]) -> dict[StateId, Formula]:
            table = dict(labels)
            return {q: canonicalize(table.get(q, FALSE)) for q in sorted(state_set)}

        return ObjectGraph(
            states=state_set,
            initial=initial,
            request=total(request),
            block=total(block),
            waitfor=total(waitfor),
            edges=tuple(edge_objs),
            bad=bad_set,
        )

    def out_edges(self, q: StateId) -> list[Edge]:
        return list(self._out.get(q, ()))

    def wake(self, q: StateId) -> Formula:
        """Condition under which the object leaves its synchronization point."""
        return disj([self.request[q], self.waitfor[q]])

    def stay_guard(self, q: StateId) -> Formula:
        """Guard of the implicit self-loop taken when the object does not wake."""
        stay = self._stay.get(q)
        if stay is None:
            stay = self._stay[q] = negate(self.wake(q))
        return stay

    def move(self, q: StateId, a: Assignment) -> StateId:
        """Where the object goes from ``q`` on ``a``: the target of the one
        out-edge whose guard holds, or ``q`` (the implicit stay) when none
        does. Raises GraphError when two guards hold."""
        hits = [e.dst for e in self._out.get(q, ()) if evaluate(e.guard, a)]
        if len(hits) > 1:
            raise GraphError(f"out-edges of {q!r} to {hits} overlap on {a}")
        return hits[0] if hits else q

    def reachable(self) -> list[StateId]:
        """States reachable from the initial state via edges, BFS order."""
        return [self.initial] + [e.dst for e in bfs_tree(self.initial, self.out_edges)]


def explore(
    initial: object,
    name: Callable[[object], StateId],
    visit: Callable[[object], tuple[Formula, Formula, Formula, bool, Iterable[tuple[Formula, object]]]],
) -> tuple[ObjectGraph, dict[StateId, object]]:
    """The graph reachable from ``initial``, and its name -> state map.

    Each state is visited once, in breadth-first discovery order, and named
    by ``name``; a move whose target's name is known adds no state, so the
    map keeps the first state registered under a name. ``visit(state)``
    gives the state's request, block and waitfor labels, whether it is bad,
    and its moves as (guard, next state) pairs, which are consumed lazily
    and in order.
    """
    start = name(initial)
    found = {start: initial}
    queue = deque(found.items())
    request: dict[StateId, Formula] = {}
    block: dict[StateId, Formula] = {}
    waitfor: dict[StateId, Formula] = {}
    bad: list[StateId] = []
    edges: list[tuple[StateId, Formula, StateId]] = []
    while queue:
        src, state = queue.popleft()
        request[src], block[src], waitfor[src], is_bad, moves = visit(state)
        if is_bad:
            bad.append(src)
        for guard, nxt in moves:
            dst = name(nxt)
            if dst not in found:
                found[dst] = nxt
                queue.append((dst, nxt))
            edges.append((src, guard, dst))
    graph = ObjectGraph.make(states=found, initial=start, request=request, block=block,
                             waitfor=waitfor, edges=edges, bad=bad)
    return graph, found


def bfs_tree(start: StateId, successors: Callable[[StateId], Iterable[Edge]]) -> Iterator[Edge]:
    """Breadth-first search: yields each edge that first reaches a state, in
    discovery order; together they form a shortest-path tree."""
    seen = {start}
    queue = deque([start])
    while queue:
        for e in successors(queue.popleft()):
            if e.dst not in seen:
                seen.add(e.dst)
                queue.append(e.dst)
                yield e


class DiscreteObject:
    """A classic discrete-event scenario object: labels are event-name sets."""

    __slots__ = ("states", "initial", "request", "block", "waitfor", "edges", "bad")
    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        states: frozenset[StateId],
        initial: StateId,
        request: Mapping[StateId, frozenset[str]],
        block: Mapping[StateId, frozenset[str]],
        waitfor: Mapping[StateId, frozenset[str]],
        edges: tuple[tuple[StateId, str, StateId], ...],
        bad: frozenset[StateId] = frozenset(),
    ) -> None:
        _set(self, "states", states)
        _set(self, "initial", initial)
        _set(self, "request", request)
        _set(self, "block", block)
        _set(self, "waitfor", waitfor)
        _set(self, "edges", edges)
        _set(self, "bad", bad)

    @staticmethod
    def make(
        states: Iterable[StateId],
        initial: StateId,
        request: Mapping[StateId, Iterable[str]] = (),
        block: Mapping[StateId, Iterable[str]] = (),
        waitfor: Mapping[StateId, Iterable[str]] = (),
        edges: Iterable[tuple[StateId, str, StateId]] = (),
        bad: Iterable[StateId] = (),
    ) -> "DiscreteObject":
        state_set = frozenset(states)

        def total(labels: Mapping[StateId, Iterable[str]]) -> dict[StateId, frozenset[str]]:
            table = {q: frozenset(names) for q, names in dict(labels).items()}
            return {q: table.get(q, frozenset()) for q in state_set}

        return DiscreteObject(
            states=state_set,
            initial=initial,
            request=total(request),
            block=total(block),
            waitfor=total(waitfor),
            edges=tuple(edges),
            bad=frozenset(bad),
        )


def encode_discrete(events: list[str], obj: DiscreteObject, var: str = "x") -> ObjectGraph:
    """Embed a discrete-event object into the real-valued setting.

    A fresh variable takes the index of the triggered event: event i maps to
    the atom ``var == i``, and event sets become disjunctions of equalities.
    """
    index = {name: i for i, name in enumerate(events)}

    def event_atom(name: str) -> Formula:
        if name not in index:
            raise EncodingError(f"unknown event {name!r}; declared events: {events}")
        return var_atom(var, "==", index[name])

    def set_formula(names: frozenset[str]) -> Formula:
        return disj([event_atom(n) for n in sorted(names)])

    return ObjectGraph.make(
        states=obj.states,
        initial=obj.initial,
        request={q: set_formula(s) for q, s in obj.request.items()},
        block={q: set_formula(s) for q, s in obj.block.items()},
        waitfor={q: set_formula(s) for q, s in obj.waitfor.items()},
        edges=[(src, event_atom(ev), dst) for src, ev, dst in obj.edges],
        bad=obj.bad,
    )


# ---------------------------------------------------------------------------
# traces


class TraceStep:
    __slots__ = ("state", "assignment")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, state: StateId, assignment: Assignment) -> None:
        _set(self, "state", state)
        _set(self, "assignment", assignment)


class Trace:
    """A run prefix through a composite graph, plus how it ended."""

    __slots__ = ("steps", "verdict", "end_state")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, steps: tuple[TraceStep, ...], verdict: str, end_state: StateId) -> None:
        _set(self, "steps", steps)
        _set(self, "verdict", verdict)  # "BadReached", the one verdict a trace has
        _set(self, "end_state", end_state)

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# export


def materialized_edges(g: ObjectGraph, q: StateId, vars: VarSet) -> list[Edge]:
    """Explicit out-edges plus the stay self-loop, when satisfiable over ``vars``."""
    out = g.out_edges(q)
    stay = g.stay_guard(q)
    if solver.satisfiable(stay, vars):
        out = out + [Edge(q, stay, q)]
    return out


def _graph_vars(g: ObjectGraph) -> VarSet:
    """The variables the graph's labels and guards mention (``_`` if none):
    the variable set of a graph written out on its own, with no model."""
    names: set[str] = set()
    for table in (g.request, g.block, g.waitfor):
        for f in table.values():
            names |= variables_of(f)
    for e in g.edges:
        names |= variables_of(e.guard)
    return VarSet(tuple(names) if names else ("_",))


def to_json_dict(g: ObjectGraph) -> dict:
    """JSON-ready dict; formulas as s-expression strings, stay loops included."""
    states = sorted(g.states)
    vars = _graph_vars(g)
    edges = []
    for q in states:
        for e in materialized_edges(g, q, vars):
            edges.append({"from": e.src, "guard": to_sexpr(e.guard), "to": e.dst})
    return {
        "states": states,
        "initial": g.initial,
        "labels": {
            q: {
                "request": to_sexpr(g.request[q]),
                "block": to_sexpr(g.block[q]),
                "waitfor": to_sexpr(g.waitfor[q]),
            }
            for q in states
        },
        "edges": edges,
        "bad": sorted(g.bad),
    }


def to_dot(g: ObjectGraph, name: str = "object") -> str:
    """Graphviz rendering: states as boxes with labels, guards on edges."""

    def quote(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = [f"digraph {quote(name)} {{", "  node [shape=box];"]
    for q in sorted(g.states):
        label = [q, f"R: {to_infix(g.request[q])}", f"B: {to_infix(g.block[q])}"]
        wf = g.waitfor[q]
        if to_infix(wf) != "false":
            label.append(f"W: {to_infix(wf)}")
        attrs = f"label={quote(chr(10).join(label))}"
        if q in g.bad:
            attrs += ", peripheries=2, style=filled, fillcolor=lightcoral"
        lines.append(f"  {quote(q)} [{attrs}];")
    lines.append(f"  __start [shape=point]; __start -> {quote(g.initial)};")
    vars = _graph_vars(g)
    for q in sorted(g.states):
        for e in materialized_edges(g, q, vars):
            lines.append(f"  {quote(e.src)} -> {quote(e.dst)} [label={quote(to_infix(e.guard))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
