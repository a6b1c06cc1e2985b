"""Safety checking and automated repair of composed models.

Every analysis runs on one graph, the run graph of the model and a property
object (one that only observes and marks bad states): the states that runs
reach from the initial tuple, and the moves they can take, i.e. edges whose
guard meets the source state's requested-and-not-blocked formula
(``compose.run_graph``, built directly from the object graphs).

Checking: breadth-first search of the run graph. A reachable bad state
yields the shortest counterexample, concretized to exact assignments and
re-validated by direct evaluation (no trust placed in the solver's model).

Repair: grow the bad states to the full bad attractor (states whose every
move leads back into the set; deadlocked states stay out), then synthesize
a patch object that shadows the run graph ("keeps track of the execution")
and blocks, at each tracked state, exactly the guards of edges that fall
into the attractor. A patch is that tracker and its name: the tracker's
block label is the cut at each state. The patch requests nothing, so
composing it in removes the violating runs and nothing else. This is the
maximally permissive supervisor over the states the closed loop reaches
(Ramadge and Wonham, SIAM J. Control Optim. 1987).

Patch verification reads all three soundness clauses off two run graphs:
the original, and the run graph of the original and the patch tracker, built
by the same ``run_graph`` (its state -> tuple map says which original state
each patched state shadows). On every letter the patched graph offers, its
original part moves as the original does, so one run reaches patched state
``p`` exactly when it reaches ``parts[p][0]`` in the original. The run-set
clause is then one equivalence per patched state, for runs of every length:
the letters ``p`` offers are the original's there minus those into the bad
attractor.

Every solver query ranges over the caller's variable set, the model's.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import solver
from .compose import enabled_guard, object_graph, run_graph
from .dsl import ScenarioScript, emit_script
from .formulas import Assignment, FalseF, Formula, VarSet, _read_only, _set, conj, disj, evaluate, negate
from .graphs import Edge, GraphError, Model, NamedObject, ObjectGraph, Trace, TraceStep, bfs_tree
from .minimize import boolean_minimize


class InvalidPropertyError(ValueError):
    """Property objects must observe only: no requests, no blocks."""


class UnrepairableError(RuntimeError):
    """Every run violates the property; blocking cannot repair the model."""


class DeterminizationError(RuntimeError):
    """Tracker guards overlap; the patch cannot follow the execution."""


class RepairUnsoundError(RuntimeError):
    def __init__(self, message: str, report: "Report"):
        super().__init__(message)
        self.report = report


class Safe:
    __slots__ = ("composite",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, composite: ObjectGraph) -> None:
        _set(self, "composite", composite)


class Counterexample:
    __slots__ = ("trace", "composite")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, trace: Trace, composite: ObjectGraph) -> None:
        _set(self, "trace", trace)
        _set(self, "composite", composite)


def property_graph(prop: ScenarioScript | ObjectGraph, vars: VarSet) -> ObjectGraph:
    g = object_graph(prop, vars)
    for q in sorted(g.states):
        if not isinstance(g.request[q], FalseF) or not isinstance(g.block[q], FalseF):
            raise InvalidPropertyError(
                f"property state {q!r} requests or blocks; properties may only wait and mark bad")
    return g


def _composite_with(m: Model, prop: ScenarioScript | ObjectGraph) -> ObjectGraph:
    """The run graph of the model's objects and then the property, composed in
    that order."""
    last = property_graph(prop, m.vars)  # before the objects', as SBM_SOLVER_DEBUG shows
    return run_graph([object_graph(o.item, m.vars) for o in m.objects] + [last], m.vars)[0]


def _bad_path(g: ObjectGraph, vars: VarSet, targets: frozenset[str] | None = None) -> Trace | None:
    """The shortest run into a bad state of a run graph (or into ``targets``),
    concretized and re-validated."""
    goal = g.bad if targets is None else targets
    parent: dict[str, Edge] = {}
    tree = bfs_tree(g.initial, g.out_edges)
    target = g.initial
    while target not in goal:
        e = next(tree, None)
        if e is None:
            return None
        parent[e.dst], target = e, e.dst

    path: list[Edge] = []
    q = target
    while q != g.initial:
        path.insert(0, parent[q])
        q = parent[q].src

    steps = tuple(TraceStep(e.src, _concrete(conj([e.guard, enabled_guard(g, e.src)]), vars,
                                             f"enabled edge out of {e.src!r}")) for e in path)
    return Trace(steps=steps, verdict="BadReached", end_state=target)


def _concrete(query: Formula, vars: VarSet, what: str) -> Assignment:
    """A model of ``query`` over ``vars``, re-validated by direct evaluation."""
    model = solver.check_sat(query, vars)
    if model is None:
        raise RuntimeError(f"{what} lost satisfiability")
    a = model.restricted_to(vars)
    if not evaluate(query, a):  # independent validation of the solver's witness
        raise RuntimeError(f"{what} fails its own formula")
    return a


def _deadlocks(g: ObjectGraph, vars: VarSet) -> frozenset[str]:
    # a run-graph state with an out-edge has a satisfiable enabled guard
    return frozenset(
        q for q in g.states
        if not g.out_edges(q) and not solver.satisfiable(enabled_guard(g, q), vars)
    )


def _attractor(g: ObjectGraph, initial_bad: Iterable[str]) -> frozenset[str]:
    bad = set(initial_bad)
    if not bad <= g.states:
        raise GraphError(f"initial bad states {sorted(bad - g.states)} are not reachable along enabled moves")
    changed = True
    while changed:
        changed = False
        for q in sorted(g.states - bad):
            succs = {e.dst for e in g.out_edges(q)}
            if succs and succs <= bad:
                bad.add(q)
                changed = True
    if g.initial in bad:
        raise UnrepairableError(
            "the initial state is in the bad attractor; the model is inherently violating")
    return frozenset(bad)


def _doomed(g: ObjectGraph) -> frozenset[str]:
    """The bad attractor of a run graph, empty when it has no bad state."""
    return _attractor(g, g.bad) if g.bad else frozenset()


def check_safety(m: Model, prop: ScenarioScript | ObjectGraph) -> Safe | Counterexample:
    """BFS of the run graph for a bad state; shortest counterexample on
    violation. Either verdict carries the run graph as its composite."""
    composite = _composite_with(m, prop)
    trace = _bad_path(composite, m.vars)
    return Safe(composite) if trace is None else Counterexample(trace, composite)


def find_deadlocks(g: ObjectGraph, vars: VarSet) -> frozenset[str]:
    """States an execution can reach where nothing requested is unblocked.

    Reachability follows enabled edges only: a state behind a permanently
    disabled guard cannot occur in any run, so it cannot deadlock one.
    """
    return _deadlocks(run_graph([g], vars)[0], vars)


def compute_bad_attractor(g: ObjectGraph, initial_bad: Iterable[str], vars: VarSet) -> frozenset[str]:
    """Least fixpoint: add states whose every enabled edge leads into the set.

    Runs on the run graph of ``g``. Deadlocked states (no enabled edge at
    all) are never added; they end the run without violating anything.
    Raises GraphError when a seed is not reachable along enabled moves and
    UnrepairableError when the initial state falls in.
    """
    return _attractor(run_graph([g], vars)[0], initial_bad)


class Patch:
    """A synthesized blocking object: a tracker of the composite execution
    whose ``block`` label is the formula it blocks at each tracked state."""

    __slots__ = ("tracker", "name")

    def __init__(self, tracker: ObjectGraph, name: str = "Patch") -> None:
        self.tracker = tracker
        self.name = name

    def to_script_text(self) -> str:
        return emit_script(self.tracker, self.name)

    def as_named_object(self) -> NamedObject:
        return NamedObject(self.name, self.tracker)

    def cut_edges(self) -> list[tuple[str, Formula]]:
        return [(q, f) for q, f in sorted(self.tracker.block.items()) if not isinstance(f, FalseF)]


def synthesize_patch(
    g: ObjectGraph, bad: frozenset[str], vars: VarSet, name: str = "Patch"
) -> Patch:
    """Build the patch that cuts exactly the edges entering the bad set.

    The tracker follows every state of ``g`` reachable from its initial
    state and outside the bad set (``repair`` passes the run graph, so
    these are the states runs reach); a self-loop of ``g`` is the
    tracker's implicit stay, so the tracker does not wake on it.
    """
    if g.initial in bad:
        raise UnrepairableError("cannot patch a model whose initial state is bad")
    tracked = [q for q in g.reachable() if q not in bad]
    tracked_set = set(tracked)
    kept: dict[str, list[Edge]] = {q: [] for q in tracked}
    cut: dict[str, list[Formula]] = {q: [] for q in tracked}
    for e in g.edges:
        if e.src not in tracked_set:
            continue
        if e.dst in bad:
            cut[e.src].append(e.guard)
        elif e.dst in tracked_set and e.dst != e.src:  # a self-loop is the implicit stay
            kept[e.src].append(e)

    for q in tracked:
        edges = kept[q]
        for i, a in enumerate(edges):
            for b in edges[i + 1:]:
                if solver.satisfiable(conj([a.guard, b.guard]), vars):
                    raise DeterminizationError(
                        f"overlapping guards out of {q!r}; tracker cannot be deterministic")

    block_at = {q: boolean_minimize(disj(cut[q]), vars) for q in tracked}
    waitfor = {q: boolean_minimize(disj([e.guard for e in kept[q]]), vars) for q in tracked}
    for q in tracked:
        enabled = enabled_guard(g, q)
        if not solver.satisfiable(enabled, vars):
            continue  # was already deadlocked before the patch
        if not solver.satisfiable(conj([enabled, negate(block_at[q])]), vars):
            report = Report(details={"deadlocked_state": q})
            raise RepairUnsoundError(f"patch would deadlock state {q!r}", report)

    tracker = ObjectGraph.make(
        states=tracked,
        initial=g.initial,
        request={},
        block=block_at,
        waitfor=waitfor,
        edges=[(e.src, e.guard, e.dst) for q in tracked for e in kept[q]],
    )
    return Patch(tracker=tracker, name=name)


def repair(m: Model, prop: ScenarioScript | ObjectGraph, name: str = "Patch") -> tuple[Patch, frozenset[str], ObjectGraph]:
    """Full pipeline: compose, find the attractor, synthesize the patch.

    Returns (patch, bad attractor, run graph of the model with the property).
    The patch tracks only the run graph's states, the ones runs reach, so
    bad states behind edges that can never fire are no violations and get
    no cuts; on a safe model the attractor is empty and the patch blocks
    nothing (identity patch).
    """
    composite = _composite_with(m, prop)
    attractor = _doomed(composite)
    return synthesize_patch(composite, attractor, m.vars, name), attractor, composite


def _differing_run(original: ObjectGraph, patched: ObjectGraph, parts: dict[str, tuple[str, ...]],
                   vars: VarSet) -> tuple[str, tuple[Assignment, ...]] | None:
    """Clause (c): None when every patched state ``p`` offers exactly the
    letters of ``parts[p][0]`` that stay out of the original's bad attractor.
    Else ("lost_run" or "foreign_run", a shortest run on one side only): the
    tree path to the first differing state in breadth-first order, which
    passes only states that agree, then a letter where the two sides differ."""
    doomed = _doomed(original)
    for p in patched.reachable():
        q = parts[p][0]
        offered = enabled_guard(patched, p)
        into_doomed = disj([e.guard for e in original.out_edges(q) if e.dst in doomed])
        kept = conj([enabled_guard(original, q), negate(into_doomed)])
        if solver.equivalent(offered, kept, vars):
            continue
        differ = disj([conj([offered, negate(kept)]), conj([kept, negate(offered)])])
        last = _concrete(differ, vars, f"the difference at patched state {p!r}")
        run = tuple(step.assignment for step in _bad_path(patched, vars, frozenset([p])).steps)
        return ("lost_run" if evaluate(kept, last) else "foreign_run"), run + (last,)
    return None


class Report:
    """Evidence for the three repair-soundness clauses."""

    __slots__ = ("safe_after_patch", "no_new_deadlocks", "containment_ok", "details")

    def __init__(
        self,
        safe_after_patch: bool | None = None,
        no_new_deadlocks: bool | None = None,
        containment_ok: bool | None = None,
        details: dict | None = None,
    ) -> None:
        self.safe_after_patch = safe_after_patch
        self.no_new_deadlocks = no_new_deadlocks
        self.containment_ok = containment_ok
        self.details = {} if details is None else details

    @property
    def ok(self) -> bool:
        return bool(self.safe_after_patch and self.no_new_deadlocks and self.containment_ok)

    def summary(self) -> str:
        mark = {True: "pass", False: "FAIL", None: "skipped"}
        return (
            f"safety after patch: {mark[self.safe_after_patch]}; "
            f"no new deadlocks: {mark[self.no_new_deadlocks]}; "
            f"run containment: {mark[self.containment_ok]}"
        )


def verify_patch(
    m: Model,
    patch: Patch,
    prop: ScenarioScript | ObjectGraph,
    composite: ObjectGraph | None = None,
) -> Report:
    """Check the three soundness clauses of a synthesized patch.

    All three read off one original run graph (model plus property; pass
    the one ``repair`` returned as ``composite`` to skip composing it again)
    and one patched run graph, ``run_graph`` of the original and the patch
    tracker: (a) the patched composite reaches no bad state (else
    ``violation`` holds the shortest counterexample); (b) the patch
    introduces no deadlocks; (c) the runs of the patched model are exactly
    the runs of the original minus the violating ones (those entering the
    bad attractor), for runs of every length: each patched state offers the
    letters of the original state it shadows minus those into the attractor.
    A shortest differing run, one assignment per step, is reported as
    ``lost_run`` (a non-violating original run the patch removes) or
    ``foreign_run`` (a patched run that is not a non-violating original
    run). ``details`` also records the size of the patched composite
    (``patched_states``). Raises RepairUnsoundError (with the report and a
    witness) if any clause fails.
    """
    report = Report()
    vars = m.vars
    original = composite if composite is not None else _composite_with(m, prop)
    patched, parts = run_graph([original, patch.tracker], vars)

    violation = _bad_path(patched, vars)
    report.safe_after_patch = violation is None
    if violation is not None:
        report.details["violation"] = violation

    dl_before = _deadlocks(original, vars)
    new_deadlocks = sorted(q for q in _deadlocks(patched, vars) if parts[q][0] not in dl_before)
    report.no_new_deadlocks = not new_deadlocks
    if new_deadlocks:
        report.details["new_deadlocks"] = new_deadlocks

    difference = _differing_run(original, patched, parts, vars)
    report.containment_ok = difference is None
    if difference is not None:
        kind, run = difference
        report.details[kind] = run
    report.details["patched_states"] = len(patched.states)

    if not report.ok:
        raise RepairUnsoundError(f"repair is unsound: {report.summary()}", report)
    return report
