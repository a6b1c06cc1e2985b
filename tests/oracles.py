"""Independent oracles and generators used by the test suite only.

Nothing here may import from sbmod.solver internals beyond its public
results: the Fourier-Motzkin check below is a from-scratch decision procedure
for conjunctions, kept deliberately separate from the simplex path it
cross-checks. The exceptions are the reference ``!=`` splitter, which calls
``solver._feasible`` on purpose: it pins which split the solver settles on
and so which model it returns, not whether the simplex is right; and the
reference searches, which call the solver's theory check and bound helpers
on purpose: they pin the search tree, not whether the theory layer is right.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

from sbmod.formulas import (
    FALSE,
    TRUE,
    And,
    Assignment,
    Atom,
    FalseF,
    Formula,
    LinearAtom,
    Or,
    TrueF,
    VarSet,
    atom,
    atoms_of,
    conj,
    disj,
    evaluate,
    negate,
)
from sbmod.cells import MAX_CELLS, cell_bound, polarity_classes, satisfiable_cells
from sbmod.compose import compose_all, enabled_guard
from sbmod.dsl import IfStmt, LoopStmt, ScenarioScript, SyncStmt
from sbmod.graphs import DiscreteObject, Edge, Model, NamedObject, ObjectGraph, bfs_tree
from sbmod.runsets import CellRuns
from sbmod.verify import property_graph
from sbmod import solver

VARS = ("w", "x", "y", "z")
RELS = ("<", "<=", "==", ">=", ">", "!=")


# ---------------------------------------------------------------------------
# random generators


def rand_atom(rng: random.Random, variables=VARS) -> Atom:
    n = rng.choice([1, 1, 1, 2])
    chosen = rng.sample(list(variables), min(n, len(variables)))
    coeffs = {v: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for v in chosen}
    const = Fraction(rng.randint(-10, 10), rng.choice([1, 1, 1, 2]))
    return atom(coeffs, rng.choice(RELS), const)


def rand_atom_pool(rng: random.Random, variables=VARS, lo: int = 3, hi: int = 8) -> list[Atom]:
    return [rand_atom(rng, variables) for _ in range(rng.randint(lo, hi))]


def rand_formula(rng: random.Random, depth: int, pool: list[Atom]) -> Formula:
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(pool)
    kind = rng.choice(["and", "or", "not", "implies"])
    if kind == "not":
        return ref_negate(rand_formula(rng, depth - 1, pool))
    if kind == "implies":
        left = rand_formula(rng, depth - 1, pool)
        return Or((ref_negate(left), rand_formula(rng, depth - 1, pool)))
    kids = tuple(rand_formula(rng, depth - 1, pool) for _ in range(rng.randint(2, 3)))
    return And(kids) if kind == "and" else Or(kids)


def rand_assignment(rng: random.Random, variables=VARS, span: int = 25) -> Assignment:
    return Assignment.make({v: rng.randint(-span, span) for v in variables})


def rand_conjunction(rng: random.Random, max_atoms: int = 8, variables=VARS) -> list[LinearAtom]:
    return [rand_atom(rng, variables).atom for _ in range(rng.randint(1, max_atoms))]


# ---------------------------------------------------------------------------
# model text


def ring_n_text(n: int) -> str:
    """The ring-n family: station Ci requests ``x == i`` while blocking the
    next station's value, and property P marks bad on two ``x == 0`` in a row.
    Every request is blocked, so no run leaves the initial state."""
    lines = ["model {", "  vars x;"]
    for i in range(n):
        lines.append(f"  object C{i} {{ loop {{ sync(request = x == {i}, block = x == {(i + 1) % n}); "
                     f"sync(waitfor = x == {i}); }} }}")
    lines.append("  object P { loop { sync(waitfor = true); if (x == 0) { sync(waitfor = true); "
                 "if (x == 0) { sync(); mark bad; } } } }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def token_ring_text(n: int) -> str:
    """A token ring with a stutter: Start hands ``x == 0`` to C0, station Ci
    waits for ``x == i`` and then passes ``x == (i+1)%n`` while blocking
    ``x == i``, Idle always requests ``x == n``, and the property ReachLast
    marks bad after ``x == n-1``. Idle's request is an explicit self-loop of
    the composite next to every token move."""
    lines = ["model {", "  vars x;", "  object Start { sync(request = x == 0); loop { sync(); } }"]
    for i in range(n):
        lines.append(f"  object C{i} {{ loop {{ sync(waitfor = x == {i}); "
                     f"sync(request = x == {(i + 1) % n}, block = x == {i}); }} }}")
    lines.append(f"  object Idle {{ loop {{ sync(request = x == {n}); }} }}")
    lines.append(f"  object ReachLast {{ sync(waitfor = x == {n - 1}); sync(); mark bad; }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def indep_text(n: int) -> str:
    """The indep-n family: object Oi requests ``vi >= 1 || vi <= 0`` over its
    own variable, and property P marks bad one step after ``v0 >= 5``. The
    objects move independently, so the moves into one target tuple number
    2^n."""
    names = [f"v{i}" for i in range(n)]
    lines = ["model {", f"  vars {', '.join(names)};"]
    for v in names:
        lines.append(f"  object O{v[1:]} {{ loop {{ sync(request = {v} >= 1 || {v} <= 0); }} }}")
    lines.append("  object P { sync(waitfor = v0 >= 5); sync(); mark bad; }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# a driver requests 0 <= x <= 10 and a trap marks bad three steps after a
# step at or above 5, so the bad attractor grows through a forced chain
TRAP_MODEL = """
model {
  vars x;

  object Driver {
    loop {
      sync(request = x >= 0 && x <= 10);
    }
  }

  # Once a step at or above 5 happens, doom is three steps away: the trap
  # advances on anything afterwards and then marks the state bad.
  object Trap {
    sync(waitfor = x >= 5);
    sync(waitfor = true);
    sync(waitfor = true);
    sync();
    mark bad;
  }
}
"""

# the unstable water tap: WaterLow is x == 0, AddHot x == 1, AddCold x == 2
WATER_TAP_TEXT = """
model { vars x;
  object AddHot { loop { sync(waitfor = x == 0); repeat 3 { sync(request = x == 1); } } }
  object AddCold { loop { sync(waitfor = x == 0); repeat 3 { sync(request = x == 2); } } }
  object WaterSensor { sync(request = x == 0); }
  object TwoHot { loop { sync(waitfor = true); if (x == 1) { sync(waitfor = true); if (x == 1) { sync(); mark bad; } } } }
}
"""


# ---------------------------------------------------------------------------
# reference run graph: fold the full satisfiable product, simplify it (merging
# parallel edges into one minimized guard), and cut it down to enabled moves.
# sbmod.compose.run_graph, which builds the run graph from the initial tuple
# without the full product, must give the same graph.


def with_property(m: Model, prop: ScenarioScript | ObjectGraph) -> Model:
    """``m`` with the property's graph as its last object ("$" names no DSL object)."""
    return Model(m.vars, m.objects + (NamedObject("$property", property_graph(prop, m.vars)),))


def reference_run_graph(m: Model, prop: ScenarioScript | ObjectGraph) -> ObjectGraph:
    """The run graph of ``m`` with the property ``prop``, by the full product."""
    return enabled_cut(compose_all(with_property(m, prop)), m.vars)


# ---------------------------------------------------------------------------
# reference event selection: the selection formula, its first model and its
# in-selection cell witnesses rebuilt on every step. sbmod.engine.select_event
# remembers them per declaration tuple and must pick the same events.


def ref_select_event(declarations, vars: VarSet, policy: str = "first-model", rng=None):
    base = conj([disj([r for r, _ in declarations]), negate(disj([b for _, b in declarations]))])
    first = solver.check_sat(base, vars)
    if first is None:
        return None
    if policy == "first-model" or rng is None:
        return first.restricted_to(vars)
    atoms = polarity_classes(atoms_of(base))
    if not atoms or cell_bound(atoms) > MAX_CELLS:
        return first.restricted_to(vars)
    inside = [w for _, w in satisfiable_cells(atoms, vars) if evaluate(base, w)]
    return inside[rng.randrange(len(inside))].restricted_to(vars)


# ---------------------------------------------------------------------------
# reference enabled-edge filter: a composite's edges whose guard meets the
# source's request-and-not-blocked formula, by one query per edge. Over the
# simplified full composite, these are the run graph's edges.


def enabled_edges(g: ObjectGraph, vars: VarSet) -> dict[str, list[Edge]]:
    """Reachable state -> its enabled out-edges, in out_edges order."""
    table = {}
    for q in g.reachable():
        enabled = enabled_guard(g, q)
        table[q] = [e for e in g.out_edges(q) if solver.check_sat(conj([e.guard, enabled]), vars) is not None]
    return table


def enabled_reachable(g: ObjectGraph, table: dict[str, list[Edge]]) -> list[str]:
    """States some run can reach, BFS order."""
    return [g.initial] + [e.dst for e in bfs_tree(g.initial, table.__getitem__)]


def enabled_cut(g: ObjectGraph, vars: VarSet) -> ObjectGraph:
    """``g`` cut down to the states some run reaches and their enabled edges."""
    table = enabled_edges(g, vars)
    reached = enabled_reachable(g, table)
    return ObjectGraph.make(
        states=reached,
        initial=g.initial,
        request={q: g.request[q] for q in reached},
        block={q: g.block[q] for q in reached},
        waitfor={q: g.waitfor[q] for q in reached},
        edges=[(e.src, e.guard, e.dst) for q in reached for e in table[q]],
        bad=g.bad & set(reached),
    )


def doomed_states(g: ObjectGraph, vars: VarSet) -> frozenset[str]:
    """The bad attractor over the enabled edges of a composite, seeded by the
    bad states some run reaches; empty when there are none."""
    table = enabled_edges(g, vars)
    bad = {q for q in enabled_reachable(g, table) if q in g.bad}
    if not bad:
        return frozenset()
    changed = True
    while changed:
        changed = False
        for q in sorted(set(table) - bad):
            succs = {e.dst for e in table[q]}
            if succs and succs <= bad:
                bad.add(q)
                changed = True
    return frozenset(bad)


# ---------------------------------------------------------------------------
# reference script interpreter: the per-call walk that rebuilds a script's
# continuation table and its sync's wake formula on every step. The records
# that sbmod.dsl.ScenarioScript compiles once, read by
# sbmod.extract.step_script, must give the same locations.

REF_END = -1


def _ref_continuations(script: ScenarioScript) -> dict[int, list[tuple[tuple, int]]]:
    table: dict[int, list[tuple[tuple, int]]] = {}

    def walk(stmts: list, stack: list) -> None:
        body = tuple(stmts)
        for i, st in enumerate(stmts):
            if isinstance(st, SyncStmt):
                table[st.uid] = stack + [(body, i + 1)]
            elif isinstance(st, IfStmt):
                walk(st.then, stack + [(body, i + 1)])
                walk(st.orelse, stack + [(body, i + 1)])
            elif isinstance(st, LoopStmt):
                walk(st.body, stack + [(body, i)])

    walk(script.body, [])
    return table


def _ref_walk_to_sync(frames: list[tuple[tuple, int]], a) -> int:
    stack = list(frames)
    while stack:
        stmts, i = stack.pop()
        while i < len(stmts):
            st = stmts[i]
            if isinstance(st, SyncStmt):
                return st.uid
            if isinstance(st, IfStmt):
                stack.append((stmts, i + 1))
                stmts, i = tuple(st.then if evaluate(st.cond, a) else st.orelse), 0
            elif isinstance(st, LoopStmt):
                stack.append((stmts, i))
                stmts, i = tuple(st.body), 0
            else:
                raise TypeError(f"not a statement: {st!r}")
    return REF_END


def ref_initial_location(script: ScenarioScript) -> int:
    return _ref_walk_to_sync([(tuple(script.body), 0)], None)


def ref_step_script(script: ScenarioScript, location: int, a: Assignment) -> int:
    """The location after one triggered assignment; unchanged unless the
    pending sync wakes, and a finished script absorbs everything."""
    if location == REF_END:
        return location
    sync = script.syncs[location]
    if not evaluate(disj([sync.request, sync.waitfor]), a):
        return location
    return _ref_walk_to_sync(_ref_continuations(script)[sync.uid], a)


# ---------------------------------------------------------------------------
# reference canonicalizer: a full tree walk that rebuilds every node and
# re-normalizes every atom, with keys computed from scratch. The canonical
# nodes of sbmod.formulas must agree with it.


def ref_atom_key(a: LinearAtom) -> tuple:
    """An atom's key with every number a ``Fraction``."""
    coeffs = tuple((v, Fraction(c)) for v, c in a.coeffs)
    return (coeffs, RELS.index(a.rel), Fraction(a.const))


def ref_formula_key(f: Formula) -> tuple:
    if isinstance(f, FalseF):
        return (0,)
    if isinstance(f, TrueF):
        return (1,)
    if isinstance(f, Atom):
        return (2, ref_atom_key(f.atom))
    if isinstance(f, And):
        return (3, tuple(ref_formula_key(c) for c in f.children))
    if isinstance(f, Or):
        return (4, tuple(ref_formula_key(c) for c in f.children))
    raise TypeError(f"non-canonical node in key computation: {f!r}")


def _ref_nnf(f: Formula, negated: bool) -> Formula:
    if isinstance(f, TrueF):
        return FALSE if negated else TRUE
    if isinstance(f, FalseF):
        return TRUE if negated else FALSE
    if isinstance(f, Atom):
        a = f.atom.negated() if negated else f.atom
        return Atom(LinearAtom.make(dict(a.coeffs), a.rel, a.const))
    if isinstance(f, And):
        kids = tuple(_ref_nnf(c, negated) for c in f.children)
        return Or(kids) if negated else And(kids)
    if isinstance(f, Or):
        kids = tuple(_ref_nnf(c, negated) for c in f.children)
        return And(kids) if negated else Or(kids)
    raise TypeError(f"not a formula: {f!r}")


def _ref_normalize(f: Formula) -> Formula:
    if isinstance(f, (TrueF, FalseF, Atom)):
        return f
    kids = [_ref_normalize(c) for c in f.children]
    flat: list[Formula] = []
    if isinstance(f, And):
        for k in kids:
            if isinstance(k, FalseF):
                return FALSE
            if isinstance(k, TrueF):
                continue
            flat.extend(k.children if isinstance(k, And) else (k,))
        unit: Formula = TRUE
    else:
        for k in kids:
            if isinstance(k, TrueF):
                return TRUE
            if isinstance(k, FalseF):
                continue
            flat.extend(k.children if isinstance(k, Or) else (k,))
        unit = FALSE
    seen: dict[tuple, Formula] = {}
    for k in flat:
        seen.setdefault(ref_formula_key(k), k)
    ordered = tuple(seen[key] for key in sorted(seen))
    if not ordered:
        return unit
    if len(ordered) == 1:
        return ordered[0]
    return And(ordered) if isinstance(f, And) else Or(ordered)


def ref_canonicalize(f: Formula) -> Formula:
    return _ref_normalize(_ref_nnf(f, False))


def ref_negate(f: Formula) -> Formula:
    """Not ``f``, as a raw tree in negation normal form."""
    return _ref_nnf(f, True)


# ---------------------------------------------------------------------------
# reference prime implicants: Quine-McCluskey pairwise merging over every ON
# and don't-care minterm. sbmod.minimize reads the primes off the OFF cells
# instead; the primes that cover an ON minterm must agree.


def _ref_combine(implicants: set[tuple[int, int]]) -> set[tuple[int, int]]:
    # implicant = (values, care_mask); merge pairs differing in one cared bit
    out: set[tuple[int, int]] = set()
    merged: set[tuple[int, int]] = set()
    items = sorted(implicants)
    for i, (va, ca) in enumerate(items):
        for vb, cb in items[i + 1:]:
            if ca != cb:
                continue
            diff = va ^ vb
            if diff and not (diff & (diff - 1)):
                out.add((va & ~diff, ca & ~diff))
                merged.add((va, ca))
                merged.add((vb, cb))
    out |= implicants - merged
    return out


def ref_prime_implicants(on: set[int], dc: set[int], n: int) -> list[tuple[int, int]]:
    full = (1 << n) - 1
    current: set[tuple[int, int]] = {(m, full) for m in on | dc}
    while True:
        nxt = _ref_combine(current)
        if nxt == current:
            break
        current = nxt
    return sorted(current)


# ---------------------------------------------------------------------------
# reference ``!=`` splitter: every full split, tried eagerly in the solver's
# order (splits in literal order, ``<`` before ``>``, the last split varying
# fastest), each leaf solved as ``plain + [(s1, r1), ...]``. The first
# feasible leaf's model is what ``solver._theory_model`` must return.


def ref_theory_model(literals: list[tuple[LinearAtom, bool]]):
    plain, splits = [], []
    for a, value in literals:
        eff = a if value else a.negated()
        if eff.rel == "!=":
            splits.append(eff)
        else:
            plain.append((eff, eff.rel))
    for rels in itertools.product(("<", ">"), repeat=len(splits)):
        model = solver._feasible(plain + list(zip(splits, rels)))
        if model is not None:
            return model
    return None


# ---------------------------------------------------------------------------
# reference concretization: the left side of every literal as the generic sum
# over its coefficients, as ``solver._concretize`` computed it before it read a
# single-variable literal's value directly


def ref_first_delta(values, literals: list[tuple[LinearAtom, bool]]) -> Fraction:
    """The first delta that concretization tries: half the smallest gap bound."""
    bounds: list[Fraction] = []
    for a, value in literals:
        eff = a if value else a.negated()
        lhs_std = Fraction(0)
        lhs_inf = Fraction(0)
        for var, coeff in eff.coeffs:
            std, inf = values.get(var, (0, 0))
            lhs_std += coeff * std
            lhs_inf += coeff * inf
        gap = eff.const - lhs_std
        if eff.rel in ("<", "<=") and lhs_inf > 0 and gap > 0:
            bounds.append(gap / lhs_inf)
        elif eff.rel in (">", ">=") and lhs_inf < 0 and gap < 0:
            bounds.append(gap / lhs_inf)
    return min(bounds + [Fraction(1)]) / 2


def ref_concretize(values, literals: list[tuple[LinearAtom, bool]]) -> dict[str, Fraction]:
    delta = ref_first_delta(values, literals)
    for _ in range(64):
        concrete = {v: std + inf * delta for v, (std, inf) in values.items()}
        if all((a.holds(concrete) if value else not a.holds(concrete)) for a, value in literals):
            return concrete
        delta /= 2
    raise AssertionError("delta concretization failed to converge")


# ---------------------------------------------------------------------------
# reference searches: the residual formula is rebuilt at every decision.
# ``ref_search`` assigns the decided atom alone and returns the leaf's theory
# solution; ``ref_satisfiable`` also assigns every single-variable atom that
# the trail's bounds decide. ``solver._search`` searches the same trees on a
# compiled node table, without and with ``propagate``, and must reach the
# same leaves.


def _ref_assign_atom(f: Formula, key: tuple | None, value: bool, var: str | None = None,
                     lo: tuple | None = None, hi: tuple | None = None) -> Formula:
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        a = f.atom
        if a.key() == key:
            return TRUE if value else FALSE
        if var is not None and len(a.coeffs) == 1 and a.coeffs[0][0] == var:
            truth = solver._bound_truth(a, lo, hi)
            if truth is not None:
                return TRUE if truth else FALSE
        return f
    if isinstance(f, And):
        kids = []
        for c in f.children:
            g = _ref_assign_atom(c, key, value, var, lo, hi)
            if isinstance(g, FalseF):
                return FALSE
            if not isinstance(g, TrueF):
                kids.append(g)
        if not kids:
            return TRUE
        return kids[0] if len(kids) == 1 else And(tuple(kids))
    if isinstance(f, Or):
        kids = []
        for c in f.children:
            g = _ref_assign_atom(c, key, value, var, lo, hi)
            if isinstance(g, TrueF):
                return TRUE
            if not isinstance(g, FalseF):
                kids.append(g)
        if not kids:
            return FALSE
        return kids[0] if len(kids) == 1 else Or(tuple(kids))
    raise TypeError(f"unexpected node in canonical formula: {f!r}")


def _ref_first_atom(f: Formula) -> LinearAtom:
    while not isinstance(f, Atom):
        f = f.children[0]
    return f.atom


def ref_search(f: Formula, trail: list[tuple[LinearAtom, bool]], depth: int = 0):
    """The ``_theory_model`` solution of the first leaf of the canonical ``f``
    that the theory accepts, with its decisions left in ``trail``, or None."""
    if isinstance(f, FalseF):
        return None
    if isinstance(f, TrueF):
        return solver._theory_model(trail)
    # periodic theory pruning keeps arithmetic-inconsistent trails from
    # blowing up the Boolean search on formulas with many atoms
    if depth and depth % 4 == 0 and solver._theory_model(trail) is None:
        return None
    branch = _ref_first_atom(f)
    for value in (True, False):
        trail.append((branch, value))
        result = ref_search(_ref_assign_atom(f, branch.key(), value), trail, depth + 1)
        if result is not None:
            return result
        trail.pop()
    return None


def ref_satisfiable(f: Formula, trail=None, bounds=None, hard: int = 0, depth: int = 0) -> bool:
    """Whether the canonical ``f`` has a model that satisfies ``trail``;
    ``bounds`` are the trail's bounds and ``hard`` counts its literals that set
    no bound."""
    trail = [] if trail is None else trail
    bounds = {} if bounds is None else bounds
    if isinstance(f, FalseF):
        return False
    if isinstance(f, TrueF):
        return not hard or solver._theory_model(trail) is not None
    if hard and depth % 4 == 0 and solver._theory_model(trail) is None:
        return False
    branch = _ref_first_atom(f)
    for value in (True, False):
        eff = branch if value else branch.negated()
        if len(eff.coeffs) == 1 and eff.rel != "!=":
            tighter = solver._bounded(bounds, eff)
            var = eff.coeffs[0][0]
            g, h = _ref_assign_atom(f, None, value, var, *tighter[var]), hard
        else:
            tighter, g, h = bounds, _ref_assign_atom(f, branch.key(), value), hard + 1
        trail.append((branch, value))
        if ref_satisfiable(g, trail, tighter, h, depth + 1):
            return True
        trail.pop()
    return False


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination (conjunctions of atoms)

# internal constraint form: (coeffs dict, strict bool, const) meaning
# sum(c*x) < const when strict else <= const


def _to_upper(coeffs: dict[str, Fraction], strict: bool, const: Fraction):
    return ({v: c for v, c in coeffs.items() if c != 0}, strict, const)


def _expand(atoms: list[LinearAtom]):
    """Expand atoms into <=/< constraints; yields one list per != branching."""
    base = []
    disequalities = []
    for a in atoms:
        coeffs = dict(a.coeffs)
        neg = {v: -c for v, c in coeffs.items()}
        if a.rel == "<":
            base.append(_to_upper(coeffs, True, a.const))
        elif a.rel == "<=":
            base.append(_to_upper(coeffs, False, a.const))
        elif a.rel == ">":
            base.append(_to_upper(neg, True, -a.const))
        elif a.rel == ">=":
            base.append(_to_upper(neg, False, -a.const))
        elif a.rel == "==":
            base.append(_to_upper(coeffs, False, a.const))
            base.append(_to_upper(neg, False, -a.const))
        else:
            disequalities.append(a)
    if not disequalities:
        yield base
        return
    for signs in itertools.product("<>", repeat=len(disequalities)):
        branch = list(base)
        for sign, a in zip(signs, disequalities):
            coeffs = dict(a.coeffs)
            if sign == "<":
                branch.append(_to_upper(coeffs, True, a.const))
            else:
                branch.append(_to_upper({v: -c for v, c in coeffs.items()}, True, -a.const))
        yield branch


def _fm_feasible(constraints) -> bool:
    variables = sorted({v for coeffs, _, _ in constraints for v in coeffs})
    rows = list(constraints)
    for var in variables:
        uppers, lowers, rest = [], [], []
        for coeffs, strict, const in rows:
            c = coeffs.get(var, Fraction(0))
            if c > 0:
                uppers.append((coeffs, strict, const, c))
            elif c < 0:
                lowers.append((coeffs, strict, const, c))
            else:
                rest.append((coeffs, strict, const))
        new_rows = rest
        for (uc, us, ub, ua) in uppers:
            for (lc, ls, lb, la) in lowers:
                scale_u = -la  # positive
                scale_l = ua  # positive
                coeffs: dict[str, Fraction] = {}
                for v in set(uc) | set(lc):
                    c = uc.get(v, Fraction(0)) * scale_u + lc.get(v, Fraction(0)) * scale_l
                    if c != 0:
                        coeffs[v] = c
                const = ub * scale_u + lb * scale_l
                new_rows.append((coeffs, us or ls, const))
        rows = new_rows
    for coeffs, strict, const in rows:
        assert not coeffs
        if strict and not Fraction(0) < const:
            return False
        if not strict and not Fraction(0) <= const:
            return False
    return True


def fourier_motzkin_satisfiable(atoms: list[LinearAtom]) -> bool:
    """Independent satisfiability decision for a conjunction of atoms."""
    return any(_fm_feasible(branch) for branch in _expand(atoms))


# ---------------------------------------------------------------------------
# integer-grid oracle


def grid_points(variables, span: int = 25, step: int = 1):
    axes = [range(-span, span + 1, step) for _ in variables]
    for point in itertools.product(*axes):
        yield Assignment.make(dict(zip(variables, point)))


def grid_satisfiable(f: Formula, variables, span: int = 25, step: int = 1) -> bool:
    return any(evaluate(f, a) for a in grid_points(variables, span, step))


# ---------------------------------------------------------------------------
# cell runs: the bounded and unbounded run-set references


def bounded_runs(runs: CellRuns, depth: int, avoid: frozenset = frozenset()) -> set[tuple]:
    """All cell-words of length <= depth of a run table, materialized,
    optionally avoiding some states; the reference for the unbounded
    run-set comparison below."""
    out: set[tuple] = set()

    def walk(state: str, prefix: tuple) -> None:
        if len(prefix) == depth:
            return
        for key, dst in runs.at(state):
            if dst in avoid:
                continue
            word = prefix + (key,)
            out.add(word)
            walk(dst, word)

    if runs.graph.initial not in avoid:
        walk(runs.graph.initial, ())
    return out


def accepts(runs: CellRuns, word: tuple, avoid: frozenset | None = None) -> bool:
    """Whether the run table takes the cell-word, never entering ``avoid``."""
    banned = avoid if avoid is not None else frozenset()
    state = runs.graph.initial
    for key in word:
        state = dict(runs.at(state)).get(key)
        if state is None or state in banned:
            return False
    return True


def runs_equal_minus_violations(
    original: CellRuns, patched: CellRuns, doomed: frozenset | None = None
) -> tuple | None:
    """Check runs(patched) == runs(original) minus violating runs, exactly;
    the cell reference for ``verify_patch``'s run-set clause.

    A finite run counts as violating once it enters ``doomed`` (the bad
    attractor: from there every maximal continuation reaches a bad state), so
    the comparison matches removal of violating maximal runs. Both sides are
    deterministic over cells and every state accepts, so the two run sets
    are equal, for runs of every length, iff at each pair of states that one
    word reaches on both sides, the two offer the same letters. A breadth-
    first search over those pairs checks this, computing a state's moves
    only when the search first reaches it. Returns None on success, else a
    shortest differing word (on one side only).
    """
    banned = doomed if doomed is not None else original.graph.bad
    start = (original.graph.initial, patched.graph.initial)
    parent: dict[tuple[str, str], tuple[tuple[str, str], tuple] | None] = {start: None}

    def word_to(pair: tuple[str, str]) -> tuple:
        letters = []
        while parent[pair] is not None:
            pair, key = parent[pair]
            letters.append(key)
        return tuple(reversed(letters))

    queue = deque([start])
    while queue:
        pair = queue.popleft()
        qa, qb = pair
        steps_a = {key: dst for key, dst in original.at(qa) if dst not in banned}
        steps_b = dict(patched.at(qb))
        for key, dst in patched.at(qb):
            if dst in patched.graph.bad:
                return word_to(pair) + (key,)  # a violating run survived the patch
        if steps_a.keys() != steps_b.keys():
            return word_to(pair) + (min(steps_a.keys() ^ steps_b.keys()),)
        for key, dst in steps_a.items():
            nxt = (dst, steps_b[key])
            if nxt not in parent:
                parent[nxt] = (pair, key)
                queue.append(nxt)
    return None


# ---------------------------------------------------------------------------
# discrete-event brute force


def discrete_runs(objects: list[DiscreteObject], depth: int) -> tuple[set[tuple[str, ...]], set[tuple[str, ...]]]:
    """All event-name runs up to depth, plus the subset touching a bad state.

    Implements classic discrete semantics directly: each step any requested,
    unblocked event may fire; objects that requested or waited for it advance
    along their matching edge (staying put without one).
    """
    runs: set[tuple[str, ...]] = set()
    violating: set[tuple[str, ...]] = set()

    def advance(obj: DiscreteObject, state: str, event: str) -> str:
        if event not in (obj.request[state] | obj.waitfor[state]):
            return state
        for src, ev, dst in obj.edges:
            if src == state and ev == event:
                return dst
        return state

    def walk(states: tuple[str, ...], prefix: tuple[str, ...], hit_bad: bool) -> None:
        if len(prefix) == depth:
            return
        requested = set().union(*(o.request[s] for o, s in zip(objects, states)))
        blocked = set().union(*(o.block[s] for o, s in zip(objects, states)))
        for event in sorted(requested - blocked):
            nxt = tuple(advance(o, s, event) for o, s in zip(objects, states))
            word = prefix + (event,)
            bad = hit_bad or any(s in o.bad for o, s in zip(objects, nxt))
            runs.add(word)
            if bad:
                violating.add(word)
            walk(nxt, word, bad)

    walk(tuple(o.initial for o in objects), (), False)
    return runs, violating


def _discrete_step(objects, states, event):
    def advance(obj, state):
        if event not in (obj.request[state] | obj.waitfor[state]):
            return state
        for src, ev, dst in obj.edges:
            if src == state and ev == event:
                return dst
        return state

    return tuple(advance(o, s) for o, s in zip(objects, states))


def discrete_attractor(objects: list[DiscreteObject]) -> set[tuple[str, ...]]:
    """Product states from which every continuation reaches a bad state.

    Discrete twin of the bad-attractor fixpoint: seeded with reachable bad
    product states, grown by states whose every enabled successor is in the
    set; deadlocked states stay out.
    """
    initial = tuple(o.initial for o in objects)
    seen = {initial}
    frontier = [initial]
    succs: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    while frontier:
        states = frontier.pop()
        requested = set().union(*(o.request[s] for o, s in zip(objects, states)))
        blocked = set().union(*(o.block[s] for o, s in zip(objects, states)))
        nxt = {_discrete_step(objects, states, e) for e in sorted(requested - blocked)}
        succs[states] = nxt
        for n in nxt:
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    doomed = {s for s in seen if any(q in o.bad for o, q in zip(objects, s))}
    changed = True
    while changed:
        changed = False
        for s in seen - doomed:
            if succs[s] and succs[s] <= doomed:
                doomed.add(s)
                changed = True
    return doomed


def discrete_safe_runs(objects: list[DiscreteObject], depth: int) -> set[tuple[str, ...]]:
    """Runs up to depth that keep a non-violating continuation available."""
    doomed = discrete_attractor(objects)
    runs: set[tuple[str, ...]] = set()

    def walk(states, prefix):
        if len(prefix) == depth:
            return
        requested = set().union(*(o.request[s] for o, s in zip(objects, states)))
        blocked = set().union(*(o.block[s] for o, s in zip(objects, states)))
        for event in sorted(requested - blocked):
            nxt = _discrete_step(objects, states, event)
            if nxt in doomed:
                continue
            word = prefix + (event,)
            runs.add(word)
            walk(nxt, word)

    start = tuple(o.initial for o in objects)
    if start not in doomed:
        walk(start, ())
    return runs


# ---------------------------------------------------------------------------
# graph isomorphism (small graphs, labels compared by the solver)


def isomorphic(g1: ObjectGraph, g2: ObjectGraph, vars: VarSet) -> bool:
    if len(g1.states) != len(g2.states) or len(g1.edges) != len(g2.edges):
        return False
    if len(g1.bad) != len(g2.bad):
        return False

    def labels_match(a: str, b: str) -> bool:
        return (
            (a in g1.bad) == (b in g2.bad)
            and solver.equivalent(g1.request[a], g2.request[b], vars)
            and solver.equivalent(g1.block[a], g2.block[b], vars)
            and solver.equivalent(g1.waitfor[a], g2.waitfor[b], vars)
        )

    states1 = sorted(g1.states)
    candidates = {
        a: [b for b in sorted(g2.states) if labels_match(a, b)] for a in states1
    }

    def edges_ok(mapping: dict[str, str]) -> bool:
        for e in g1.edges:
            if e.src in mapping and e.dst in mapping:
                twins = [f for f in g2.out_edges(mapping[e.src]) if f.dst == mapping[e.dst]]
                if not any(solver.equivalent(e.guard, f.guard, vars) for f in twins):
                    return False
        return True

    def backtrack(i: int, mapping: dict[str, str], used: set[str]) -> bool:
        if i == len(states1):
            # bijection with matching labels; edge counts equal and every
            # g1 edge matched, so the edge sets correspond
            return True
        a = states1[i]
        for b in candidates[a]:
            if b in used:
                continue
            if (a == g1.initial) != (b == g2.initial):
                continue
            mapping[a] = b
            if edges_ok(mapping) and backtrack(i + 1, mapping, used | {b}):
                return True
            del mapping[a]
        return False

    return backtrack(0, {}, set())
