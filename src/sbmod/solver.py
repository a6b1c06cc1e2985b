"""Satisfiability of quantifier-free linear real arithmetic, with models.

A model query, ``check_sat``, returns the model, an ``Assignment``, or None
when the query is unsatisfiable; a yes/no query, ``satisfiable``, returns a
bool.

Architecture: a small DPLL search over the Boolean structure (branching on
atoms and deciding the connectives above them) hands conjunctions of theory
literals to a general-simplex feasibility check, which lives in ``simplex``
and is executed only when some atom has two variables; otherwise to the
bound clamping that the simplex reduces to, kept here. Strict
inequalities are handled symbolically with delta-rationals (standard +
infinitesimal * delta), written as (standard, infinitesimal) pairs whose
tuple order is the delta order, in the simplex, the bound clamping and
propagation alike, and concretized afterwards to a small positive
rational, so returned models are plain exact rationals that satisfy strict
bounds strictly. The leading coefficient of an atom is 1, so the left side of
a single-variable literal is its variable's value, which concretization reads
without a sum; only literals over several variables sum their terms.

Disequalities are kept as primitive atoms and split into ``<`` or ``>`` at the
theory level, by a depth-first search over the split decisions: splits in
literal order, ``<`` before ``>``, each decided prefix checked for
feasibility and its subtree skipped when it is infeasible. A leaf's
constraints are the other literals followed by the decided splits, and the
first feasible leaf's simplex values are the model. Pruning removes only
subtrees without a feasible leaf, so this is the first feasible leaf of the
eager split over all 2^k combinations. The lazy split of Dutertre & de Moura
(CAV 2006: solve without the disequalities, branch on one the model breaks)
is not used, because its simplex sees another constraint list and returns
other models, and models reach every witness and trace the CLI prints.
The solver is deterministic: identical queries yield identical models, and
unconstrained variables are assigned 0.

A query whose canonical form is an atom or a conjunction of atoms skips the
Boolean search and goes to the theory in one call, with its literals in
canonical order: that is the trail on which the search would reach its
leaf, since it sets each conjunct true in that order and its periodic
theory checks cut only prefixes that are unsatisfiable, so the model is the
same.

There is one Boolean search, ``_search``. It compiles the canonical query
once into a table of connectives and distinct atoms, so a decision touches
only the atoms it decides and their ancestors, and an undo trail restores
them on backtrack (the occurrence lists of Moskewicz et al., Chaff, DAC
2001). It branches as a search that rebuilds the residual formula at every
decision would (the test suite keeps that search as the reference), so
``check_sat`` searches the same tree, reaches the same leaf and returns the
same model.

``satisfiable`` answers the yes/no questions (``entails``, ``equivalent``).
It reads no model, only whether the query has one, so it searches with
``propagate`` and keeps its own cache by formula key. That adds the bound
propagation of Dutertre & de Moura: after each decision, every
single-variable atom that the trail's bounds decide (the same delta-rational
pairs as the bound clamping) is assigned. So a value whose bound would cross
the trail's is pruned before it is tried, and the trail's bounds never
cross. Literals that set no bound, atoms with two variables and ``!=``, keep
the periodic theory check, and a leaf that holds one runs the exact
``_theory_model``; a leaf of bounds alone is satisfiable. Propagation stops
on shorter trails, which would change the models, so ``check_sat`` does not.

Every atom builds its negation once and shares it (``LinearAtom.negated``), so
the theory check, concretization, the searches and the minimizer negate a
literal without building an atom.

Everything here is self-contained and exact; no floats, no external solver.
Set the environment variable ``SBM_SOLVER_DEBUG=1`` to dump each query in
SMT-LIB2 QF_LRA syntax on stderr for cross-checking against external tools;
it is read once, when this module executes.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from fractions import Fraction
from numbers import Rational

# simplex is deferred (see the package docstring)
from . import simplex
from .formulas import (
    And,
    Assignment,
    Atom,
    FalseF,
    Formula,
    LinearAtom,
    Or,
    TrueF,
    VarSet,
    canonicalize,
    conj,
    evaluate,
    formula_key,
    negate,
    to_sexpr,
    variables_of,
)


# ---------------------------------------------------------------------------
# theory layer: conjunction feasibility via bounds, or the general simplex
# of ``simplex``
#
# A delta-rational, standard + infinitesimal * delta for a symbolic delta > 0,
# is the pair (standard, infinitesimal). Tuple order is the delta order: it is
# lexicographic, which is the order of the sums for every delta small enough.

ZERO = (0, 0)


# infinitesimal part of the lower and of the upper bound that each relation sets
_LOWER_DELTA = {">=": 0, ">": 1, "==": 0}
_UPPER_DELTA = {"<=": 0, "<": -1, "==": 0}


def _tightened(lo: tuple | None, hi: tuple | None, const: Rational, rel: str) -> tuple:
    """The (lower, upper) pair ``lo``, ``hi`` tightened by ``x rel const``.

    Each bound is a delta-rational pair, or None when absent. The standard
    part is the constant as an atom's key holds it, an ``int`` when
    integral, which keeps the comparisons cheap.
    """
    if rel in _LOWER_DELTA:
        bound = (const, _LOWER_DELTA[rel])
        if lo is None or lo < bound:
            lo = bound
    if rel in _UPPER_DELTA:
        bound = (const, _UPPER_DELTA[rel])
        if hi is None or bound < hi:
            hi = bound
    return lo, hi


def _clamped(constraints: list[tuple[LinearAtom, str]]) -> dict[str, tuple] | None:
    """``_feasible`` when no atom has two variables. The simplex would then
    have no rows, and its ``solve`` only clamps each variable from 0 into its
    bounds: the same values, the bounds of ``_tightened`` themselves."""
    bounds: dict[str, tuple] = {}
    for a, rel in constraints:
        var = a.coeffs[0][0]  # leading coefficient is 1 by normalization
        lo, hi = bounds[var] = _tightened(*bounds.get(var, (None, None)), a.key()[2], rel)
        if lo is not None and hi is not None and hi < lo:
            return None
    values = {}
    for var, (lo, hi) in bounds.items():
        if lo is not None and ZERO < lo:
            values[var] = lo
        elif hi is not None and hi < ZERO:
            values[var] = hi
        else:
            values[var] = ZERO
    return values


def _feasible(constraints: list[tuple[LinearAtom, str]]) -> dict[str, tuple] | None:
    """Feasibility of atoms under effective relations (no ``!=`` here)."""
    if all(len(a.coeffs) == 1 for a, _ in constraints):
        return _clamped(constraints)
    return simplex.feasible(constraints)


def _theory_model(literals: list[tuple[LinearAtom, bool]]) -> dict[str, tuple] | None:
    """Solve a conjunction of signed atoms, splitting ``!=`` into ``<`` or ``>``
    depth-first and skipping the subtree of an infeasible decided prefix."""
    plain: list[tuple[LinearAtom, str]] = []
    splits: list[LinearAtom] = []
    for a, value in literals:
        eff = a if value else a.negated()
        if eff.rel == "!=":
            splits.append(eff)
        else:
            plain.append((eff, eff.rel))
    if not splits:
        return _feasible(plain)
    return _split(plain, splits, 0)


def _split(
    decided: list[tuple[LinearAtom, str]], splits: list[LinearAtom], i: int
) -> dict[str, tuple] | None:
    for rel in ("<", ">"):
        prefix = decided + [(splits[i], rel)]
        result = _feasible(prefix)
        if result is not None and i + 1 < len(splits):
            result = _split(prefix, splits, i + 1)
        if result is not None:
            return result
    return None


def _concretize(values: dict[str, tuple], literals: list[tuple[LinearAtom, bool]]) -> dict[str, Fraction]:
    """Pick a concrete rational delta small enough to keep every constraint true."""
    bounds: list[Fraction] = []
    for a, value in literals:
        eff = a if value else a.negated()
        if len(eff.coeffs) == 1:
            # the leading coefficient is 1, so the left side is the value
            lhs_std, lhs_inf = values.get(eff.coeffs[0][0], ZERO)
        else:
            lhs_std = lhs_inf = Fraction(0)
            for var, coeff in eff.coeffs:
                std, inf = values.get(var, ZERO)
                lhs_std += coeff * std
                lhs_inf += coeff * inf
        gap = eff.const - lhs_std
        if eff.rel in ("<", "<=") and lhs_inf > 0 and gap > 0:
            bounds.append(gap / lhs_inf)
        elif eff.rel in (">", ">=") and lhs_inf < 0 and gap < 0:
            bounds.append(gap / lhs_inf)
    delta = min(bounds + [Fraction(1)]) / 2
    for _ in range(64):
        concrete = {v: std + inf * delta for v, (std, inf) in values.items()}
        if all((a.holds(concrete) if value else not a.holds(concrete)) for a, value in literals):
            return concrete
        delta /= 2  # only exact-hit disequalities can land here
    raise AssertionError("delta concretization failed to converge")


# ---------------------------------------------------------------------------
# satisfiability with models


# query cache: everything here is deterministic and formulas are immutable,
# so identical queries (frequent across extraction/composition) are replayed;
# it and every other per-process cache are kept by ``remember``
_cache: dict[tuple, Assignment | None] = {}
_CACHE_LIMIT = 200_000
_MISS = object()

# whether each query is dumped on stderr (module docstring)
_DEBUG = os.environ.get("SBM_SOLVER_DEBUG") == "1"


def remember(cache: dict, key: object, compute: Callable[[], object]):
    """``cache[key]``, else ``compute()``, kept while ``cache`` holds fewer
    than ``_CACHE_LIMIT`` entries. A present key is a hit, so a cached None,
    False or empty tuple is answered from the cache."""
    value = cache.get(key, _MISS)
    if value is _MISS:
        value = compute()
        if len(cache) < _CACHE_LIMIT:
            cache[key] = value
    return value


def check_sat(f: Formula, vars: VarSet) -> Assignment | None:
    """A concrete rational model of ``f``, or None when ``f`` is unsatisfiable.

    The model covers every variable in ``vars`` (and any extra variables the
    formula mentions); unconstrained variables are assigned 0. Deterministic.
    """
    if _DEBUG:
        print(to_smtlib2(f, vars), file=sys.stderr)
    g = canonicalize(f)
    return remember(_cache, (formula_key(g), vars.names), lambda: _solve(g, vars))


def _solve(g: Formula, vars: VarSet) -> Assignment | None:
    literals = g.children if isinstance(g, And) else (g,)
    if all(isinstance(c, Atom) for c in literals):
        # the trail on which ``_search`` would reach its leaf (module docstring)
        trail = [(c.atom, True) for c in literals]
        solution = _theory_model(trail)
    else:
        trail = []
        solution = _search(g, trail, propagate=False)
    if solution is None:
        return None
    concrete = _concretize(solution, trail)
    names = set(vars.names) | variables_of(g)
    model = Assignment({v: concrete.get(v, Fraction(0)) for v in sorted(names)})
    if not evaluate(g, model):
        raise RuntimeError("solver produced a non-model")
    return model


# ---------------------------------------------------------------------------
# Boolean search


def _bounded(bounds: dict, eff: LinearAtom) -> dict:
    """``bounds`` with the bound that the single-variable literal ``eff`` sets.

    The bounds of a trail map each variable to its (lower, upper) pair of
    ``_tightened``. Only a literal that its bounds leave undecided is added,
    so they never cross.
    """
    var = eff.coeffs[0][0]
    tighter = dict(bounds)
    tighter[var] = _tightened(*bounds.get(var, (None, None)), eff.key()[2], eff.rel)
    return tighter


def _bound_truth(a: LinearAtom, lo: tuple | None, hi: tuple | None) -> bool | None:
    """The truth of the single-variable atom ``a`` on every value between
    ``lo`` and ``hi``, or None when it differs between them."""
    positive = a.rel != "!="
    low, up = _tightened(None, None, a.key()[2], a.rel if positive else "==")
    if (low is not None and hi is not None and hi < low) or (up is not None and lo is not None and up < lo):
        return not positive
    if (low is None or (lo is not None and low <= lo)) and (up is None or (hi is not None and hi <= up)):
        return positive
    return None


def _search(
    g: Formula, trail: list[tuple[LinearAtom, bool]], propagate: bool
) -> dict[str, tuple] | None:
    """The first leaf of a DPLL search over the canonical formula ``g`` that
    the theory accepts: its ``_theory_model`` solution, with the leaf's
    decisions left in ``trail``, or None when ``g`` is unsatisfiable.

    The branch atom is the first atom of the residual formula that a rebuild
    under the decisions would leave, tried true before false, and every
    fourth depth the trail is theory-checked and cut when infeasible
    (``tests/oracles.py`` keeps that rebuild search as ``ref_search``). The
    search runs on a node table compiled from ``g`` once. The table numbers
    the connectives and the distinct atoms of ``g`` in one index space:
    ``value`` holds each entry's truth (None while undecided), ``pending``
    each connective's count of children not yet decided to its unit (true
    under ``And``, false under ``Or``), and ``parents`` each entry's
    connectives. Entry 0 is an ``And`` over ``g``, so ``value[0]`` is the
    truth of ``g``. A decision assigns its atoms and walks up from them;
    every change goes on an undo trail, which a failed branch rolls back. An
    undecided connective always has an undecided child, and the branch atom
    is the first one that the walk down the first undecided children reaches.

    ``propagate`` is for the queries that read no model (``satisfiable``): a
    decision on a single-variable literal other than ``!=`` then assigns
    every single-variable atom that the trail's bounds decide, itself
    included, and only the literals that set no bound call for theory
    checks. A leaf of bounds alone returns an empty solution, since bounds
    that do not cross have a value between them.
    """
    if isinstance(g, FalseF):
        return None
    if isinstance(g, TrueF):
        return _theory_model(trail)
    value: list[bool | None] = [None]
    pending = [1]
    absorbing = [False]  # the child truth that decides the connective at once
    parents: list[list[int]] = [[-1]]
    children: list[list[int]] = [[]]
    atom_of: list[LinearAtom | None] = [None]
    index: dict[tuple, int] = {}
    by_var: dict[str, list[int]] = {}  # variable -> its single-variable atoms

    def add(f: Formula, parent: int) -> None:
        if isinstance(f, Atom):
            i = index.get(f._key)
            if i is None:
                i = index[f._key] = len(value)
                value.append(None)
                pending.append(0)
                absorbing.append(False)
                parents.append([])
                children.append([])
                atom_of.append(f.atom)
                if len(f.atom.coeffs) == 1:
                    by_var.setdefault(f.atom.coeffs[0][0], []).append(i)
        else:
            i = len(value)
            value.append(None)
            pending.append(len(f.children))
            absorbing.append(isinstance(f, Or))
            parents.append([])
            children.append([])
            atom_of.append(None)
            for c in f.children:
                add(c, i)
        parents[i].append(parent)
        children[parent].append(i)

    add(g, 0)
    undo: list[int] = []  # i: value[i] was set; ~i: pending[i] was lowered

    def assign(i: int, truth: bool) -> None:
        value[i] = truth
        undo.append(i)
        for p in parents[i]:
            while value[p] is None:
                if truth != absorbing[p]:
                    pending[p] -= 1
                    undo.append(~p)
                    if pending[p]:
                        break
                value[p] = truth
                undo.append(p)
                p = parents[p][0]
                if p < 0:
                    break

    def search(bounds: dict, hard: int, depth: int) -> dict[str, tuple] | None:
        done = value[0]
        if done is not None:
            if not done:
                return None
            return _theory_model(trail) if hard else {}
        if hard and depth % 4 == 0 and _theory_model(trail) is None:
            return None
        i = 0
        while atom_of[i] is None:
            for c in children[i]:
                if value[c] is None:
                    i = c
                    break
            else:
                raise RuntimeError("an undecided connective has no undecided child")
        branch = atom_of[i]
        mark = len(undo)
        for truth in (True, False):
            eff = branch if truth else branch.negated()
            if propagate and len(eff.coeffs) == 1 and eff.rel != "!=":
                tighter = _bounded(bounds, eff)
                lo, hi = tighter[eff.coeffs[0][0]]
                for j in by_var[eff.coeffs[0][0]]:
                    if value[j] is None:
                        decided = _bound_truth(atom_of[j], lo, hi)
                        if decided is not None:
                            assign(j, decided)
                h = hard
            else:
                tighter, h = bounds, hard + 1
                assign(i, truth)
            trail.append((branch, truth))
            solution = search(tighter, h, depth + 1)
            if solution is not None:
                return solution
            trail.pop()
            while len(undo) > mark:
                j = undo.pop()
                if j >= 0:
                    value[j] = None
                else:
                    pending[~j] += 1
        return None

    return search({}, 0, 0)


# satisfiability by formula key: the answer does not depend on the variable set
_decided: dict[tuple, bool] = {}


def satisfiable(f: Formula, vars: VarSet) -> bool:
    """Whether ``f`` is satisfiable, as ``check_sat(f, vars) is not None``,
    but with no model, so no ``evaluate`` gate:
    ``test_decision_matches_check_sat`` checks the answers. Dumps the query
    as ``check_sat`` does."""
    if _DEBUG:
        print(to_smtlib2(f, vars), file=sys.stderr)
    g = canonicalize(f)
    return remember(_decided, formula_key(g), lambda: _search(g, [], propagate=True) is not None)


def entails(f: Formula, g: Formula, vars: VarSet) -> bool:
    """True iff every assignment satisfying ``f`` satisfies ``g``."""
    return not satisfiable(conj([f, negate(g)]), vars)


def equivalent(f: Formula, g: Formula, vars: VarSet) -> bool:
    """Mutual entailment, via two unsatisfiability queries."""
    return entails(f, g, vars) and entails(g, f, vars)


def to_smtlib2(f: Formula, vars: VarSet) -> str:
    """Render the query in SMT-LIB2 QF_LRA syntax (debug interchange)."""
    names = sorted(set(vars.names) | variables_of(f))
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {v} Real)" for v in names]
    lines.append(f"(assert {to_sexpr(f)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines)
