"""General simplex over delta-rationals: feasibility of linear constraints.

The solver's theory layer hands a conjunction of atoms to ``feasible`` only
when some atom has two or more variables; single-variable conjunctions are
decided by the bound clamping in ``solver``, which is what this simplex
reduces to when it has no rows. So a model whose atoms each have one
variable never executes this module.

Delta-rationals, the bounds they form (``solver._tightened``) and their zero
(``solver.ZERO``) are the solver's: a pair (standard, infinitesimal) stands
for standard + infinitesimal * delta, ordered as tuples.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .formulas import LinearAtom
from .solver import ZERO, _tightened


def _shifted(d: tuple, diff: tuple, k: Rational) -> tuple:
    """The delta-rational ``d + k * diff``."""
    return d[0] + k * diff[0], d[1] + k * diff[1]


class _Simplex:
    """General simplex over delta-rationals (Bland's rule, no objective)."""

    def __init__(self) -> None:
        self.order: list[str] = []  # fixed variable order; index is Bland priority
        self.value: dict[str, tuple] = {}
        self.lower: dict[str, tuple] = {}
        self.upper: dict[str, tuple] = {}
        self.rows: dict[str, dict[str, Fraction]] = {}  # basic -> {nonbasic: coeff}

    def add_var(self, name: str) -> None:
        if name not in self.value:
            self.order.append(name)
            self.value[name] = ZERO

    def add_row(self, slack: str, combo: dict[str, Fraction]) -> None:
        # slack = sum(combo); incoming vars are nonbasic with value 0, so slack
        # starts at 0 as well.
        self.add_var(slack)
        self.rows[slack] = dict(combo)

    def _update(self, var: str, val: tuple) -> None:
        old = self.value[var]
        diff = (val[0] - old[0], val[1] - old[1])
        for b, row in self.rows.items():
            coeff = row.get(var)
            if coeff:
                self.value[b] = _shifted(self.value[b], diff, coeff)
        self.value[var] = val

    def _pivot(self, xi: str, xj: str) -> None:
        row = self.rows.pop(xi)
        aij = row[xj]
        new_row = {v: -c / aij for v, c in row.items() if v != xj}
        new_row[xi] = Fraction(1) / aij
        for b, other in list(self.rows.items()):
            c = other.pop(xj, None)
            if c:
                for v, k in new_row.items():
                    other[v] = other.get(v, Fraction(0)) + c * k
                    if other[v] == 0:
                        del other[v]
        self.rows[xj] = new_row

    def _pivot_and_update(self, xi: str, xj: str, target: tuple) -> None:
        aij = self.rows[xi][xj]
        old = self.value[xi]
        theta = ((target[0] - old[0]) / aij, (target[1] - old[1]) / aij)
        self.value[xi] = target
        self.value[xj] = _shifted(self.value[xj], theta, 1)
        for b, row in self.rows.items():
            if b != xi:
                coeff = row.get(xj)
                if coeff:
                    self.value[b] = _shifted(self.value[b], theta, coeff)
        self._pivot(xi, xj)

    def solve(self) -> bool:
        # Move nonbasic vars inside their bounds first (basic ones follow).
        for v in self.order:
            if v in self.rows:
                continue
            lo, hi = self.lower.get(v), self.upper.get(v)
            if lo is not None and self.value[v] < lo:
                self._update(v, lo)
            elif hi is not None and hi < self.value[v]:
                self._update(v, hi)
        idx = {v: i for i, v in enumerate(self.order)}
        while True:
            broken = None
            for v in sorted(self.rows, key=idx.__getitem__):
                lo, hi = self.lower.get(v), self.upper.get(v)
                if lo is not None and self.value[v] < lo:
                    broken, target, increase = v, lo, True
                    break
                if hi is not None and hi < self.value[v]:
                    broken, target, increase = v, hi, False
                    break
            if broken is None:
                return True
            row = self.rows[broken]
            candidate = None
            for u in sorted(row, key=idx.__getitem__):
                coeff = row[u]
                room_up = self.upper.get(u) is None or self.value[u] < self.upper[u]
                room_down = self.lower.get(u) is None or self.lower[u] < self.value[u]
                if increase and ((coeff > 0 and room_up) or (coeff < 0 and room_down)):
                    candidate = u
                    break
                if not increase and ((coeff < 0 and room_up) or (coeff > 0 and room_down)):
                    candidate = u
                    break
            if candidate is None:
                return False
            self._pivot_and_update(broken, candidate, target)


def feasible(constraints: list[tuple[LinearAtom, str]]) -> dict[str, tuple] | None:
    """``solver._feasible`` by the simplex: a delta-rational value for every
    variable of the atoms under their effective relations, or None when they
    are infeasible. Each distinct left side of several variables gets one
    slack row, and every bound goes on a variable or a slack."""
    simplex = _Simplex()
    for a, _ in constraints:
        for v in a.variables():
            simplex.add_var(v)
    slack_of: dict[tuple, str] = {}
    bounds: dict[str, tuple] = {}
    for a, rel in constraints:
        if len(a.coeffs) == 1:
            var = a.coeffs[0][0]  # leading coefficient is 1 by normalization
        else:
            var = slack_of.get(a.coeffs)
            if var is None:
                var = slack_of[a.coeffs] = f"$s{len(slack_of)}"
                simplex.add_row(var, {v: c for v, c in a.coeffs})
        lo, hi = bounds[var] = _tightened(*bounds.get(var, (None, None)), a.key()[2], rel)
        if lo is not None and hi is not None and hi < lo:
            return None
    for var, (lo, hi) in bounds.items():
        if lo is not None:
            simplex.lower[var] = lo
        if hi is not None:
            simplex.upper[var] = hi
    if not simplex.solve():
        return None
    return {v: simplex.value[v] for v in simplex.order if not v.startswith("$s")}
