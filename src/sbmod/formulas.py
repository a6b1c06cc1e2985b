"""Linear-arithmetic formulas over real variables, with exact semantics.

Everything downstream (solving, extraction, composition, repair) hinges on two
facts about this module: arithmetic is exact rational (``fractions.Fraction``,
never floats, since guard satisfaction is boundary-sensitive), and every
formula has a canonical form so that syntactically different but structurally
equal formulas compare equal.

Atoms read ``sum(c_i * x_i) REL constant`` with REL one of
``< <= == >= > !=``. Atoms are normalized once, at construction:
``LinearAtom.make`` is the only builder, and it scales the coefficients so the
first nonzero one (in variable order) is 1, flipping the relation when
scaling by a negative; ``negated`` keeps that form. An atom's ``key`` and
its negation are computed once: the negation is built on the first
``negated`` call, and the two atoms then point at each other. In a key, an
integral coefficient or constant is stored as its ``int``: an int orders,
compares and hashes like the equal ``Fraction``, so every sort and cache
lookup is unchanged, but runs in C instead of through ``Fraction``'s
Python-level methods.

Canonicalization is one walk, which serves ``canonicalize``, ``negate``,
``conj`` and ``disj``: on the way down it pushes negation into the atoms, and
on the way up it flattens, deduplicates and sorts each connective once, so
each canonical node is built once. It is idempotent.

Canonical nodes carry their ``formula_key``, stored once when they are built
in a field that equality, hashing and printing ignore: every ``Atom``,
``TRUE`` and ``FALSE``, and each ``And``/``Or`` that the walk builds. So
``canonicalize`` is O(1) on canonical input (it returns the node itself),
``formula_key`` is a field read, and ``conj``/``disj`` over canonical parts
only join the top level.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import attrgetter

Rational = int | Fraction

RELATIONS = ("<", "<=", "==", ">=", ">", "!=")

# relation under logical negation: not (x < c)  <=>  x >= c
_NEGATE_REL = {"<": ">=", "<=": ">", "==": "!=", ">=": "<", ">": "<=", "!=": "=="}
# relation mirrored when both sides are scaled by a negative factor
_FLIP_REL = {"<": ">", "<=": ">=", "==": "==", ">=": "<=", ">": "<", "!=": "!="}


class DomainMismatchError(KeyError):
    """A formula mentions a variable the assignment does not cover."""


# The value types of the package are plain classes with ``__slots__``. A
# read-only one sets its fields in ``__init__`` through ``_set`` and refuses
# every later assignment through ``_read_only``.
_set = object.__setattr__


def _read_only(self, name: str, *_) -> None:
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class VarSet:
    """Ordered set of real-valued variable names (lexicographic, no dupes)."""

    __slots__ = ("names",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, names: tuple[str, ...]) -> None:
        if not names:
            raise ValueError("variable set must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        _set(self, "names", tuple(sorted(names)))

    def __eq__(self, other: object) -> bool:
        return type(other) is VarSet and other.names == self.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)


def _key_number(x: Rational) -> Rational:
    """``x`` as it goes into an atom key: an integral number as its ``int``."""
    return x.numerator if x.denominator == 1 else x


class LinearAtom:
    """A single linear constraint ``sum(c_i * x_i) REL const``.

    ``coeffs`` is a sorted tuple of (variable, coefficient) pairs with no zero
    coefficients and a leading coefficient of 1. Build atoms with :meth:`make`;
    the raw constructor rejects a leading coefficient other than 1. Equal
    atoms have equal keys, so equality and hashing read the key.
    """

    __slots__ = ("coeffs", "rel", "const", "_key", "_negation")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, coeffs: tuple[tuple[str, Fraction], ...], rel: str, const: Fraction) -> None:
        if not coeffs or coeffs[0][1] != 1:
            raise ValueError("atoms are built by LinearAtom.make (leading coefficient 1)")
        _set(self, "coeffs", coeffs)
        _set(self, "rel", rel)
        _set(self, "const", const)
        key_coeffs = tuple((v, _key_number(c)) for v, c in coeffs)
        _set(self, "_key", (key_coeffs, RELATIONS.index(rel), _key_number(const)))
        _set(self, "_negation", None)

    def __eq__(self, other: object) -> bool:
        return type(other) is LinearAtom and other._key == self._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"LinearAtom({self.coeffs!r}, {self.rel!r}, {self.const!r})"

    @staticmethod
    def make(coeffs: Mapping[str, Rational], rel: str, const: Rational) -> "LinearAtom":
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        items = sorted((v, Fraction(c)) for v, c in coeffs.items() if Fraction(c) != 0)
        if not items:
            raise ValueError("linear atom needs at least one nonzero coefficient")
        lead = items[0][1]
        if lead != 1:
            items = [(v, c / lead) for v, c in items]
            const = Fraction(const) / lead
            if lead < 0:
                rel = _FLIP_REL[rel]
        return LinearAtom(tuple(items), rel, Fraction(const))

    def negated(self) -> "LinearAtom":
        """The atom of the negated relation, built on the first call; the two
        atoms then point at each other, so ``a.negated().negated() is a``."""
        other = self._negation
        if other is None:
            other = LinearAtom(self.coeffs, _NEGATE_REL[self.rel], self.const)
            _set(other, "_negation", self)
            _set(self, "_negation", other)
        return other

    def polarity_rep(self) -> "LinearAtom":
        """The representative of {self, negated self}: the smaller key."""
        other = self.negated()
        return self if self.key() <= other.key() else other

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def holds(self, values: Mapping[str, Fraction]) -> bool:
        try:
            if len(self.coeffs) == 1:
                # the leading coefficient is 1, so the left side is the value
                lhs = values[self.coeffs[0][0]]
            else:
                lhs = Fraction(0)
                for var, coeff in self.coeffs:
                    lhs += coeff * values[var]
        except KeyError as missing:
            raise DomainMismatchError(f"assignment missing variable {missing.args[0]!r}")
        if self.rel == "<":
            return lhs < self.const
        if self.rel == "<=":
            return lhs <= self.const
        if self.rel == "==":
            return lhs == self.const
        if self.rel == ">=":
            return lhs >= self.const
        if self.rel == ">":
            return lhs > self.const
        return lhs != self.const

    def key(self) -> tuple:
        return self._key

    def __str__(self) -> str:
        return _atom_infix(self)


class Formula:
    """Base class; concrete nodes are TrueF, FalseF, Atom, And and Or.
    Negation is an operation, ``negate``, that pushes into the atoms.

    Nodes are read-only values: two nodes are equal when they have the same
    type and equal fields (``_fields``). ``_key`` is the formula_key of a
    canonical node, stored once when it is built, and None on nodes
    canonicalize has not produced; equality, hashing and repr ignore it.
    """

    __slots__ = ("_key",)
    __setattr__ = __delattr__ = _read_only

    def _fields(self) -> tuple:
        return ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"

    def __deepcopy__(self, memo: dict) -> "Formula":
        return self  # read-only, so a copied statement can share its formulas

    def __str__(self) -> str:
        return to_infix(self)


class TrueF(Formula):
    __slots__ = ()
    _key = (1,)


class FalseF(Formula):
    __slots__ = ()
    _key = (0,)


class Atom(Formula):
    __slots__ = ("atom",)

    def __init__(self, atom: LinearAtom) -> None:
        _set(self, "atom", atom)
        # atoms are normalized at construction, so every atom node is canonical
        _set(self, "_key", (2, atom._key))

    def _fields(self) -> tuple:
        return (self.atom,)


class And(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]) -> None:
        _set(self, "children", children)
        _set(self, "_key", None)

    def _fields(self) -> tuple:
        return (self.children,)


class Or(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]) -> None:
        _set(self, "children", children)
        _set(self, "_key", None)

    def _fields(self) -> tuple:
        return (self.children,)


TRUE = TrueF()
FALSE = FalseF()


def atom(coeffs: Mapping[str, Rational], rel: str, const: Rational) -> Atom:
    return Atom(LinearAtom.make(coeffs, rel, const))


def var_atom(name: str, rel: str, const: Rational) -> Atom:
    """Shorthand for single-variable atoms like ``v >= 2``."""
    return atom({name: 1}, rel, const)


def conj(parts: Iterable[Formula]) -> Formula:
    return _joined(True, [canonicalize(p) for p in parts])


def disj(parts: Iterable[Formula]) -> Formula:
    return _joined(False, [canonicalize(p) for p in parts])


def negate(f: Formula) -> Formula:
    """The canonical form of not ``f``."""
    return _canonical(f, True)


class Assignment:
    """Total map from variable names to exact rationals."""

    __slots__ = ("values",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, values: Mapping[str, Fraction]) -> None:
        _set(self, "values", values)

    def __eq__(self, other: object) -> bool:
        return type(other) is Assignment and other.values == self.values

    @staticmethod
    def make(values: Mapping[str, Rational]) -> "Assignment":
        return Assignment({v: Fraction(c) for v, c in values.items()})

    def __getitem__(self, name: str) -> Fraction:
        return self.values[name]

    def restricted_to(self, vars: VarSet) -> "Assignment":
        return Assignment({v: self.values[v] for v in vars.names})

    def __str__(self) -> str:
        inner = ", ".join(f"{v}={fraction_text(self.values[v])}" for v in sorted(self.values))
        return "{" + inner + "}"


def evaluate(f: Formula, a: Assignment) -> bool:
    """Exact truth value of ``f`` under total assignment ``a``.

    Raises DomainMismatchError if ``f`` mentions a variable outside ``a``.
    """
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return f.atom.holds(a.values)
    if isinstance(f, And):
        return all(evaluate(c, a) for c in f.children)
    if isinstance(f, Or):
        return any(evaluate(c, a) for c in f.children)
    raise TypeError(f"not a formula: {f!r}")


def formula_key(f: Formula) -> tuple:
    """Sort key for canonical formulas (deterministic across runs), stored on
    every canonical node."""
    if f._key is None:
        raise TypeError(f"non-canonical node in key computation: {f!r}")
    return f._key


def _canonical(f: Formula, negated: bool) -> Formula:
    """The canonical form of ``f``, or of not ``f`` when ``negated``."""
    # canonical subformulas that no negation reaches are kept as they are
    if isinstance(f, Atom):
        return Atom(f.atom.negated()) if negated else f
    if isinstance(f, TrueF):
        return FALSE if negated else TRUE
    if isinstance(f, FalseF):
        return TRUE if negated else FALSE
    if isinstance(f, (And, Or)):
        if f._key is not None and not negated:
            return f
        return _joined(isinstance(f, And) != negated, [_canonical(c, negated) for c in f.children])
    raise TypeError(f"not a formula: {f!r}")


_node_key = attrgetter("_key")


def _joined(is_and: bool, kids: list[Formula]) -> Formula:
    """The canonical ``And`` (``Or`` unless ``is_and``) of canonical ``kids``:
    nested nodes of the same connective flattened, the unit dropped, the
    absorbing constant returned at once, repeats dropped and the rest sorted."""
    node_type, unit, zero = (And, TrueF, FalseF) if is_and else (Or, FalseF, TrueF)
    flat: list[Formula] = []
    for k in kids:
        if isinstance(k, zero):
            return FALSE if is_and else TRUE
        if isinstance(k, node_type):
            flat.extend(k.children)
        elif not isinstance(k, unit):
            flat.append(k)
    if not flat:
        return TRUE if is_and else FALSE
    # sort by key and drop repeats; equal keys mean equal canonical nodes
    flat.sort(key=_node_key)
    ordered = [flat[0]]
    for k in flat[1:]:
        if k._key != ordered[-1]._key:
            ordered.append(k)
    if len(ordered) == 1:
        return ordered[0]
    node = node_type(tuple(ordered))
    _set(node, "_key", (3 if is_and else 4, tuple(k._key for k in ordered)))
    return node


def canonicalize(f: Formula) -> Formula:
    """Semantically equal normal form: negations pushed into atoms, atoms
    normalized, connectives flattened, deduplicated, and sorted. Idempotent;
    a canonical ``f`` is returned as it is."""
    if getattr(f, "_key", None) is not None:
        return f
    return _canonical(f, False)


def atoms_of(f: Formula) -> list[LinearAtom]:
    """Distinct atoms of a formula, in canonical order."""
    found: dict[tuple, LinearAtom] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, Atom):
            found.setdefault(g.atom.key(), g.atom)
        elif isinstance(g, (And, Or)):
            for c in g.children:
                walk(c)

    walk(f)
    return [found[k] for k in sorted(found)]


def polarity_classes(atoms: Iterable[LinearAtom]) -> list[LinearAtom]:
    """One representative per {atom, negated atom} pair, in canonical order."""
    reps: dict[tuple, LinearAtom] = {}
    for a in atoms:
        rep = a.polarity_rep()
        reps.setdefault(rep.key(), rep)
    return [reps[k] for k in sorted(reps)]


def variables_of(f: Formula) -> set[str]:
    return {v for a in atoms_of(f) for v in a.variables()}


# ---------------------------------------------------------------------------
# printers


# below Python's default 4,300-digit limit on int <-> str conversion
_STR_BITS = 13_000


def _int_text(n: int) -> str:
    """Decimal digits of ``n``, however long: ``str`` refuses more than the
    interpreter's digit limit, so long numbers print in two halves."""
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its decimal digits (log10 2 > 0.3)
    high, low = divmod(n, 10 ** k)
    return _int_text(high) + _int_text(low).zfill(k)


def fraction_text(x: Fraction) -> str:
    """``str(x)`` for a rational of any size, e.g. ``-3/4`` or ``7``."""
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def to_infix(f: Formula) -> str:
    """Deterministic infix rendering, the same syntax the DSL parses."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return _atom_infix(f.atom)
    if isinstance(f, And):
        return " && ".join(_wrap_infix(c, for_and=True) for c in f.children)
    if isinstance(f, Or):
        return " || ".join(_wrap_infix(c, for_and=False) for c in f.children)
    raise TypeError(f"not a formula: {f!r}")


def _wrap_infix(f: Formula, for_and: bool) -> str:
    text = to_infix(f)
    needs_parens = isinstance(f, Or) if for_and else isinstance(f, (And, Or))
    if isinstance(f, And) and not for_and:
        needs_parens = True
    return f"({text})" if needs_parens else text


def _atom_infix(a: LinearAtom) -> str:
    parts: list[str] = []
    for i, (var, coeff) in enumerate(a.coeffs):
        mag = abs(coeff)
        term = var if mag == 1 else f"{fraction_text(mag)}*{var}"
        if i == 0:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + term)
    return f"{' '.join(parts)} {a.rel} {fraction_text(a.const)}"


_SEXPR_REL = {"<": "<", "<=": "<=", "==": "=", ">=": ">=", ">": ">", "!=": "distinct"}


def to_sexpr(f: Formula) -> str:
    """SMT-LIB-flavored s-expression string, e.g. ``(and (>= v 2) (= h 0))``."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return _atom_sexpr(f.atom)
    if isinstance(f, And):
        return "(and " + " ".join(to_sexpr(c) for c in f.children) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(to_sexpr(c) for c in f.children) + ")"
    raise TypeError(f"not a formula: {f!r}")


def _num_sexpr(x: Fraction) -> str:
    if x.denominator == 1:
        return _int_text(x.numerator) if x >= 0 else f"(- {_int_text(-x.numerator)})"
    text = f"(/ {_int_text(abs(x.numerator))} {_int_text(x.denominator)})"
    return text if x >= 0 else f"(- {text})"


def _atom_sexpr(a: LinearAtom) -> str:
    terms = []
    for var, coeff in a.coeffs:
        terms.append(var if coeff == 1 else f"(* {_num_sexpr(coeff)} {var})")
    lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
    return f"({_SEXPR_REL[a.rel]} {lhs} {_num_sexpr(a.const)})"
