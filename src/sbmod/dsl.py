"""The ``.sbm`` scenario scripting language: parsing and emission.

Concrete syntax (informal)::

    model {
      vars v, h;
      object Name {
        sync(request = v >= 2 && h == 0, waitfor = ..., block = ...);
        if (h < 10) { ... } else { ... }
        loop { ... }
        repeat 3 { ... }
        mark bad;
      }
    }

Formulas are infix with ``&&``, ``||``, ``!`` and the comparisons
``< <= == >= > !=`` over linear sums of declared variables with rational
coefficients (``3*h``, ``1/2*v``). Each sync part defaults to false.
``repeat k`` is unrolled statically. ``mark bad;`` must directly follow a
sync and flags that synchronization point for safety properties.

Restrictions enforced at parse time: conditions only reference declared
variables and are evaluated against the last triggered assignment (so program
location fully determines state), no conditional may run before the first
sync, and every cycle in control flow contains a sync.

The script walk (``initial_state``, ``resume``, ``step_script``) runs a
parsed script one triggered assignment at a time over what its compiling walk
recorded; the engine drives it. ``symbolic_paths`` walks the same frames
symbolically, one path condition per feasible branch, which is how every
graph is extracted.

``emit_script`` is the inverse direction: it renders a deterministic
ObjectGraph back to this language, with a bit-exact two-space-indent printer
so emitted patch objects are diff-stable. The printer, ``insert_object`` and
``EmissionError`` live here; the structurer that turns the graph into
statements is ``emit.structure_graph``, which only ``repair`` executes.

A parsed model is a ``Model``: named scenario objects (scripts, or graphs
that callers build) over one variable set. It and the run policy names live
here, with the parser that builds them, so that ``validate`` and ``run``
execute no graph code.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from contextlib import contextmanager
from fractions import Fraction

# emit and solver are deferred (see the package docstring); graphs is named
# in annotations only
from . import emit, graphs, solver
from .formulas import (
    FALSE,
    TRUE,
    Assignment,
    Atom,
    FalseF,
    Formula,
    LinearAtom,
    VarSet,
    _read_only,
    _set,
    atoms_of,
    conj,
    disj,
    evaluate,
    negate,
    polarity_classes,
    to_infix,
)

# Parser limits, each a ParseError when exceeded. Parentheses, ``!``, blocks
# and else-if arms nest at most MAX_NESTING deep, so that every later
# recursive pass (the compiling walk, minimization, emission) stays far
# from the interpreter's recursion limit; an object holds at most
# MAX_STATEMENTS statements after ``repeat`` unrolling, checked before a body
# is copied.
MAX_NESTING = 100
MAX_STATEMENTS = 10_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class EmissionError(ValueError):
    """The graph cannot be rendered as a structured script."""


class ExtractionError(ValueError):
    """A script cannot be run or extracted."""


class GraphError(ValueError):
    """Malformed graph or model construction (unknown states, missing labels,
    duplicate object names)."""


class UnknownObjectError(KeyError):
    """The model has no object of that name."""

    def __str__(self) -> str:  # a KeyError's str would be the quoted name alone
        return f"model has no object named {self.args[0]!r}"


# ---------------------------------------------------------------------------
# statements


class SyncStmt:
    __slots__ = ("request", "waitfor", "block", "bad", "uid")

    def __init__(
        self, request: Formula = FALSE, waitfor: Formula = FALSE, block: Formula = FALSE, bad: bool = False
    ) -> None:
        self.request = request
        self.waitfor = waitfor
        self.block = block
        self.bad = bad
        self.uid = -1  # numbered by ScenarioScript

    def wake(self) -> Formula:
        return disj([self.request, self.waitfor])


class IfStmt:
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Formula, then: list, orelse: list) -> None:
        self.cond = cond
        self.then = then
        self.orelse = orelse


class LoopStmt:
    __slots__ = ("body",)

    def __init__(self, body: list) -> None:
        self.body = body


Stmt = SyncStmt | IfStmt | LoopStmt

# continuation frames: (statement list, resume index), outermost first
Frames = tuple[tuple[list, int], ...]


class ScenarioScript:
    """A parsed scenario object, compiled once. One walk numbers its syncs and
    records, per sync uid, its canonical wake condition (request or waitfor)
    and the continuation frames that control resumes from once it wakes; the
    script's ``predicates``, one atom per {atom, negated atom} pair of its
    sync formulas and if conditions, in canonical order; and its static
    ``fault``, which the parser raises, or None. A loop that control can
    pass through without a sync is a fault, and else a branch before the
    first sync, where there is no assignment to evaluate it against."""

    __slots__ = ("name", "body", "syncs", "wakes", "continuations", "predicates", "fault")

    def __init__(self, name: str, body: list) -> None:
        self.name = name
        self.body = body
        self.syncs: list[SyncStmt] = []
        self.wakes: list[Formula] = []
        self.continuations: list[Frames] = []
        self.fault: str | None = None
        atoms: list[LinearAtom] = []
        self._number(self.body, (), atoms)
        self.predicates = tuple(polarity_classes(atoms))

    def _number(self, stmts: list, frames: Frames, atoms: list[LinearAtom]) -> bool:
        """Whether control can run through ``stmts`` without a sync."""
        passable = True
        for i, st in enumerate(stmts):
            if isinstance(st, SyncStmt):
                st.uid = len(self.syncs)
                self.syncs.append(st)
                self.wakes.append(st.wake())
                self.continuations.append(frames + ((stmts, i + 1),))
                for f in (st.request, st.waitfor, st.block):
                    atoms += atoms_of(f)
                passable = False
            elif isinstance(st, IfStmt):
                if not self.syncs and self.fault is None:
                    self.fault = f"object {self.name!r} branches before its first sync"
                atoms += atoms_of(st.cond)
                then = self._number(st.then, frames + ((stmts, i + 1),), atoms)
                orelse = self._number(st.orelse, frames + ((stmts, i + 1),), atoms)
                passable = passable and (then or orelse)
            elif isinstance(st, LoopStmt):
                if self._number(st.body, frames + ((stmts, i),), atoms):  # wins over a branch fault
                    self.fault = f"object {self.name!r} has a loop with a sync-free iteration path"
                passable = False  # loops never complete; control cannot pass them
        return passable


# ---------------------------------------------------------------------------
# models


class NamedObject:
    __slots__ = ("name", "item")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, name: str, item: object) -> None:  # a ScenarioScript or ObjectGraph
        _set(self, "name", name)
        _set(self, "item", item)


class Model:
    """A collection of named scenario objects over one variable set."""

    __slots__ = ("vars", "objects")

    def __init__(self, vars: VarSet, objects: tuple[NamedObject, ...]) -> None:
        names = [o.name for o in objects]
        if len(set(names)) != len(names):
            raise GraphError(f"duplicate object names in model: {names}")
        self.vars = vars
        self.objects = objects

    def names(self) -> list[str]:
        return [o.name for o in self.objects]

    def get(self, name: str):
        for o in self.objects:
            if o.name == name:
                return o.item
        raise UnknownObjectError(name)

    def without(self, name: str) -> "Model":
        kept = tuple(o for o in self.objects if o.name != name)
        if len(kept) == len(self.objects):
            raise UnknownObjectError(name)
        return Model(self.vars, kept)


# How the engine selects each step's event (see engine.py). They sit with the
# model so that ``run --policy`` can offer them without loading the engine.
FIRST_MODEL = "first-model"
RANDOM_CELL = "random-cell"
POLICIES = (FIRST_MODEL, RANDOM_CELL)


# ---------------------------------------------------------------------------
# the script walk: a script waits at a sync, wakes only when the triggered
# assignment satisfies its wake condition, then runs straight-line code
# (branching on the assignment) to the next sync, reading the wake conditions
# and continuation frames that ScenarioScript compiled. A script's state is
# its program location, the uid of the sync it waits at or END_LOCATION once
# it has finished; that the location fully determines the state is what makes
# extraction terminate.

END_LOCATION = -1  # the state of a finished script; every other state is a sync uid

_FINISHED = SyncStmt()  # a finished script declares nothing


def pending(script: ScenarioScript, location: int) -> tuple[SyncStmt, Formula]:
    """The sync that a script at ``location`` waits at, and its wake
    condition; a finished script never wakes. END_LOCATION is -1, so it is
    tested before the script's lists are indexed."""
    if location == END_LOCATION:
        return _FINISHED, FALSE
    return script.syncs[location], script.wakes[location]


def _next_branch(stack: list) -> SyncStmt | IfStmt | None:
    """Run the continuation frames on ``stack`` (innermost last) through
    straight-line control flow to the next sync or ``if``, and return it;
    None once the script ends. The frame to resume from after it is left on
    ``stack``."""
    while stack:
        stmts, i = stack.pop()
        while i < len(stmts):
            st = stmts[i]
            if isinstance(st, LoopStmt):
                stack.append((stmts, i))  # loops repeat forever
                stmts, i = st.body, 0
            elif isinstance(st, (SyncStmt, IfStmt)):
                stack.append((stmts, i + 1))
                return st
            else:
                raise TypeError(f"not a statement: {st!r}")
    return None


def _walk_to_sync(frames: Frames, a: Assignment | None) -> int:
    """Run straight-line control flow until the next sync; returns its uid."""
    stack = list(frames)
    while isinstance(st := _next_branch(stack), IfStmt):
        if a is None:
            raise ExtractionError("conditional reached with no triggered assignment")
        stack.append((st.then if evaluate(st.cond, a) else st.orelse, 0))
    return END_LOCATION if st is None else st.uid


def symbolic_paths(script: ScenarioScript, location: int, vars: VarSet) -> Iterator[tuple[Formula, int]]:
    """Each feasible path from a script waiting at ``location`` to its next
    state, as (path condition, next state), run symbolically over ``vars``.

    The walk reads the continuation frames that ``_walk_to_sync`` reads. The
    path condition starts as the wake condition; an ``if`` splits it on
    ``cond`` and ``negate(cond)``, and a branch is followed only when
    ``solver.satisfiable`` accepts its path condition. So the conditions are
    pairwise disjoint and their disjunction is the wake condition. Paths are
    yielded lazily, depth first, then-branch first. A finished script, or
    one whose wake condition is unsatisfiable, has no paths.
    """
    wake = pending(script, location)[1]
    if location == END_LOCATION or not solver.satisfiable(wake, vars):
        return
    work: list[tuple[list, Formula]] = [(list(script.continuations[location]), wake)]
    while work:
        stack, path = work.pop()
        st = _next_branch(stack)
        if not isinstance(st, IfStmt):
            yield path, END_LOCATION if st is None else st.uid
            continue
        for cond, body in ((negate(st.cond), st.orelse), (st.cond, st.then)):
            branch = conj([path, cond])
            if solver.satisfiable(branch, vars):
                work.append((stack + [(body, 0)], branch))


def initial_state(script: ScenarioScript) -> int:
    return _walk_to_sync(((script.body, 0),), None)


def resume(script: ScenarioScript, location: int, a: Assignment) -> int:
    """The state after the script at ``location`` wakes on ``a``: run on to
    the next sync point. ``step_script`` tests the wake condition first;
    the engine tests it itself and calls ``resume``.
    """
    return _walk_to_sync(script.continuations[location], a)


def step_script(script: ScenarioScript, location: int, a: Assignment) -> int:
    """Advance one triggered assignment.

    If the assignment does not satisfy the pending sync's request-or-waitfor
    condition the object does not wake and the state is returned unchanged.
    A finished script absorbs everything.
    """
    return resume(script, location, a) if evaluate(pending(script, location)[1], a) else location


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/<>!(){},;=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "model", "vars", "object", "sync", "request", "waitfor", "block",
    "if", "else", "loop", "repeat", "mark", "bad", "true", "false",
}


class _Token:
    __slots__ = ("kind", "text", "line", "col", "pos")

    def __init__(self, kind: str, text: str, line: int, col: int, pos: int) -> None:
        self.kind = kind  # "num" | "ident" | "kw" | "op" | "eof"
        self.text = text
        self.line = line
        self.col = col
        self.pos = pos  # offset into the text


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tok_kind = kind
            if kind == "ident" and chunk in _KEYWORDS:
                tok_kind = "kw"
            tokens.append(_Token(tok_kind, chunk, line, col, pos))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col, pos))
    return tokens


def is_identifier(text: str) -> bool:
    """Whether ``text`` lexes as exactly one identifier (so not a keyword)."""
    try:
        return [(t.kind, t.text) for t in _lex(text)] == [("ident", text), ("eof", "")]
    except ParseError:
        return False


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.vars: VarSet | None = None
        self.depth = 0  # current nesting, against MAX_NESTING
        self.statements = 0  # statements of the current object, against MAX_STATEMENTS

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    @contextmanager
    def nested(self):
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)
        yield
        self.depth -= 1

    def add_statements(self, n: int, tok: _Token) -> None:
        self.statements += n
        if self.statements > MAX_STATEMENTS:
            raise ParseError(
                f"object has more than {MAX_STATEMENTS} statements after unrolling", tok.line, tok.col)

    def number(self) -> int:
        """Consume a numeral token and return its value."""
        tok = self.next()
        try:
            return int(tok.text)
        except ValueError:  # longer than int() converts (sys.get_int_max_str_digits)
            raise ParseError(f"number literal of {len(tok.text)} digits is too long",
                             tok.line, tok.col) from None

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}, found end of input")
        return self.next()

    def expect_ident(self) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected identifier, found {tok.text!r}")
        return self.next()

    # model { vars ...; object ... }
    def model(self) -> Model:
        self.expect("model")
        self.expect("{")
        self.expect("vars")
        names = [self.expect_ident().text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_ident().text)
        self.expect(";")
        try:
            self.vars = VarSet(tuple(names))
        except ValueError as err:
            raise self.fail(str(err)) from None
        objects: list[NamedObject] = []
        while self.peek().text == "object":
            objects.append(self.object_decl())
        self.expect("}")
        if self.peek().kind != "eof":
            raise self.fail("trailing input after model")
        try:
            return Model(self.vars, tuple(objects))
        except GraphError as err:
            raise self.fail(str(err)) from None

    def object_decl(self) -> NamedObject:
        self.expect("object")
        name = self.expect_ident().text
        self.expect("{")
        self.statements = 0
        body = self.stmt_list()
        self.expect("}")
        script = ScenarioScript(name, body)
        if script.fault is not None:
            raise self.fail(script.fault)
        return NamedObject(name, script)

    def stmt_list(self) -> list:
        stmts: list = []
        while self.peek().text not in ("}",) and self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "sync":
                stmts.append(self.sync_stmt())
            elif tok.text == "if":
                stmts.append(self.if_stmt())
            elif tok.text == "loop":
                self.add_statements(1, self.next())
                stmts.append(LoopStmt(self.block()))
            elif tok.text == "repeat":
                self.next()
                count_tok = self.peek()
                if count_tok.kind != "num":
                    raise self.fail("expected repetition count")
                count = self.number()
                if count < 1:
                    raise ParseError("repeat count must be positive", count_tok.line, count_tok.col)
                before = self.statements
                body = self.block()
                if body:
                    self.add_statements((self.statements - before) * (count - 1), count_tok)
                    import copy  # only a model that uses repeat pays for it

                    # static unrolling; each copy gets fresh statement nodes
                    for _ in range(count):
                        stmts.extend(copy.deepcopy(body))
            elif tok.text == "mark":
                self.next()
                self.expect("bad")
                self.expect(";")
                if not stmts or not isinstance(stmts[-1], SyncStmt):
                    raise ParseError("mark bad; must directly follow a sync", tok.line, tok.col)
                stmts[-1].bad = True
            else:
                raise self.fail(f"expected a statement, found {tok.text!r}")
        return stmts

    def block(self) -> list:
        self.expect("{")
        with self.nested():
            stmts = self.stmt_list()
        self.expect("}")
        return stmts

    def sync_stmt(self) -> SyncStmt:
        self.add_statements(1, self.expect("sync"))
        self.expect("(")
        sync = SyncStmt()
        seen: set[str] = set()
        if self.peek().text != ")":
            while True:
                part = self.peek()
                if part.text not in ("request", "waitfor", "block"):
                    raise self.fail("expected request, waitfor, or block")
                self.next()
                self.expect("=")
                f = self.formula()
                if part.text in seen:
                    raise ParseError(f"duplicate sync part {part.text!r}", part.line, part.col)
                seen.add(part.text)
                setattr(sync, part.text, f)
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        self.expect(";")
        return sync

    def if_stmt(self) -> IfStmt:
        self.add_statements(1, self.expect("if"))
        self.expect("(")
        cond = self.formula()
        self.expect(")")
        then = self.block()
        orelse: list = []
        if self.peek().text == "else":
            self.next()
            if self.peek().text == "if":
                with self.nested():
                    orelse = [self.if_stmt()]
            else:
                orelse = self.block()
        return IfStmt(cond, then, orelse)

    # formulas: || < && < ! < comparison
    def formula(self) -> Formula:
        f = self.and_expr()
        parts = [f]
        while self.peek().text == "||":
            self.next()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else disj(parts)

    def and_expr(self) -> Formula:
        parts = [self.unary()]
        while self.peek().text == "&&":
            self.next()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else conj(parts)

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.next()
            with self.nested():
                return negate(self.unary())
        if tok.text == "true":
            self.next()
            return TRUE
        if tok.text == "false":
            self.next()
            return FALSE
        if tok.text == "(":
            self.next()
            with self.nested():
                f = self.formula()
            self.expect(")")
            return f
        return self.comparison()

    def comparison(self) -> Formula:
        start = self.peek()
        lhs_coeffs, lhs_const = self.linexpr()
        rel_tok = self.peek()
        if rel_tok.text not in ("<", "<=", "==", ">=", ">", "!="):
            raise self.fail(f"expected a comparison operator, found {rel_tok.text!r}")
        rel = self.next().text
        rhs_coeffs, rhs_const = self.linexpr()
        coeffs: dict[str, Fraction] = dict(lhs_coeffs)
        for v, c in rhs_coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
        coeffs = {v: c for v, c in coeffs.items() if c}
        const = rhs_const - lhs_const
        if not coeffs:
            return TRUE if _constant_holds(rel, const) else FALSE
        atom = LinearAtom.make(coeffs, rel, const)
        # normalizing multiplies literals together, so a number can outgrow
        # what str() converts (sys.get_int_max_str_digits) and fail on output
        for value in (*(c for _, c in atom.coeffs), atom.const):
            try:
                str(value)
            except ValueError:
                raise ParseError("comparison normalizes to a number too long to print",
                                 start.line, start.col) from None
        return Atom(atom)

    def linexpr(self) -> tuple[dict[str, Fraction], Fraction]:
        coeffs: dict[str, Fraction] = {}
        const = Fraction(0)
        sign = Fraction(1)
        if self.peek().text == "-":
            self.next()
            sign = Fraction(-1)
        const += self.term(coeffs, sign)
        while self.peek().text in ("+", "-"):
            sign = Fraction(1) if self.next().text == "+" else Fraction(-1)
            const += self.term(coeffs, sign)
        return coeffs, const

    def term(self, coeffs: dict[str, Fraction], sign: Fraction) -> Fraction:
        """Parse one additive term into ``coeffs``; returns its constant part."""
        tok = self.peek()
        if tok.kind == "num":
            value = Fraction(self.number())
            if self.peek().text == "/":
                self.next()
                den = self.peek()
                divisor = self.number() if den.kind == "num" else 0
                if divisor == 0:
                    raise ParseError("expected a nonzero denominator", den.line, den.col)
                value /= divisor
            if self.peek().text == "*":
                self.next()
                var = self._declared_var()
                coeffs[var] = coeffs.get(var, Fraction(0)) + sign * value
                return Fraction(0)
            return sign * value
        if tok.kind == "ident":
            var = self._declared_var()
            coeffs[var] = coeffs.get(var, Fraction(0)) + sign
            return Fraction(0)
        raise self.fail(f"expected a term, found {tok.text!r}")

    def _declared_var(self) -> str:
        tok = self.expect_ident()
        if self.vars is not None and tok.text not in self.vars:
            raise ParseError(f"undeclared variable {tok.text!r}", tok.line, tok.col)
        return tok.text


def _constant_holds(rel: str, const: Fraction) -> bool:
    # comparison collapsed to 0 REL const
    zero = Fraction(0)
    return {
        "<": zero < const, "<=": zero <= const, "==": zero == const,
        ">=": zero >= const, ">": zero > const, "!=": zero != const,
    }[rel]


def parse_model(text: str) -> Model:
    """Parse a ``.sbm`` model; raises ParseError with line/column on failure."""
    return _Parser(text).model()


# ---------------------------------------------------------------------------
# pretty printer


def _sync_text(st: SyncStmt) -> str:
    parts = []
    for label in ("request", "waitfor", "block"):
        f = getattr(st, label)
        if not isinstance(f, FalseF):
            parts.append(f"{label} = {to_infix(f)}")
    return "sync(" + ", ".join(parts) + ");"


def format_statements(stmts: list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for st in stmts:
        if isinstance(st, SyncStmt):
            lines.append(pad + _sync_text(st))
            if st.bad:
                lines.append(pad + "mark bad;")
        elif isinstance(st, IfStmt):
            lines.append(pad + f"if ({to_infix(st.cond)}) {{")
            lines.extend(format_statements(st.then, indent + 1))
            if st.orelse:
                lines.append(pad + "} else {")
                lines.extend(format_statements(st.orelse, indent + 1))
            lines.append(pad + "}")
        elif isinstance(st, LoopStmt):
            lines.append(pad + "loop {")
            lines.extend(format_statements(st.body, indent + 1))
            lines.append(pad + "}")
        else:
            raise TypeError(f"not a statement: {st!r}")
    return lines


def format_object(name: str, stmts: list) -> str:
    lines = [f"object {name} {{"]
    lines.extend(format_statements(stmts, 1))
    lines.append("}")
    return "\n".join(lines)


def render_model_text(varnames: list[str], object_texts: list[str]) -> str:
    body = [f"model {{", f"  vars {', '.join(varnames)};", ""]
    for text in object_texts:
        body.extend("  " + line if line else "" for line in text.splitlines())
        body.append("")
    body.append("}")
    return "\n".join(body) + "\n"


def insert_object(model_text: str, object_text: str) -> str:
    """Append an object block before the model's closing brace, its last
    token; comments after that brace stay after it."""
    tokens = _lex(model_text)
    if len(tokens) < 2 or tokens[-2].text != "}":
        raise ValueError("model text does not end with '}'")
    brace = tokens[-2].pos
    indented = "\n".join("  " + line if line else "" for line in object_text.splitlines())
    head, tail = model_text[:brace].rstrip(), model_text[brace + 1:].rstrip()
    return head + "\n\n" + indented + "\n}" + tail + "\n"


# ---------------------------------------------------------------------------
# emission: the printer above, over what emit.structure_graph returns


def emit_script(g: graphs.ObjectGraph, name: str = "Patch") -> str:
    """Render a deterministic ObjectGraph as scenario-script text.

    Requires out-edge guards at each state to be pairwise unsatisfiable
    (determinism) and to cover exactly the state's wake condition. Raises
    EmissionError when the graph is nondeterministic or its shape cannot be
    expressed with structured control flow.
    """
    return format_object(name, emit.structure_graph(g))
