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

``emit_script`` is the inverse direction: it renders a deterministic
ObjectGraph back to this language, with a bit-exact two-space-indent printer
so emitted patch objects are diff-stable.
"""

from __future__ import annotations

import copy
import re
from contextlib import contextmanager
from fractions import Fraction

# cells and minimize are deferred (see the package docstring)
from . import cells, minimize, solver
from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseF,
    Formula,
    LinearAtom,
    Or,
    VarSet,
    _read_only,
    _set,
    atoms_of,
    canonicalize,
    conj,
    disj,
    negate,
    to_infix,
)
from .graphs import Edge, GraphError, Model, NamedObject, ObjectGraph, _graph_vars, bfs_tree

# Parser limits, each a ParseError when exceeded. Parentheses, ``!``, blocks
# and else-if arms nest at most MAX_NESTING deep, so that every later
# recursive pass (validation, extraction, minimization, emission) stays far
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
    """A parsed scenario object, compiled once: one walk numbers its syncs and
    records, per sync uid, its canonical wake condition (request or waitfor)
    and the continuation frames that control resumes from once it wakes."""

    __slots__ = ("name", "body", "syncs", "wakes", "continuations")

    def __init__(self, name: str, body: list) -> None:
        self.name = name
        self.body = body
        self.syncs: list[SyncStmt] = []
        self.wakes: list[Formula] = []
        self.continuations: list[Frames] = []
        self._number(self.body, ())

    def _number(self, stmts: list, frames: Frames) -> None:
        for i, st in enumerate(stmts):
            if isinstance(st, SyncStmt):
                st.uid = len(self.syncs)
                self.syncs.append(st)
                self.wakes.append(st.wake())
                self.continuations.append(frames + ((stmts, i + 1),))
            elif isinstance(st, IfStmt):
                self._number(st.then, frames + ((stmts, i + 1),))
                self._number(st.orelse, frames + ((stmts, i + 1),))
            elif isinstance(st, LoopStmt):
                self._number(st.body, frames + ((stmts, i),))


class PredicateSet:
    """Canonical atoms of a script, with an atom and its negation collapsed."""

    __slots__ = ("atoms",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, atoms: tuple[LinearAtom, ...]) -> None:
        _set(self, "atoms", atoms)

    def __eq__(self, other: object) -> bool:
        return type(other) is PredicateSet and other.atoms == self.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __contains__(self, a: LinearAtom) -> bool:
        return a.polarity_rep().key() in {x.key() for x in self.atoms}


def collect_predicates(script: ScenarioScript) -> PredicateSet:
    """All predicates appearing in sync formulas or if conditions."""
    found: list[LinearAtom] = []

    def take(f: Formula) -> None:
        found.extend(atoms_of(f))

    def walk(stmts: list) -> None:
        for st in stmts:
            if isinstance(st, SyncStmt):
                take(st.request)
                take(st.waitfor)
                take(st.block)
            elif isinstance(st, IfStmt):
                take(st.cond)
                walk(st.then)
                walk(st.orelse)
            elif isinstance(st, LoopStmt):
                walk(st.body)

    walk(script.body)
    return PredicateSet(tuple(cells.polarity_classes(found)))


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
        _validate_script(script, self)
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
        return parts[0] if len(parts) == 1 else canonicalize(Or(tuple(parts)))

    def and_expr(self) -> Formula:
        parts = [self.unary()]
        while self.peek().text == "&&":
            self.next()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else canonicalize(And(tuple(parts)))

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
# static checks


def _validate_script(script: ScenarioScript, parser: _Parser) -> None:
    tok = parser.peek()

    def err(message: str) -> ParseError:
        return ParseError(message, tok.line, tok.col)

    def passable_without_sync(stmts: list) -> bool:
        # can control flow fall through this list without hitting a sync?
        for st in stmts:
            if isinstance(st, SyncStmt):
                return False
            if isinstance(st, LoopStmt):
                return False  # loops never complete; control cannot pass them
            if isinstance(st, IfStmt):
                if not (passable_without_sync(st.then) or passable_without_sync(st.orelse)):
                    return False
        return True

    def check_loops(stmts: list) -> None:
        for st in stmts:
            if isinstance(st, LoopStmt):
                if passable_without_sync(st.body):
                    raise err(f"object {script.name!r} has a loop with a sync-free iteration path")
                check_loops(st.body)
            elif isinstance(st, IfStmt):
                check_loops(st.then)
                check_loops(st.orelse)

    def check_prefix(stmts: list) -> bool:
        # no conditional may execute before the first sync (there is no
        # assignment to evaluate it against); returns True once a sync is hit
        for st in stmts:
            if isinstance(st, SyncStmt):
                return True
            if isinstance(st, IfStmt):
                raise err(f"object {script.name!r} branches before its first sync")
            if isinstance(st, LoopStmt):
                if check_prefix(st.body):
                    return True
                raise err(f"object {script.name!r} has a sync-free loop before its first sync")
        return False

    check_loops(script.body)
    check_prefix(script.body)


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
# graph -> script structuring

_LOOP_END = "$loop-end"


def emit_script(g: ObjectGraph, name: str = "Patch") -> str:
    """Render a deterministic ObjectGraph as scenario-script text.

    Requires out-edge guards at each state to be pairwise unsatisfiable
    (determinism) and to cover exactly the state's wake condition. Raises
    EmissionError when the graph is nondeterministic or its shape cannot be
    expressed with structured control flow.
    """
    return format_object(name, structure_graph(g))


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

    emitted: set[str] = set()

    def reach_from(q: str, stops: frozenset[str]) -> set[str]:
        if q == _LOOP_END or q in stops:
            return set()

        def onward(cur: str) -> list[Edge]:
            return [e for e in adv[cur] if e.dst != _LOOP_END and e.dst not in stops]

        return {q} | {e.dst for e in bfs_tree(q, onward)}

    def sync_for(q: str) -> SyncStmt:
        return SyncStmt(request=g.request[q], waitfor=g.waitfor[q], block=g.block[q], bad=q in g.bad)

    def region(q: str, stops: frozenset[str]) -> list:
        # a run of single-edge states is one loop; only branches recurse
        code: list = []
        while q != _LOOP_END and q not in stops:
            if q in emitted:
                raise EmissionError(f"state {q!r} is reached from structurally incompatible contexts")
            emitted.add(q)
            sync = sync_for(q)
            if q in terminal or not adv[q]:
                code.append(LoopStmt([sync]))
                break
            code.append(sync)
            edges = adv[q]
            if len(edges) == 1:
                q = edges[0].dst
                continue
            arm_reach = {e: reach_from(e.dst, stops) for e in edges}
            shared: set[str] = set()
            for i, a in enumerate(edges):
                for b in edges[i + 1:]:
                    shared |= arm_reach[a] & arm_reach[b]
            local_stops = stops | frozenset(shared)
            code.extend(_if_chain([(e.guard, region(e.dst, local_stops)) for e in edges]))
            if shared:
                code.extend(_suffix(shared, stops))
                # an arm that leaves for an outer stop or the loop start emits
                # nothing for it and would fall through into the suffix's
                # unconditional last chunk
                for e in edges:
                    exits = {e.dst} | {x.dst for s in arm_reach[e] - shared for x in adv[s]}
                    if exits & (stops | {_LOOP_END}):
                        raise EmissionError(f"branch {q!r} -> {e.dst!r} would fall into a shared suffix")
            break
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

    def _suffix(shared: set[str], stops: frozenset[str]) -> list:
        order = _topo_order(shared, adv)
        entry: dict[str, Formula] = {}
        for s in order:
            incoming = [e.guard for q in reachable for e in adv[q] if e.dst == s]
            entry[s] = minimize.boolean_minimize(disj(incoming), vars)
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
            body = region(s, stops | siblings)
            if body:
                code.append(IfStmt(entry[s], body, []))
        code.extend(region(order[-1], stops))
        return code

    body = region(g.initial, frozenset())
    if wrap_loop:
        body = [LoopStmt(body)]
    missing = set(reachable) - emitted
    if missing:
        raise EmissionError(f"states {sorted(missing)} were not structured")
    return body


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
