"""Output checks for every benchmarked verb.

Every expected value here is derived by hand from the workload models in
``workloads.py`` (the derivations are in NOTES.md); none is computed by the
code under test. Each check returns a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

from workloads import FAR, Workload, wide_halves

VERIFIED = "verification: safety after patch: pass; no new deadlocks: pass; run containment: pass"
SEXPR_ATOM = re.compile(r"\((?:<=|>=|<|>|=|distinct) ")
INFIX_ATOM = re.compile(r"<=|>=|==|!=|<|>")


def _load_json(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except ValueError as err:
        problems.append(f"output is not JSON: {err}")
        return None


def _graph_shape(g: dict, problems: list[str], expected: tuple[int, int, int] | None = None) -> None:
    """Every edge and label stays within the listed states, and the
    (states, edges, bad) counts match ``expected`` when it is given."""
    got = (len(g["states"]), len(g["edges"]), len(g["bad"]))
    if expected is not None and got != expected:
        problems.append(f"graph has (states, edges, bad) = {got}, expected {expected}")
    known = set(g["states"])
    if g["initial"] not in known or not set(g["bad"]) <= known:
        problems.append("initial or bad state is not a listed state")
    if any(e["from"] not in known or e["to"] not in known for e in g["edges"]):
        problems.append("an edge leaves the listed states")


def _parse_sexpr(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def read():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        items = []
        while tokens[pos] != ")":
            items.append(read())
        pos += 1
        return items

    return read()


_RELATIONS = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b, "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b, ">": lambda a, b: a > b, "distinct": lambda a, b: a != b,
}


def _value(term, point: dict) -> Fraction:
    if isinstance(term, str):
        return point[term] if term in point else Fraction(term)
    head, *args = term
    vals = [_value(a, point) for a in args]
    if head == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - sum(vals[1:])
    if head == "+":
        return sum(vals, Fraction(0))
    if head == "*":
        return vals[0] * vals[1]
    if head == "/":
        return vals[0] / vals[1]
    raise ValueError(f"unknown term {term!r}")


def holds(formula, point: dict) -> bool:
    """Truth of a parsed s-expression guard at a point, evaluated here."""
    if formula in ("true", "false"):
        return formula == "true"
    head, *args = formula
    if head == "and":
        return all(holds(a, point) for a in args)
    if head == "or":
        return any(holds(a, point) for a in args)
    if head == "not":
        return not holds(args[0], point)
    return _RELATIONS[head](_value(args[0], point), _value(args[1], point))


def transitions(g: dict, start, step, points: list[dict], is_bad, problems: list[str]) -> None:
    """The graph must be the hand-written transition function ``step``.

    From the initial state, every sample point must satisfy exactly one
    listed out-edge, and that edge must lead to the state standing for
    ``step(abstract, point)``. The correspondence between abstract and listed
    states must be one-to-one and cover every listed state, and the bad
    states must be exactly the abstract bad ones.
    """
    out: dict[str, list] = {}
    for e in g["edges"]:
        out.setdefault(e["from"], []).append((_parse_sexpr(e["guard"]), e["to"]))
    name = {start: g["initial"]}
    taken = {g["initial"]}
    todo = [start]
    while todo and not problems:
        a = todo.pop()
        q = name[a]
        for p in points:
            hits = [dst for guard, dst in out.get(q, []) if holds(guard, p)]
            if len(hits) != 1:
                problems.append(f"state {q}: {len(hits)} out-edges hold at {p}, expected 1")
                return
            b = step(a, p)
            if b in name:
                if name[b] != hits[0]:
                    problems.append(f"state {q} at {p} goes to {hits[0]}, expected {name[b]}")
                    return
            elif hits[0] in taken:
                problems.append(f"state {hits[0]} stands for two different states")
                return
            else:
                name[b] = hits[0]
                taken.add(hits[0])
                todo.append(b)
    if not problems and taken != set(g["states"]):
        problems.append(f"states {sorted(set(g['states']) - taken)} are not reached")
    if not problems and {name[a] for a in name if is_bad(a)} != set(g["bad"]):
        problems.append("bad states differ from the hand-derived ones")


def _grid(**axes: list) -> list[dict]:
    names = sorted(axes)
    return [dict(zip(names, values)) for values in itertools.product(*(axes[n] for n in names))]


def _fracs(*values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def ring_points(n: int) -> list[dict]:
    # every station id, the pass value -1, and values no one requests
    return _grid(x=[Fraction(k, 2) for k in range(-4, 2 * n + 2)])


WIDE_POINTS = _grid(x=_fracs(-1, 0, "1/2", 1, "3/2", 2, 3, 4, 5, 9, FAR, FAR + 1),
                    y=_fracs(-1, 0, "1/2", 1, 2, 3, 4, 5))


def ring_station_step(n: int):
    """C0: the choice sync ("head"), then n - 1 waits on the marked or the
    passed branch, then back to the head."""
    def step(a, p):
        if a == "head":
            return (1, p["x"] == 0)
        k, marked = a
        return (k + 1, marked) if k < n - 1 else "head"
    return step


def ring_composite_step(n: int):
    """The whole ring: (phase, which earlier stations marked this round)."""
    def step(a, p):
        phase, marks = a
        return (0, ()) if phase == n - 1 else (phase + 1, marks + (p["x"] == phase,))
    return step


def wide_step(a, p):
    """Wide: S0 wakes on x >= 1 or y >= 1; stop i leads to stop i+1 while
    x >= i+1, else to the loop L."""
    x, y = p["x"], p["y"]
    if a == "S0":
        return "T1" if x >= 1 else "L" if y >= 1 else "S0"
    if a == "T1":
        return "T2" if x >= 2 else "L"
    if a == "T2":
        return "T3" if x >= 3 else "L"
    return "L"


def wide_far_step(a, p):
    w, far = a
    return wide_step(w, p), "F1" if far == "F1" or p["x"] >= FAR else "F0"


def graph_atoms(text: str) -> int:
    """Atom occurrences in the edge guards of a JSON graph."""
    return sum(len(SEXPR_ATOM.findall(e["guard"])) for e in json.loads(text)["edges"])


def patch_atoms(text: str) -> int:
    """Atom occurrences in an emitted patch object."""
    return len(INFIX_ATOM.findall(text))


def validate(wl: Workload, rc: int, out: str) -> list[str]:
    objects = {"ring": wl.size + 1, "wide": 2}[wl.name]
    if rc != 0 or not out.startswith(f"ok: {objects} objects"):
        return [f"validate: exit {rc}, output {out[:80]!r}, expected {objects} objects"]
    return []


def check(wl: Workload, rc: int, out: str, trace_text: str) -> list[str]:
    if rc != 1:
        return [f"check: exit {rc}, expected 1 (violation)"]
    lines = [json.loads(line) for line in trace_text.splitlines() if line.strip()]
    steps, verdict = lines[:-1], lines[-1] if lines else {}
    if verdict.get("verdict") != "BadReached":
        return [f"check: trace verdict {verdict!r}"]
    if wl.name == "wide":
        # the first event may already have x >= FAR, which Far waits for
        if len(steps) != 1 or Fraction(steps[0]["assignment"]["x"]) < FAR:
            return [f"check: counterexample {steps}, expected one step with x >= {FAR}"]
        return []
    # ring: stations 0 .. n-2 mark in turn, so x = 0, 1, ..., n-2
    xs = [Fraction(s["assignment"]["x"]) for s in steps]
    expected = [Fraction(i) for i in range(wl.size - 1)]
    return [] if xs == expected else [f"check: counterexample x = {xs}, expected {expected}"]


def repair_verify(wl: Workload, rc: int, out: str, patch_text: str) -> list[str]:
    problems = []
    if rc != 0 or VERIFIED not in out:
        problems.append(f"repair --verify: exit {rc}, soundness clauses not all pass")
    if not patch_text.startswith("object Patch {"):
        problems.append("repair: no patch object written")
    cuts = [line for line in out.splitlines() if line.startswith("cutting at ")]
    if wl.name == "wide":
        # Far is bad once x >= FAR has happened, wherever Wide is (four
        # states after the first event), and every one of Wide's five states
        # can see x >= FAR next, so each cuts exactly that
        bad = [line for line in out.splitlines() if line.startswith("reachable bad states: ")]
        if len(bad) != 1 or bad[0].count(",") != 3 or "states doomed" in out:
            problems.append("repair: expected four bad states and none doomed")
        if len(cuts) != 5 or not all(c.endswith(f"blocking x >= {FAR}") for c in cuts):
            problems.append(f"repair: cuts {cuts}, expected five cuts blocking x >= {FAR}")
    if wl.name == "ring":
        # station n-2 must mark, so the only cut is station n-3 marking after
        # stations 0 .. n-4 have all marked
        if len(cuts) != 1 or not cuts[0].endswith(f"blocking x == {wl.size - 3}"):
            problems.append(f"repair: cuts {cuts}, expected one cut blocking x == {wl.size - 3}")
        for label in ("reachable bad states: ", "states doomed to reach them: "):
            found = [line for line in out.splitlines() if line.startswith(label)]
            if len(found) != 1 or "," in found[0]:
                problems.append(f"repair: expected exactly one state after {label!r}")
    return problems


def composite(wl: Workload, rc: int, out: str) -> list[str]:
    problems = [] if rc == 0 else [f"composite: exit {rc}"]
    g = _load_json(out, problems)
    if g is None:
        return problems
    if wl.name == "ring":
        n = wl.size
        _graph_shape(g, problems, (2 ** n - 1, 3 * 2 ** (n - 1) - 2, 1))
        transitions(g, (0, ()), ring_composite_step(n), ring_points(n),
                    lambda a: a[0] == n - 1 and all(a[1]), problems)
    elif wl.name == "wide":
        # Wide's 5 states with Far waiting (8 edges, one stay loop at the
        # start), 5 edges on x >= FAR into the 4 bad states after the first
        # event, and Wide's 6 edges among those
        _graph_shape(g, problems, (9, 20, 4))
        transitions(g, ("S0", "F0"), wide_far_step, WIDE_POINTS, lambda a: a[1] == "F1", problems)
    return problems


def graph(wl: Workload, rc: int, out: str, simplified: bool) -> list[str]:
    problems = [] if rc == 0 else [f"graph: exit {rc}"]
    g = _load_json(out, problems)
    if g is None:
        return problems
    if wl.name == "ring":
        # C0 has 2n - 1 syncs, all waking on every value; its sign cells are
        # x == 0 and x != 0, plus x == -1 apart when C0 may pass
        n = wl.size
        cells = 2 if (n - 2) % 2 == 0 else 3
        _graph_shape(g, problems, (2 * n - 1, 2 * n if simplified else cells * (2 * n - 1), 0))
        transitions(g, "head", ring_station_step(n), ring_points(n), lambda a: False, problems)
    elif wl.name == "wide":
        h, rest = wide_halves(wl.size)
        cells = (h + 1) * (rest + 1)
        _graph_shape(g, problems, (5, 9 if simplified else 5 * cells, 0))
        transitions(g, "S0", wide_step, WIDE_POINTS, lambda a: False, problems)
    return problems


def run_log(wl: Workload, rc: int, log_text: str, steps: int) -> list[str]:
    if rc != 0:
        return [f"run: exit {rc}"]
    entries = [json.loads(line) for line in log_text.splitlines() if line.strip()]
    if len(entries) != steps:
        return [f"run: {len(entries)} steps logged, expected {steps}"]
    for e in entries:
        a = {v: Fraction(c) for v, c in e["assignment"].items()}
        if wl.name == "wide" and e["step"] == 1 and not (a["x"] >= 1 or a["y"] >= 1):
            return [f"run: first step {a} is not requested"]
        if wl.name == "ring":
            turn = (e["step"] - 1) % wl.size
            allowed = {turn} if (wl.size - 2 - turn) % 2 == 0 else {turn, -1}
            if a["x"] not in allowed:
                return [f"run: step {e['step']} has x = {a['x']}, expected one of {sorted(allowed)}"]
    return []


def patched_model(rc: int, out: str) -> list[str]:
    return [] if rc == 0 and out.strip() == "Safe" else [f"emitted model: exit {rc}, expected Safe"]
