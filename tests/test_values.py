"""The package's value types: equality, hashing and immutability; the
modules a CLI call imports and executes; and the package API."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sbmod
from sbmod.dsl import NamedObject
from sbmod.engine import ExecutionConfig, LogEntry
from sbmod.formulas import (
    FALSE,
    RELATIONS,
    TRUE,
    And,
    Assignment,
    Atom,
    FalseF,
    LinearAtom,
    Or,
    TrueF,
    VarSet,
    canonicalize,
    var_atom,
)
from sbmod.graphs import DiscreteObject, Edge, ObjectGraph, Trace, TraceStep
from sbmod.runsets import CellSpace
from sbmod.verify import Counterexample, Safe

from oracles import rand_atom_pool, rand_formula


def rebuild(f):
    """A copy of ``f`` that shares no node with it."""
    if isinstance(f, Atom):
        return Atom(LinearAtom(tuple(f.atom.coeffs), f.atom.rel, Fraction(f.atom.const)))
    if isinstance(f, (TrueF, FalseF)):
        return type(f)()
    return type(f)(tuple(rebuild(c) for c in f.children))


def test_rebuilt_formulas_compare_and_hash_equal():
    rng = random.Random(11)
    for _ in range(300):
        f = rand_formula(rng, 4, rand_atom_pool(rng) + [TRUE, FALSE])
        g = rebuild(f)
        assert g is not f
        assert g == f and hash(g) == hash(f)
        assert canonicalize(g) == canonicalize(f) and hash(canonicalize(g)) == hash(canonicalize(f))
        assert {f: 1}[g] == 1


def test_same_fields_under_another_node_type_are_unequal():
    rng = random.Random(12)
    for _ in range(100):
        kids = tuple(rand_formula(rng, 2, rand_atom_pool(rng)) for _ in range(2))
        assert And(kids) != Or(kids)
    assert TRUE != FALSE and TrueF() == TRUE and FalseF() == FALSE


def test_value_types_keep_value_equality():
    a = LinearAtom.make({"x": 2, "y": -4}, ">=", 6)
    assert a == LinearAtom.make({"x": Fraction(1), "y": -2}, ">=", 3)
    assert hash(a) == hash(a.negated().negated())
    assert a != a.negated()
    x = var_atom("x", "<", 1)
    assert Edge("p", x, "q") == Edge("p", rebuild(x), "q")
    assert hash(Edge("p", x, "q")) == hash(Edge("p", rebuild(x), "q"))
    assert Edge("p", x, "q") != Edge("p", x, "r")
    assert VarSet(("y", "x")) == VarSet(("x", "y")) and hash(VarSet(("y", "x"))) == hash(VarSet(("x", "y")))
    assert Assignment.make({"x": 1, "y": 2}) == Assignment({"y": Fraction(2), "x": Fraction(1)})
    assert Assignment.make({"x": 1}) != Assignment.make({"x": 2})


def test_an_atom_and_its_negation_point_at_each_other():
    a = LinearAtom.make({"x": 2, "y": -4}, ">=", 6)
    n = a.negated()
    assert n is a.negated() and n.negated() is a
    # keys, equality and hashing are those of atoms built on their own
    built = LinearAtom(a.coeffs, "<", a.const)
    assert n.key() == built.key() == (a.key()[0], RELATIONS.index("<"), a.key()[2])
    assert n == built and hash(n) == hash(built) and n != a
    fresh = LinearAtom.make({"x": 1, "y": -2}, ">=", 3)
    assert a == fresh and hash(a) == hash(fresh) and a.key() == fresh.key()
    assert fresh.negated() == n and fresh.negated() is not n
    for atom in (a, n):
        with pytest.raises(AttributeError):
            atom._negation = None
        with pytest.raises(AttributeError):
            del atom._negation
    assert a.negated() is n and n.negated() is a


def test_graph_equality_ignores_the_out_edge_index():
    def make(bad=()):
        return ObjectGraph.make(states=["a", "b"], initial="a", waitfor={"a": TRUE},
                                edges=[("a", TRUE, "b")], bad=bad)

    g, h = make(), make()
    h._out = {}
    assert g == h
    assert g != make(bad=["b"])


def read_only_instances():
    x = var_atom("x", ">=", 0)
    a = Assignment.make({"x": 0})
    g = ObjectGraph.make(states=["a"], initial="a")
    trace = Trace((TraceStep("a", a),), "BadReached", "a")
    return [
        (VarSet(("x",)), "names"), (x.atom, "rel"), (TRUE, "_key"), (FALSE, "_key"), (x, "atom"),
        (And((x, x)), "children"), (Or((x, x)), "children"),
        (a, "values"), (Edge("a", x, "a"), "dst"), (DiscreteObject.make(["a"], "a"), "initial"),
        (NamedObject("A", g), "item"), (trace.steps[0], "state"), (trace, "verdict"),
        (ExecutionConfig(max_steps=1), "max_steps"), (LogEntry(1, a, ()), "woke"),
        (Safe(g), "composite"), (Counterexample(trace, g), "trace"),
        (CellSpace(("x",), (), (a,), {0: (0,)}), "witnesses"),
    ]


READ_ONLY = read_only_instances()


@pytest.mark.parametrize("value, field", READ_ONLY, ids=[type(v).__name__ for v, _ in READ_ONLY])
def test_read_only_types_refuse_assignment(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None
    assert getattr(value, field) is before


def fresh_python(code: str, *args: str, cwd: Path | None = None) -> str:
    """What ``code`` prints to stdout in a fresh ``python -S`` process."""
    env = dict(os.environ, PYTHONPATH=str(Path(sbmod.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout


# the sbmod modules that have executed; reading any attribute of a lazy module
# executes it, so only its type tells
EXECUTED = ("sorted(n[len('sbmod.'):] for n, m in sys.modules.items() "
            "if n.startswith('sbmod.') and type(m) is types.ModuleType)")


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    code = ("import sys, sbmod.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    assert fresh_python(code).strip() == "[]"


# the standard modules no verb needs: shutil (with fnmatch, zlib, bz2 and
# lzma) is what argparse reads the terminal width from when its formatter is
# given none, and copy is what the parser unrolls ``repeat`` with
UNNEEDED = ("bz2", "copy", "lzma", "shutil", "zlib")


def test_each_verb_executes_only_the_modules_it_runs(tmp_path, workloads):
    (tmp_path / "ring.sbm").write_text(workloads.ring_text(5))
    (tmp_path / "bad.sbm").write_text("vars x\nobject\n")
    (tmp_path / "sum.sbm").write_text("model { vars x, y; object A { loop { sync(request = x + y >= 3); } }\n"
                                      "  object P { sync(waitfor = x > 1); sync(); mark bad; } }")
    (tmp_path / "repeat.sbm").write_text("model { vars x; object A { repeat 2 { sync(request = x > 0); } } }")
    # the probe reads sys.modules before it imports json itself
    code = ("import sys, types; from sbmod.cli import main; status = main(sys.argv[1:]); "
            f"probe = [status, {EXECUTED}, 'random' in sys.modules, 'json' in sys.modules, "
            f"sorted(m for m in {UNNEEDED!r} if m in sys.modules)]; "
            "import json; print(json.dumps(probe))")

    def executed(*argv: str) -> tuple[int, set[str], bool, bool]:
        # the verb prints first; the last line is the probe's
        last = fresh_python(code, *argv, cwd=tmp_path).splitlines()[-1]
        status, modules, random_imported, json_imported, loaded = json.loads(last)
        assert loaded == [], f"{argv[0]} loaded {loaded}"
        return status, set(modules), random_imported, json_imported

    # the model types live in dsl, so validate executes no graph code
    validate_set = {"cli", "dsl", "formulas"}
    assert executed("validate", "ring.sbm") == (0, validate_set, False, False)
    # reporting a usage error executes no more than the verb did
    assert executed("validate", "missing.sbm") == (2, validate_set, False, False)
    assert executed("validate", "bad.sbm") == (2, validate_set, False, False)
    # only a model that uses repeat imports copy, to unroll it
    last = fresh_python(code, "validate", "repeat.sbm", cwd=tmp_path).splitlines()
    assert last[0] == "ok: 1 objects over vars x"
    assert json.loads(last[-1])[4] == ["copy"]
    # ring's atoms each have one variable, so no verb on it executes simplex
    status, modules, random_imported, _ = executed("check", "ring.sbm", "--property", "AllMarked")
    assert status == 1 and "verify" in modules
    assert not modules & {"emit", "engine", "runsets", "simplex"} and not random_imported
    # the raw per-cell view is extraction alone: no product and no minimizer
    status, modules, _, _ = executed("graph", "ring.sbm", "--object", "C0")
    assert status == 0 and "extract" in modules
    assert not modules & {"compose", "emit", "minimize", "verify", "runsets", "engine", "simplex"}
    status, modules, _, _ = executed("graph", "ring.sbm", "--composite", "--simplify")
    assert status == 0 and "simplex" not in modules
    # clause (c) reads the patched run graph, with no cell alphabet; only
    # repair writes a new object, so only repair executes the structurer
    status, modules, _, json_imported = executed("repair", "ring.sbm", "--property", "AllMarked", "--verify")
    assert status == 0 and {"verify", "emit"} <= modules
    assert not modules & {"runsets", "engine", "simplex"} and not json_imported
    # the script walk lives in dsl, so a run executes no extraction, minimizer
    # or graph code
    status, modules, random_imported, _ = executed("run", "ring.sbm", "--policy", "random-cell")
    assert (status, random_imported) == (0, True)
    assert modules == {"cli", "dsl", "formulas", "cells", "solver", "engine"}
    # an atom over two variables is what executes the simplex
    status, modules, _, _ = executed("check", "sum.sbm", "--property", "P")
    assert status == 1 and "simplex" in modules


def test_package_api_keeps_its_shape():
    for name in sbmod.__all__:
        value = getattr(sbmod, name)
        assert value.__module__.startswith("sbmod.")
        assert vars(sys.modules[value.__module__])[name] is value
    namespace: dict = {}
    exec("from sbmod import *", namespace)
    assert set(sbmod.__all__) <= namespace.keys()
    assert set(sbmod.__all__) <= set(dir(sbmod))
    assert not hasattr(sbmod, "SatResult")
    code = ("import json, sys, types, sbmod; "
            f"print(json.dumps([{EXECUTED}, sorted(n for n in sys.modules if n.startswith('sbmod.'))]))")
    executed, registered = json.loads(fresh_python(code))
    assert executed == []
    assert registered == [f"sbmod.{m}" for m in (
        "cells", "compose", "dsl", "emit", "engine", "extract", "formulas", "graphs", "minimize",
        "runsets", "simplex", "solver", "verify")]
