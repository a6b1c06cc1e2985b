"""Edge cases across modules: mixed models, threading, debug output,
multi-variable guards, and a brute-force cross-check of the memoized
run-set comparison."""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from sbmod.compose import compose
from sbmod.dsl import ParseError, parse_model
from sbmod.engine import ExecutionConfig, run
from sbmod.extract import extract_graph, simplify_graph
from sbmod.formulas import Assignment, VarSet, atom, conj, var_atom
from sbmod.graphs import Model, NamedObject, ObjectGraph
from sbmod.runsets import CellRuns, CellSpace
from sbmod.solver import check_sat
from sbmod.verify import repair

from oracles import accepts, bounded_runs, doomed_states, runs_equal_minus_violations

VH = VarSet(("v", "h"))


def test_all_scripts_ending_stops_run():
    m = parse_model(
        """
        model { vars v;
          object A { sync(request = v >= 0); }
          object B { sync(waitfor = true); sync(waitfor = v < 0, request = v < 0); }
        }
        """
    )
    log = run(m, ExecutionConfig(max_steps=10))
    assert log.stop_reason in ("ended", "deadlock")
    # A ends after one step; B's second sync only wakes on v < 0, which is
    # never selected once nothing requests it, so the run deadlocks
    assert len(log.entries) >= 1


def test_run_reaches_ended_state():
    m = parse_model(
        """
        model { vars v;
          object A { sync(request = v >= 0); }
          object B { sync(waitfor = true); }
        }
        """
    )
    log = run(m, ExecutionConfig(max_steps=10))
    assert log.stop_reason == "ended"
    assert len(log.entries) == 1


def test_mixed_script_and_graph_objects(drone_base):
    observer = ObjectGraph.make(
        states=["o0", "o1"], initial="o0",
        waitfor={"o0": var_atom("h", ">=", 10)},
        edges=[("o0", var_atom("h", ">=", 10), "o1")],
    )
    mixed = Model(VH, drone_base.objects + (NamedObject("Observer", observer),))
    log = run(mixed, ExecutionConfig(max_steps=4))
    assert [e.assignment for e in log.entries] == [
        e.assignment for e in run(drone_base, ExecutionConfig(max_steps=4)).entries
    ]
    assert any("Observer" in e.woke for e in log.entries)


def test_multivariable_guards_through_extraction():
    m = parse_model(
        """
        model { vars x, y;
          object Sum {
            sync(request = x + y >= 10 && x - y >= 0);
            loop { sync(request = true); }
          }
        }
        """
    )
    g = simplify_graph(extract_graph(m.get("Sum"), m.vars), m.vars)
    assert len(g.states) == 2
    (entry,) = [e for e in g.out_edges("s0") if e.dst == "s1"]
    model = check_sat(entry.guard, m.vars)
    assert model["x"] + model["y"] >= 10
    log = run(m, ExecutionConfig(max_steps=2))
    first = log.entries[0].assignment
    assert first["x"] + first["y"] >= 10


def test_cellspace_covers_multivariable_atoms():
    # x + y >= 10 splits the plane in two cells; both get a witness, and any
    # assignment maps to the letter of the witness on its side
    xy = VarSet(("x", "y"))
    g = ObjectGraph.make(
        states=["a"], initial="a",
        request={"a": atom({"x": 1, "y": 1}, ">=", 10)},
    )
    space = CellSpace.for_graphs([g], xy)
    sides = sorted(w["x"] + w["y"] >= 10 for w in space.witnesses)
    assert sides == [False, True]
    above = space.key_of(Assignment.make({"x": 3, "y": 7}))
    below = space.key_of(Assignment.make({"x": 9, "y": 0}))
    assert above != below
    (w_above,) = [w for w in space.witnesses if space.key_of(w) == above]
    assert w_above["x"] + w_above["y"] >= 10
    moves = CellRuns.build(g, space).moves["a"]
    assert [key for key, _ in moves] == [above]


def test_runs_equal_matches_materialized_sets(drone_base, drone_property):
    # cross-check the unbounded pair search against literal set operations
    # at depths where materialization is feasible
    patch, _, comp = repair(drone_base, drone_property)
    patched = compose(comp, patch.tracker, VH)
    space = CellSpace.for_graphs([comp, patched], VH)
    a = CellRuns.build(comp, space)
    b = CellRuns.build(patched, space)
    doomed = doomed_states(comp, VH)
    assert runs_equal_minus_violations(a, b, doomed) is None
    for depth in (1, 2, 3):
        assert bounded_runs(a, depth, avoid=doomed) == bounded_runs(b, depth)


def test_runs_equal_detects_differences(drone_base, drone_property):
    patch, _, comp = repair(drone_base, drone_property)
    patched = compose(comp, patch.tracker, VH)
    space = CellSpace.for_graphs([comp, patched], VH)
    a = CellRuns.build(comp, space)
    b = CellRuns.build(patched, space)
    # against an empty doomed set, the patched model visibly lacks the
    # violating continuation, so the comparison must return a witness
    witness = runs_equal_minus_violations(a, b, doomed=frozenset())
    assert witness is not None
    assert accepts(a, witness) != accepts(b, witness)


def test_solver_thread_safety(drone_model):
    # independent queries from worker threads agree with serial answers
    queries = []
    for i in range(40):
        f = conj([var_atom("v", ">=", i % 7), var_atom("v", "<", (i % 7) + (i % 3))])
        queries.append(f)
    serial = [check_sat(f, VH) is not None for f in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda f: check_sat(f, VH) is not None, queries))
    assert serial == parallel

    with ThreadPoolExecutor(max_workers=4) as pool:
        graphs = list(pool.map(
            lambda name: simplify_graph(extract_graph(drone_model.get(name), VH), VH),
            drone_model.names(),
        ))
    for name, g in zip(drone_model.names(), graphs):
        assert g == simplify_graph(extract_graph(drone_model.get(name), VH), VH)


def test_smtlib_debug_dump_env(tmp_path):
    code = (
        "from sbmod.formulas import VarSet, var_atom\n"
        "from sbmod.solver import check_sat\n"
        "check_sat(var_atom('v', '>=', 2), VarSet(('v',)))\n"
    )
    env = dict(os.environ, SBM_SOLVER_DEBUG="1", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).resolve().parent.parent,
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "(set-logic QF_LRA)" in proc.stderr
    assert "(assert (>= v 2))" in proc.stderr


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse_model("model { vars v; object A { sync(request = true, request = true); } }")
    with pytest.raises(ParseError):
        parse_model("model { vars v; object A { repeat 0 { sync(); } } }")
    with pytest.raises(ParseError):
        parse_model("model { vars v; } trailing")
    with pytest.raises(ParseError):
        parse_model("model { vars v, v; }")


def test_duplicate_object_names_rejected():
    with pytest.raises(Exception):
        parse_model("model { vars v; object A { sync(); } object A { sync(); } }")
