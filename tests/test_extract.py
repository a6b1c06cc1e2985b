from __future__ import annotations

import random

import pytest

import test_emit_random
import test_random_pipeline
from sbmod.dsl import (
    END_LOCATION,
    IfStmt,
    ScenarioScript,
    SyncStmt,
    initial_state,
    parse_model,
    step_script,
    symbolic_paths,
)
from sbmod.extract import (
    ExtractStats,
    ExtractionError,
    extract_graph,
    object_graph,
    simplify_graph,
    state_name,
)
from sbmod.formulas import TRUE, Assignment, VarSet, conj, disj, var_atom
from sbmod.graphs import ObjectGraph
from sbmod import cells
from sbmod.cells import cell_formula, satisfiable_masks
from sbmod.solver import check_sat, equivalent

from oracles import indep_text, ref_extract_graph, ring_n_text, token_ring_text

VH = VarSet(("v", "h"))


def nav_script(drone_model):
    return drone_model.get("Navigate")


# ---------------------------------------------------------------------------
# interpreter steps


def test_step_wakes_into_second_sync(drone_model):
    nav = nav_script(drone_model)
    s0 = initial_state(nav)
    s1 = step_script(nav, s0, Assignment.make({"v": 3, "h": 0}))
    assert state_name(s1) == "s1"


def test_step_without_wake_stays(drone_model):
    nav = nav_script(drone_model)
    s0 = initial_state(nav)
    assert step_script(nav, s0, Assignment.make({"v": 0, "h": 0})) == s0


def test_step_skips_untaken_branch(drone_model):
    nav = nav_script(drone_model)
    s0 = initial_state(nav)
    s1 = step_script(nav, s0, Assignment.make({"v": 3, "h": 0}))
    # h >= 10 wakes the object and skips the if-branch straight to the
    # request-true state
    s3 = step_script(nav, s1, Assignment.make({"v": 0, "h": 12}))
    assert state_name(s3) == "s3"
    # while h < 10 enters the branch
    s2 = step_script(nav, s1, Assignment.make({"v": 0, "h": 3}))
    assert state_name(s2) == "s2"


def test_end_absorbs(drone_model):
    m = parse_model("model { vars v, h; object T { sync(request = true); } }")
    t = m.get("T")
    end = step_script(t, initial_state(t), Assignment.make({"v": 0, "h": 0}))
    assert end == END_LOCATION
    assert step_script(t, end, Assignment.make({"v": 9, "h": 9})) == end


def test_finished_script_stays_finished():
    # the last sync is a loop's: reading the state -1 as an index would wake
    # a finished script into that loop
    m = parse_model("model { vars v; object T { sync(request = true); "
                    "if (v >= 1) { loop { sync(request = true); } } } }")
    t = m.get("T")
    end = step_script(t, initial_state(t), Assignment.make({"v": 0}))
    assert end == END_LOCATION
    for v in (0, 1, 2, -1):
        assert step_script(t, end, Assignment.make({"v": v})) == END_LOCATION


# ---------------------------------------------------------------------------
# extraction


def test_extract_navigate_shape(drone_model):
    stats = ExtractStats()
    g = extract_graph(nav_script(drone_model), VH, stats=stats)
    assert len(stats.predicates) == 5
    assert set(stats.cells_per_state.values()) == {32}
    sg = simplify_graph(g, VH)
    assert sg.states == frozenset({"s0", "s1", "s2", "s3"})
    edges = {(e.src, e.dst): e.guard for e in sg.edges}
    assert set(edges) == {("s0", "s1"), ("s1", "s2"), ("s1", "s3"), ("s2", "s3"), ("s3", "s3")}
    assert equivalent(edges[("s0", "s1")], conj([var_atom("v", ">=", 2), var_atom("h", "==", 0)]), VH)
    assert equivalent(edges[("s1", "s2")], var_atom("h", "<", 10), VH)
    assert equivalent(edges[("s1", "s3")], var_atom("h", ">=", 10), VH)
    assert equivalent(edges[("s2", "s3")], var_atom("h", ">=", 10), VH)
    assert equivalent(edges[("s3", "s3")], TRUE, VH)


def test_extract_single_blocking_loop(drone_model):
    g = simplify_graph(extract_graph(drone_model.get("HorizontalLimit"), VH), VH)
    assert len(g.states) == 1
    (q,) = g.states
    assert equivalent(g.block[q], disj([var_atom("h", "<=", -20), var_atom("h", ">=", 20)]), VH)
    assert g.edges == ()  # never wakes; the true self-loop stays implicit
    assert g.stay_guard(q) == TRUE


def test_extract_branching_on_request_cells():
    m = parse_model(
        """
        model { vars x;
          object T {
            sync(request = x < 5);
            if (x >= 2) { sync(request = true); } else { sync(request = false); }
          }
        }
        """
    )
    g = simplify_graph(extract_graph(m.get("T"), m.vars), m.vars)
    out = {e.dst: e.guard for e in g.out_edges("s0")}
    assert len(out) == 2
    x = VarSet(("x",))
    assert equivalent(out["s1"], conj([var_atom("x", "<", 5), var_atom("x", ">=", 2)]), x)
    assert equivalent(out["s2"], var_atom("x", "<", 2), x)


def test_seventeen_thresholds_on_one_variable_extract():
    # 17 predicates, but they cut one line into at most 35 sign cells
    atoms = " && ".join(f"x >= {i}" for i in range(17))
    m = parse_model(f"model {{ vars x; object T {{ sync(request = {atoms}); }} }}")
    stats = ExtractStats()
    g = extract_graph(m.get("T"), m.vars, stats=stats)
    assert len(stats.predicates) == 17
    assert stats.satisfiable_cells_per_state["s0"] == 18
    assert [(e.src, e.dst) for e in g.edges] == [("s0", "end")]


def test_extraction_past_the_cell_budget_is_refused():
    # 13 independent variables, one threshold each: exactly 2^13 sign cells
    names = [f"v{i}" for i in range(13)]
    request = " || ".join(f"{v} >= 1" for v in names)
    m = parse_model(f"model {{ vars {', '.join(names)}; object T {{ sync(request = {request}); }} }}")
    assert satisfiable_masks(list(m.get("T").predicates)[:12], m.vars) == tuple(range(1 << 12))
    assert satisfiable_masks(list(m.get("T").predicates), m.vars) is None
    with pytest.raises(ExtractionError, match="object 'T' has too many sign cells over its 13 predicates, "
                                              "over the budget of 4096"):
        extract_graph(m.get("T"), m.vars)
    # the 13 predicates of the patch that repair once wrote for indep-6 are
    # inside it: v0 has three thresholds and four sign vectors, v1..v5 two
    # and three each, so 4·3^5 = 972 cells, though their line pieces number
    # 7·5^5
    names = [f"v{i}" for i in range(6)]
    block = " && ".join(["v0 >= 5", "(v0 <= 0 || v0 >= 1)"] + [f"{v} > 0 && {v} < 1" for v in names[1:]])
    m = parse_model(f"model {{ vars {', '.join(names)}; "
                    f"object T {{ loop {{ sync(waitfor = v0 >= 5, block = {block}); }} }} }}")
    stats = ExtractStats()
    g = extract_graph(m.get("T"), m.vars, stats=stats)
    assert len(stats.predicates) == 13
    assert stats.satisfiable_cells_per_state == {"s0": 972}
    # the cells with v0 >= 5 wake it: one sign vector of v0's four
    assert len(g.edges) == 3 ** 5


def test_a_branch_before_the_first_sync_is_an_extraction_error():
    # the parser refuses such a script; one built by hand fails in the walk
    script = ScenarioScript("T", [IfStmt(TRUE, [SyncStmt()], [])])
    assert script.fault == "object 'T' branches before its first sync"
    with pytest.raises(ExtractionError, match="conditional reached with no triggered assignment"):
        initial_state(script)


def test_cell_partition_properties(drone_model):
    # satisfiable sign cells are pairwise disjoint and cover everything
    stats = ExtractStats()
    extract_graph(nav_script(drone_model), VH, stats=stats)
    atoms = list(stats.predicates)
    cells = [cell_formula(atoms, mask) for mask in range(1 << len(atoms))]
    sat_cells = [c for c in cells if check_sat(c, VH) is not None]
    for i, a in enumerate(sat_cells):
        for b in sat_cells[i + 1:]:
            assert check_sat(conj([a, b]), VH) is None
    assert equivalent(disj(sat_cells), TRUE, VH)


def test_extraction_deterministic(drone_model):
    a = extract_graph(nav_script(drone_model), VH)
    b = extract_graph(nav_script(drone_model), VH)
    assert a == b
    assert simplify_graph(a, VH) == simplify_graph(b, VH)


def test_simplify_merges_parallel_edges():
    g = ObjectGraph.make(
        states=["a", "b"], initial="a",
        waitfor={"a": TRUE},
        edges=[
            ("a", conj([var_atom("h", ">=", 10), var_atom("h", "<", 18)]), "b"),
            ("a", var_atom("h", ">=", 18), "b"),
            ("a", var_atom("h", "<", 10), "a"),
        ],
    )
    sg = simplify_graph(g, VH)
    merged = [e for e in sg.edges if e.dst == "b"]
    assert len(merged) == 1
    assert merged[0].guard == var_atom("h", ">=", 10)


def test_simplify_leaves_single_edges_semantically_alone():
    g = ObjectGraph.make(
        states=["a", "b"], initial="a", waitfor={"a": var_atom("h", ">", 3)},
        edges=[("a", var_atom("h", ">", 3), "b")],
    )
    sg = simplify_graph(g, VH)
    assert [e.guard for e in sg.edges] == [var_atom("h", ">", 3)]


def test_simplify_navigate_merges_cell_guards(drone_model):
    raw = extract_graph(nav_script(drone_model), VH)
    # raw extraction carries one edge per satisfiable waking cell
    assert len(raw.edges) > len(simplify_graph(raw, VH).edges)
    groups = {}
    for e in raw.edges:
        groups.setdefault((e.src, e.dst), []).append(e.guard)
    sg = simplify_graph(raw, VH)
    for e in sg.edges:
        assert equivalent(e.guard, disj(groups[(e.src, e.dst)]), VH)


def test_raw_view_asks_no_witness(drone_model, workloads, monkeypatch):
    # the raw view splits the symbolic graph over cell masks: no cell is
    # triggered, so no witness is asked for
    wide = parse_model(workloads.wide_text(7))
    cases = [(nav_script(drone_model), VH), (wide.get("Wide"), wide.vars)]
    expected = [ref_extract_graph(script, vars) for script, vars in cases]

    def no_witness(*args):
        raise AssertionError("the raw view asked for a cell witness")

    monkeypatch.setattr(cells, "witness", no_witness)
    assert [extract_graph(script, vars) for script, vars in cases] == expected


# ---------------------------------------------------------------------------
# the symbolic walk, against the per-cell view


def test_symbolic_walk_follows_only_feasible_branches():
    m = parse_model(
        """
        model { vars x;
          object T {
            sync(request = x >= 5);
            if (x >= 2) { sync(request = true); } else { sync(request = false); }
            if (x < 7) { sync(request = x >= 1 && x < 0); }
          }
        }
        """
    )
    t, x = m.get("T"), VarSet(("x",))
    # x >= 5 rules out the else-branch
    ((path, nxt),) = symbolic_paths(t, 0, x)
    assert nxt == 1 and equivalent(path, var_atom("x", ">=", 5), x)
    # both arms of x < 7, then-branch first; the else-arm runs off the end
    (low, s3), (high, end) = symbolic_paths(t, 1, x)
    assert (s3, end) == (3, END_LOCATION)
    assert equivalent(low, var_atom("x", "<", 7), x) and equivalent(high, var_atom("x", ">=", 7), x)
    # an unsatisfiable wake and a finished script have no paths
    assert list(symbolic_paths(t, 3, x)) == [] == list(symbolic_paths(t, END_LOCATION, x))


def _stats_dicts(stats: ExtractStats) -> tuple:
    return stats.predicates, stats.cells_per_state, stats.satisfiable_cells_per_state


def _assert_walk_matches_cells(script, vars):
    """Both views built from the symbolic walk against the reference per-cell
    graph, whose cells are triggered by their witnesses through the concrete
    walk. The raw view and its stats equal the reference's. The simplified
    graph has the same states, initial state, labels and bad set, and one
    edge per (src, dst) whose guard is equivalent to the disjunction of that
    pair's cell guards."""
    ref_stats, stats = ExtractStats(), ExtractStats()
    raw = ref_extract_graph(script, vars, stats=ref_stats)
    assert extract_graph(script, vars, stats=stats) == raw, script.name
    assert _stats_dicts(stats) == _stats_dicts(ref_stats), script.name
    walked = object_graph(script, vars)
    assert (walked.states, walked.initial, walked.bad) == (raw.states, raw.initial, raw.bad)
    assert (walked.request, walked.block, walked.waitfor) == (raw.request, raw.block, raw.waitfor)
    groups: dict[tuple[str, str], list] = {}
    for e in raw.edges:
        groups.setdefault((e.src, e.dst), []).append(e.guard)
    assert sorted((e.src, e.dst) for e in walked.edges) == sorted(groups)
    for e in walked.edges:
        assert equivalent(e.guard, disj(groups[(e.src, e.dst)]), vars), (script.name, e)


USUAL = {
    "ring": lambda w: w.ring_text(5),
    "wide": lambda w: w.wide_text(7),
    "ring8": lambda w: w.ring_text(8),
    "token8": lambda w: token_ring_text(8),
    "wide20": lambda w: w.wide_text(20),
    "wide40": lambda w: w.wide_text(40),
    "indep6": lambda w: indep_text(6),
    "ringn12": lambda w: ring_n_text(12),
}


@pytest.mark.parametrize("name", [*USUAL, "drone"])
def test_symbolic_walk_matches_cells_on_the_usual_models(name, workloads, drone_model):
    m = drone_model if name == "drone" else parse_model(USUAL[name](workloads))
    for o in m.objects:
        _assert_walk_matches_cells(o.item, m.vars)


def test_symbolic_walk_matches_cells_on_random_models(monkeypatch):
    monkeypatch.setattr(test_emit_random, "rand_formula", test_random_pipeline._mixed_formula)
    rng = random.Random(2026)
    objects = branching = 0
    for _ in range(600):
        m = parse_model(test_random_pipeline.rand_model_text(rng))
        for o in m.objects:
            _assert_walk_matches_cells(o.item, m.vars)
            objects += 1
            branching += any(isinstance(st, IfStmt) for st in o.item.body)
    assert objects >= 1800 and branching >= 300
