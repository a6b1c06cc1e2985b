from __future__ import annotations

import random

import pytest

from sbmod.dsl import (
    MAX_NESTING,
    MAX_STATEMENTS,
    EmissionError,
    ParseError,
    ScenarioScript,
    emit_script,
    format_object,
    insert_object,
    parse_model,
    render_model_text,
)
from sbmod.extract import extract_graph, simplify_graph
from sbmod.formulas import FALSE, TRUE, VarSet, atom, conj, var_atom
from sbmod.graphs import ObjectGraph

from conftest import nested_bodies
from oracles import isomorphic, rand_statements, ref_predicates, ref_validate_script

VH = VarSet(("v", "h"))


def parse_single(body: str, vars: str = "v, h"):
    m = parse_model(f"model {{ vars {vars}; object T {{ {body} }} }}")
    return m.get("T"), m


# --------------------------------------------------------------------------
# parsing


def test_parse_drone_fixture_shapes(drone_model):
    nav = drone_model.get("Navigate")
    assert len(nav.syncs) == 4
    prop = drone_model.get("NoConsecutiveSharpTurns")
    assert len(prop.syncs) == 5
    assert [s.bad for s in prop.syncs].count(True) == 1


def test_parse_navigate_style_structure():
    script, _ = parse_single(
        """
        sync(request = v >= 2 && h == 0);
        sync(request = h >= 10, waitfor = h < 10, block = v != 0 || h < 0);
        if (h < 10) {
          sync(request = h >= 10, block = h < 10 || v != 0);
        }
        sync(request = true);
        """
    )
    assert len(script.syncs) == 4
    # one if on h < 10 guarding the third sync
    from sbmod.dsl import IfStmt

    conditions = [st.cond for st in script.body if isinstance(st, IfStmt)]
    assert conditions == [var_atom("h", "<", 10)]


def test_empty_object_is_single_end_state():
    script, m = parse_single("")
    g = extract_graph(script, m.vars)
    assert g.states == frozenset({"end"})
    assert g.request["end"] == FALSE


def test_repeat_unrolls():
    script, m = parse_single(
        "loop { sync(waitfor = v >= 0); repeat 3 { sync(request = v >= 1); } }"
    )
    assert len(script.syncs) == 4
    g = extract_graph(script, m.vars)
    assert len(g.states) == 4


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_model("model {\n  vars v;\n  object A { sync(; }\n}")
    assert "line 3" in str(err.value)


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError) as err:
        parse_single("sync(request = q >= 0);")
    assert "undeclared" in str(err.value)


def test_user_mistakes_are_parse_errors():
    # the CLI reports only these as usage errors, so they must not escape
    # as some other exception type
    with pytest.raises(ParseError, match="duplicate object names"):
        parse_model("model { vars v; object A { sync(); } object A { sync(); } }")
    with pytest.raises(ParseError, match="nonzero denominator"):
        parse_single("sync(request = 1/0*v >= 1);")


def test_cancelled_terms_compare_constants():
    script, _ = parse_single("sync(request = v - v >= 1, waitfor = 0*h <= 0);")
    assert script.syncs[0].request == FALSE
    assert script.syncs[0].waitfor == TRUE


def test_sync_free_loop_rejected():
    with pytest.raises(ParseError) as err:
        parse_single("loop { }")
    assert "sync-free" in str(err.value)


def test_loop_with_sync_free_path_rejected():
    with pytest.raises(ParseError):
        parse_single("loop { if (v >= 0) { sync(request = true); } }")


def test_branch_before_first_sync_rejected():
    with pytest.raises(ParseError) as err:
        parse_single("if (v >= 0) { sync(request = true); }")
    assert "before its first sync" in str(err.value)


def test_one_walk_matches_the_reference_checks_and_predicates():
    rng = random.Random(23)
    pool = [var_atom("x", ">=", 1), var_atom("x", "<", 1), var_atom("y", "==", 0),
            var_atom("y", "!=", 0), atom({"x": 1, "y": 2}, "<=", 3)]
    outcomes = {"ok": 0, "loop": 0, "branch": 0}
    for _ in range(2000):
        body = rand_statements(rng, pool)
        script = ScenarioScript("T", body)
        text = render_model_text(["x", "y"], [format_object("T", body)])
        closing = text.rindex("}")  # the parser stands on the model's brace
        line, col = text.count("\n", 0, closing) + 1, closing - text.rfind("\n", 0, closing)
        try:
            ref_validate_script(script, line, col)
            expected = None
        except ParseError as err:
            expected = (str(err), err.line, err.col)
        try:
            parsed = parse_model(text).get("T")
        except ParseError as err:
            assert (str(err), err.line, err.col) == expected, text
            assert script.fault is not None and str(err).endswith(script.fault)
            outcomes["loop" if "loop" in script.fault else "branch"] += 1
        else:
            assert expected is None and script.fault is None, text
            assert parsed.predicates == ref_predicates(parsed), text
            outcomes["ok"] += 1
        assert script.predicates == ref_predicates(script), text
    assert min(outcomes.values()) >= 200, outcomes


def test_mark_bad_requires_preceding_sync():
    with pytest.raises(ParseError):
        parse_single("mark bad;")


def test_rational_coefficients():
    script, _ = parse_single("sync(request = 1/2*v + h <= 3);")
    from sbmod.formulas import atom
    from fractions import Fraction

    assert script.syncs[0].request == atom({"v": Fraction(1, 2), "h": 1}, "<=", 3)


def test_else_if_chains():
    script, _ = parse_single(
        """
        sync(waitfor = true);
        if (v >= 4) { sync(waitfor = true); }
        else if (v >= 2) { sync(waitfor = v >= 0); }
        else { sync(waitfor = v < 0); }
        """
    )
    assert len(script.syncs) == 4


@pytest.mark.parametrize("shape", ["parens", "nots", "ifs", "loops", "else_if"])
def test_nesting_cap(shape):
    parse_single(nested_bodies(MAX_NESTING)[shape])
    with pytest.raises(ParseError, match="nesting deeper than") as err:
        parse_single(nested_bodies(MAX_NESTING + 1)[shape])
    assert err.value.line == 1 and err.value.col > 1


def test_deep_parentheses_are_a_parse_error():
    # 2000 levels used to exhaust Python's recursion limit
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_single(f"sync(request = {'(' * 2000}v >= 1{')' * 2000});")


def test_statement_cap_counts_unrolled_statements():
    script, _ = parse_single(f"repeat {MAX_STATEMENTS} {{ sync(); }}")
    assert len(script.syncs) == MAX_STATEMENTS
    with pytest.raises(ParseError, match="statements after unrolling"):
        parse_single(f"sync(); repeat {MAX_STATEMENTS} {{ sync(); }}")


def _limit_copies(monkeypatch, limit: int) -> list:
    """Count the parser's ``deepcopy`` calls, failing past ``limit``."""
    import copy

    copies = []
    real_deepcopy = copy.deepcopy

    def counting(x):
        copies.append(x)
        assert len(copies) <= limit, "unrolled past the cap"
        return real_deepcopy(x)

    monkeypatch.setattr(copy, "deepcopy", counting)
    return copies


def test_repeat_cap_is_checked_before_copying(monkeypatch):
    copies = _limit_copies(monkeypatch, 1000)
    with pytest.raises(ParseError) as err:
        parse_model("model { vars v;\n object T { repeat 1000 { repeat 1000 { sync(); } } } }")
    assert (err.value.line, err.value.col) == (2, 20)  # the outer count
    assert len(copies) == 1000  # the inner unrolling only


def test_empty_repeat_body_is_not_unrolled(monkeypatch):
    _limit_copies(monkeypatch, 0)
    script, _ = parse_single(f"repeat {10 ** 30} {{ }} sync();")
    assert len(script.syncs) == 1


# --------------------------------------------------------------------------
# predicate collection


def test_collect_predicates_navigate(drone_model):
    nav = drone_model.get("Navigate")
    preds = nav.predicates
    assert len(preds) == 5
    for a in (
        var_atom("v", ">=", 2), var_atom("h", "==", 0), var_atom("h", ">=", 10),
        var_atom("v", "==", 0), var_atom("h", "<", 0),
    ):
        assert a.atom.polarity_rep() in preds


def test_collect_predicates_trivial_sync():
    script, _ = parse_single("sync(request = true);")
    assert len(script.predicates) == 0


def test_collect_predicates_collapses_negations():
    script, _ = parse_single(
        "sync(request = h >= 10); if (h < 10) { sync(request = h >= 10); }"
    )
    assert len(script.predicates) == 1


def test_collect_predicates_invariant_under_canonicalization():
    a, _ = parse_single("sync(request = 2*v >= 4 && !(h < 0));")
    b, _ = parse_single("sync(request = v >= 2 && h >= 0);")
    assert a.predicates == b.predicates


# --------------------------------------------------------------------------
# emission


def fig5_patch_graph() -> ObjectGraph:
    sharp_climb = conj([var_atom("v", ">=", 4), var_atom("h", "==", 0)])
    return ObjectGraph.make(
        states=["p0", "p1", "p2"],
        initial="p0",
        waitfor={"p0": sharp_climb, "p1": TRUE},
        block={"p1": var_atom("h", ">=", 18)},
        edges=[("p0", sharp_climb, "p1"), ("p1", TRUE, "p2")],
    )


def test_emit_fig5_style_patch():
    text = emit_script(fig5_patch_graph(), "Patch")
    assert text == (
        "object Patch {\n"
        "  sync(waitfor = h == 0 && v >= 4);\n"
        "  sync(waitfor = true, block = h >= 18);\n"
        "  loop {\n"
        "    sync();\n"
        "  }\n"
        "}"
    )
    # round-trip: parse and re-extract to an isomorphic graph
    model = parse_model(render_model_text(["v", "h"], [text]))
    g = simplify_graph(extract_graph(model.get("Patch"), VH), VH)
    assert isomorphic(g, fig5_patch_graph(), VH)


def test_emit_single_idle_state():
    idle = ObjectGraph.make(states=["i"], initial="i")
    assert emit_script(idle, "Idle") == "object Idle {\n  loop {\n    sync();\n  }\n}"


def test_emit_rejects_nondeterministic_graph():
    g = ObjectGraph.make(
        states=["a", "b", "c"], initial="a",
        waitfor={"a": TRUE},
        edges=[("a", var_atom("h", ">=", 0), "b"), ("a", var_atom("h", "<=", 0), "c")],
    )
    with pytest.raises(EmissionError):
        emit_script(g)


def test_roundtrip_per_object(drone_model):
    # every fixture object survives extract -> emit -> parse -> extract
    for name in drone_model.names():
        script = drone_model.get(name)
        g = simplify_graph(extract_graph(script, drone_model.vars), drone_model.vars)
        text = emit_script(g, name)
        reparsed = parse_model(render_model_text(["v", "h"], [text]))
        g2 = simplify_graph(extract_graph(reparsed.get(name), VH), VH)
        assert isomorphic(g, g2, VH), f"round-trip failed for {name}"


def test_roundtrip_discrete_cycles():
    from conftest import WATER_TAP_EVENTS, water_adder, water_stability
    from sbmod.graphs import encode_discrete

    x = VarSet(("x",))
    for obj in (water_adder("AddHot"), water_stability()):
        g = encode_discrete(WATER_TAP_EVENTS, obj)
        text = emit_script(g, "Tap")
        reparsed = parse_model(render_model_text(["x"], [text]))
        g2 = simplify_graph(extract_graph(reparsed.get("Tap"), x), x)
        assert isomorphic(g, g2, x)


def test_emitted_text_is_diff_stable(drone_model):
    nav = drone_model.get("Navigate")
    g = simplify_graph(extract_graph(nav, drone_model.vars), drone_model.vars)
    assert emit_script(g, "Navigate") == emit_script(g, "Navigate")


def test_insert_object_appends_before_closing_brace(drone_text):
    patched = insert_object(drone_text, "object Extra {\n  loop {\n    sync();\n  }\n}")
    model = parse_model(patched)
    assert "Extra" in model.names()


def test_insert_object_keeps_trailing_comments():
    text = "model { vars v;\n  object A { sync(); }\n} # trailing comment\n# and one more\n"
    patched = insert_object(text, "object Extra {\n  sync();\n}")
    assert patched.endswith("\n  object Extra {\n    sync();\n  }\n} # trailing comment\n# and one more\n")
    assert parse_model(patched).names() == ["A", "Extra"]


def test_emit_refuses_a_cycle_away_from_the_initial_state():
    g = ObjectGraph.make(
        states=["a", "b", "c"], initial="a", waitfor={q: TRUE for q in "abc"},
        edges=[("a", TRUE, "b"), ("b", TRUE, "c"), ("c", TRUE, "b")],
    )
    with pytest.raises(EmissionError, match="cycle through 'b' does not pass the initial state"):
        emit_script(g)


def test_emit_refuses_a_branch_back_to_the_loop_start_before_a_shared_suffix():
    # b returns to a, but its arm would end where the chain does and fall
    # into d, the suffix that c and e share
    g = ObjectGraph.make(
        states="abcde", initial="a", waitfor={q: TRUE for q in "abcde"},
        block={q: var_atom("v", "==", k) for q, k in zip("bcde", (10, 30, 20, 40))},
        edges=[("a", var_atom("v", "<", 1), "b"), ("a", conj([var_atom("v", ">=", 1), var_atom("v", "<", 2)]), "c"),
               ("a", var_atom("v", ">=", 2), "e"),
               ("b", TRUE, "a"), ("c", TRUE, "d"), ("e", TRUE, "d"), ("d", TRUE, "a")],
    )
    with pytest.raises(EmissionError, match="branch 'a' -> 'b' would fall into a shared suffix"):
        emit_script(g)


def test_emit_a_cycle_longer_than_the_recursion_limit():
    n = 1500
    names = [f"s{i}" for i in range(n)]
    g = ObjectGraph.make(
        states=names, initial="s0", waitfor={q: TRUE for q in names},
        edges=[(q, TRUE, names[(i + 1) % n]) for i, q in enumerate(names)],
    )
    m = parse_model(f"model {{ vars v; {emit_script(g, 'Chain')} }}")
    assert len(m.get("Chain").syncs) == n


def test_emit_refuses_guards_short_of_the_wake_condition():
    g = ObjectGraph.make(
        states=["a", "b"], initial="a", waitfor={"a": TRUE},
        edges=[("a", var_atom("v", ">=", 0), "b")],
    )
    with pytest.raises(EmissionError, match="out-edge guards do not match its wake condition"):
        emit_script(g)
