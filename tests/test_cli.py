from __future__ import annotations

import json
from pathlib import Path

import pytest

from sbmod.cli import main
from sbmod.dsl import MAX_NESTING, parse_model
from sbmod.verify import Safe, check_safety

from oracles import WATER_TAP_TEXT, indep_text

FIXTURE = Path(__file__).parent / "fixtures" / "drone.sbm"


def test_validate_ok(capsys):
    assert main(["validate", str(FIXTURE)]) == 0
    assert "4 objects" in capsys.readouterr().out


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.sbm"
    bad.write_text("model { vars v; object A { sync(; } }")
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_empty_file(tmp_path):
    empty = tmp_path / "empty.sbm"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 2


def test_validate_rejects_sync_free_loop(tmp_path):
    looped = tmp_path / "loop.sbm"
    looped.write_text("model { vars v; object A { loop { } } }")
    assert main(["validate", str(looped)]) == 2


def test_missing_file():
    assert main(["validate", "no/such/file.sbm"]) == 2


def test_run_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    assert main(["run", str(FIXTURE), "--steps", "5", "--log", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 5
    assert lines[0]["step"] == 1
    assert set(lines[0]["assignment"]) == {"v", "h"}


def test_run_seeded_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (a, b):
        assert main(["run", str(FIXTURE), "--steps", "6", "--seed", "9",
                     "--policy", "random-cell", "--log", str(target)]) == 0
    assert a.read_text() == b.read_text()


def test_graph_object_dot(capsys):
    assert main(["graph", str(FIXTURE), "--object", "Navigate", "--simplify"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "Navigate"')
    assert "h >= 10" in out


def test_graph_single_idle_object(tmp_path, capsys):
    src = tmp_path / "idle.sbm"
    src.write_text("model { vars v; object Idle { loop { sync(); } } }")
    assert main(["graph", str(src), "--object", "Idle", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["states"]) == 1


def test_graph_composite_json(capsys):
    assert main(["graph", str(FIXTURE), "--composite", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["states"]) == 6
    assert len(data["bad"]) == 1


def test_check_violation_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main(["check", str(FIXTURE), "--property", "NoConsecutiveSharpTurns",
                 "--trace", str(trace)])
    assert code == 1
    assert "Violation" in capsys.readouterr().out
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(lines) == 3  # two steps plus the verdict line
    assert lines[-1]["verdict"] == "BadReached"


def test_check_safe_property(tmp_path, capsys):
    # a property that never marks anything is trivially satisfied
    text = FIXTURE.read_text().replace("mark bad;", "")
    src = tmp_path / "safe.sbm"
    src.write_text(text)
    assert main(["check", str(src), "--property", "NoConsecutiveSharpTurns"]) == 0
    assert "Safe" in capsys.readouterr().out


def test_repair_writes_patch_and_verifies(tmp_path, capsys):
    patch_file = tmp_path / "patch.sbm"
    patched_model = tmp_path / "patched.sbm"
    code = main([
        "repair", str(FIXTURE), "--property", "NoConsecutiveSharpTurns",
        "--out", str(patch_file), "--emit-model", str(patched_model), "--verify",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "blocking h >= 18" in out
    assert "pass" in out
    assert patch_file.read_text().startswith("object Patch {")

    model = parse_model(patched_model.read_text())
    assert "Patch" in model.names()
    prop = model.get("NoConsecutiveSharpTurns")
    rest = model.without("NoConsecutiveSharpTurns")
    assert isinstance(check_safety(rest, prop), Safe)


def test_repair_identity_on_safe_model(tmp_path, capsys):
    text = FIXTURE.read_text().replace("mark bad;", "")
    src = tmp_path / "safe.sbm"
    src.write_text(text)
    assert main(["repair", str(src), "--property", "NoConsecutiveSharpTurns"]) == 0
    assert "identity patch" in capsys.readouterr().out


def test_repair_unrepairable(tmp_path, capsys):
    src = tmp_path / "doomed.sbm"
    src.write_text(
        """
        model { vars v;
          object Go { loop { sync(request = v >= 0); } }
          object Doom { sync(waitfor = true); sync(); mark bad; }
        }
        """
    )
    assert main(["repair", str(src), "--property", "Doom"]) == 1
    assert "unrepairable" in capsys.readouterr().err


def test_unemittable_patch_is_unrepairable(tmp_path, capsys):
    src = tmp_path / "tap.sbm"
    src.write_text(WATER_TAP_TEXT)
    assert main(["repair", str(src), "--property", "TwoHot"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("unrepairable: the patch cannot be written as a scenario script: ")


# a random model, shrunk: a branch of its patch leaves for a state past an
# inner shared suffix, and the structured text fell into that suffix instead,
# so the emitted model reached a bad state
TINY = """model {
  vars v, h;
  object O0 { sync(request = h < 2); sync(request = h >= 0); sync(waitfor = v >= 2, block = v >= 2); }
  object O1 { sync(waitfor = v >= 2); if (h < 0) { sync(request = h >= 0 && v < 1); } loop { sync(request = h >= 0); } }
  object P { sync(waitfor = h >= 0 && v >= 2); sync(waitfor = h < 2); sync(); mark bad; }
}
"""


def test_patch_that_would_fall_into_a_shared_suffix_is_refused(tmp_path, capsys):
    src, emitted = tmp_path / "tiny.sbm", tmp_path / "patched.sbm"
    src.write_text(TINY)
    assert main(["repair", str(src), "--property", "P", "--verify", "--emit-model", str(emitted)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("unrepairable: the patch cannot be written as a scenario script: ")
    assert not emitted.exists()


THREE_PASSES = "verification: safety after patch: pass; no new deadlocks: pass; run containment: pass\n"


@pytest.mark.parametrize("family, n, prop", [
    ("ring_n_text", 4, "P"), ("ring_n_text", 5, "P"), ("ring_n_text", 6, "P"), ("ring_n_text", 8, "P"),
    ("token_ring_text", 3, "ReachLast"), ("token_ring_text", 4, "ReachLast"), ("token_ring_text", 5, "ReachLast"),
])
def test_repair_verify_on_rings_with_stutter(tmp_path, capsys, family, n, prop):
    import oracles

    src = tmp_path / "ring.sbm"
    src.write_text(getattr(oracles, family)(n))
    emitted = tmp_path / "patched.sbm"
    assert main(["repair", str(src), "--property", prop, "--verify", "--emit-model", str(emitted)]) == 0
    assert capsys.readouterr().out.endswith(THREE_PASSES)
    assert main(["check", str(emitted), "--property", prop]) == 0


def test_check_indep_model_trace(tmp_path, capsys):
    # every guard is a disjunction, so the step's model comes from the
    # Boolean search, not from the one theory call for a conjunction
    src = tmp_path / "indep6.sbm"
    src.write_text(indep_text(6))
    assert main(["check", str(src), "--property", "P"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "Violation: bad state s0⊗s0⊗s0⊗s0⊗s0⊗s0⊗s1 reachable in 1 steps\n"
        "  step 1 at s0⊗s0⊗s0⊗s0⊗s0⊗s0⊗s0: {v0=5, v1=1/2, v2=1/2, v3=1/2, v4=1/2, v5=1/2}\n"
    )
    assert captured.err == ""


def test_unknown_property_name(capsys):
    assert main(["check", str(FIXTURE), "--property", "Nope"]) == 2
    assert capsys.readouterr().err == "error: model has no object named 'Nope'\n"


def test_repair_verify_with_multivariable_atoms(tmp_path, capsys):
    src = tmp_path / "sum.sbm"
    src.write_text(
        """
        model { vars x, y;
          object Walker { loop { sync(request = x + y >= 1 || x == 0); } }
          object NoBig { sync(waitfor = x + y >= 1); sync(); mark bad; }
        }
        """
    )
    assert main(["repair", str(src), "--property", "NoBig", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "blocking x + y >= 1" in out
    assert ("verification: safety after patch: pass; no new deadlocks: pass; "
            "run containment: pass") in out


# Walker requests regions bounded by two-variable atoms, so every model the
# solver returns here comes from the simplex, strict bounds included.
SIMPLEX_MODEL = """model { vars x, y;
  object Walker { loop { sync(request = x + y > 1 && x - y < 2 || x == 0 && y != 1 || 2*x - y >= 3); } }
  object Fence { loop { sync(block = x - 2*y > 4); } }
  object NoBig { sync(waitfor = x + y > 1 && x > y); sync(waitfor = 2*x - y > 3); sync(); mark bad; }
}
"""

SIMPLEX_PATCH = """object Patch {
  sync(waitfor = x - y > 0 && x + y > 1);
  loop {
    sync(block = x - 1/2*y > 3/2);
  }
}
"""

SIMPLEX_RUN = [
    ("0", "3/2", ["Walker"]), ("2", "1", ["Walker", "NoBig"]), ("3", "1", ["Walker", "NoBig"]),
    ("-1/2", "2", ["Walker"]), ("4/3", "-1/3", ["Walker"]), ("2", "1", ["Walker"]), ("0", "0", ["Walker"]),
    ("1/2", "1", ["Walker"]), ("2", "1", ["Walker"]), ("3/2", "0", ["Walker"]), ("2", "1", ["Walker"]),
    ("2", "0", ["Walker"]), ("0", "0", ["Walker"]), ("3/2", "-1/2", ["Walker"]), ("3", "1", ["Walker"]),
    ("0", "3/2", ["Walker"]), ("0", "3/2", ["Walker"]), ("0", "0", ["Walker"]), ("3", "1", ["Walker"]),
    ("3", "1", ["Walker"]),
]


def test_cli_output_on_simplex_models(tmp_path, capsys):
    src, emitted = tmp_path / "simplex.sbm", tmp_path / "patched.sbm"
    src.write_text(SIMPLEX_MODEL)
    assert main(["check", str(src), "--property", "NoBig"]) == 1
    assert capsys.readouterr().out == (
        "Violation: bad state s0⊗s0⊗s2 reachable in 2 steps\n"
        "  step 1 at s0⊗s0⊗s0: {x=3/2, y=0}\n"
        "  step 2 at s0⊗s0⊗s1: {x=2, y=0}\n")
    assert main(["repair", str(src), "--property", "NoBig", "--verify", "--emit-model", str(emitted)]) == 0
    assert capsys.readouterr().out == (
        "reachable bad states: s0⊗s0⊗s2\n"
        "cutting at s0⊗s0⊗s1: blocking x - 1/2*y > 3/2\n"
        + SIMPLEX_PATCH
        + "verification: safety after patch: pass; no new deadlocks: pass; run containment: pass\n")
    patch = "\n".join("  " + line for line in SIMPLEX_PATCH.splitlines())
    assert emitted.read_text() == SIMPLEX_MODEL.replace("\n}\n", f"\n\n{patch}\n}}\n")
    assert main(["run", str(src), "--policy", "random-cell", "--seed", "3", "--log", "-"]) == 0
    out = capsys.readouterr()
    assert [json.loads(line) for line in out.out.splitlines()] == [
        {"assignment": {"x": x, "y": y}, "step": i, "woke": woke} for i, (x, y, woke) in enumerate(SIMPLEX_RUN, 1)]
    assert out.err == "20 steps, stopped by max-steps\n"


def test_emit_model_after_trailing_comment(tmp_path, capsys):
    src = tmp_path / "commented.sbm"
    src.write_text(
        """model { vars v, h;
          object Climb { loop { sync(request = v >= 0 && h >= 0); } }
          object NoHigh { sync(waitfor = v >= 5); sync(); mark bad; }
        } # trailing comment
        """
    )
    emitted = tmp_path / "patched.sbm"
    assert main(["repair", str(src), "--property", "NoHigh", "--emit-model", str(emitted)]) == 0
    assert emitted.read_text().rstrip().endswith("} # trailing comment")
    capsys.readouterr()
    assert main(["check", str(emitted), "--property", "NoHigh"]) == 0
    assert capsys.readouterr().out == "Safe\n"


@pytest.mark.parametrize("name", ["Navigate", "NoConsecutiveSharpTurns", "sync", "true",
                                  "9x", "a b", "", "Fix;", " Fix", "Fix#"])
def test_repair_rejects_a_name_the_model_cannot_take(tmp_path, capsys, name):
    out, emitted = tmp_path / "patch.sbm", tmp_path / "patched.sbm"
    code = main(["repair", str(FIXTURE), "--property", "NoConsecutiveSharpTurns", "--name", name,
                 "--out", str(out), "--emit-model", str(emitted)])
    assert code == 2
    assert f"--name {name!r} cannot name a new object" in capsys.readouterr().err
    assert not out.exists() and not emitted.exists()


def test_re_repairing_an_emitted_model_needs_a_fresh_name(tmp_path, capsys):
    first, second = tmp_path / "first.sbm", tmp_path / "second.sbm"
    argv = ["repair", str(FIXTURE), "--property", "NoConsecutiveSharpTurns", "--out", "-"]
    assert main(argv + ["--emit-model", str(first)]) == 0
    argv[1] = str(first)
    assert main(argv + ["--emit-model", str(second)]) == 2  # the default Patch is taken
    assert "--name 'Patch' cannot name a new object" in capsys.readouterr().err
    assert main(argv + ["--name", "Patch2", "--emit-model", str(second)]) == 0
    assert main(["validate", str(second)]) == 0
    assert "ok: 6 objects" in capsys.readouterr().out


def test_composite_of_a_model_without_objects_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "empty.sbm"
    src.write_text("model { vars x; }")
    assert main(["validate", str(src)]) == 0
    assert main(["graph", str(src), "--composite"]) == 2
    assert capsys.readouterr().err == "error: model has no objects to compose\n"


@pytest.mark.parametrize("shape", ["parens", "nots", "ifs", "loops", "else_if"])
def test_nesting_at_the_cap_runs(tmp_path, shape):
    from conftest import nested_bodies

    src = tmp_path / "deep.sbm"
    src.write_text(f"model {{ vars v, h; object T {{ {nested_bodies(MAX_NESTING)[shape]} }} }}")
    assert main(["validate", str(src)]) == 0
    assert main(["graph", str(src), "--object", "T", "--simplify"]) == 0


def test_parser_caps_are_usage_errors(tmp_path, capsys):
    deep = tmp_path / "deep.sbm"
    deep.write_text(f"model {{ vars v; object A {{ sync(request = {'(' * 2000}v >= 1{')' * 2000}); }} }}")
    assert main(["validate", str(deep)]) == 2
    assert "nesting deeper than" in capsys.readouterr().err
    wide = tmp_path / "wide.sbm"
    wide.write_text("model { vars v; object A { repeat 1000 { repeat 1000 { sync(); } } } }")
    assert main(["validate", str(wide)]) == 2
    assert "statements after unrolling" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "repeat N { sync(); }",
    "sync(request = v >= N);",
    "sync(request = N*v >= 1);",
    "sync(request = v >= 1/N);",
], ids=["repeat", "constant", "coefficient", "denominator"])
def test_oversized_number_literal_is_a_usage_error(tmp_path, capsys, body):
    big = "7" * 5000  # past the 4,300 digits that int() converts from text
    text = f"model {{ vars v; object A {{ {body.replace('N', big)} }} }}"
    model = tmp_path / "big.sbm"
    model.write_text(text)
    assert main(["validate", str(model)]) == 2
    col = text.index(big) + 1
    assert f"line 1, col {col}: number literal of 5000 digits is too long" in capsys.readouterr().err


def test_overlong_normalized_constant_is_a_usage_error(tmp_path, capsys):
    big = "7" * 3000  # each literal converts, but normalizing gives big * big
    text = f"model {{ vars v; object A {{ sync(request = 1/{big}*v >= {big}); }} }}"
    model = tmp_path / "big.sbm"
    model.write_text(text)
    for argv in (["validate", str(model)], ["graph", str(model), "--object", "A"]):
        assert main(argv) == 2
        col = text.index("1/") + 1
        assert f"line 1, col {col}: comparison normalizes to a number too long to print" \
            in capsys.readouterr().err


def test_witness_past_the_str_digit_limit_prints_exactly(tmp_path, capsys):
    # every literal and every normalized atom fits under the 4,300-digit
    # limit, but the witness multiplies them: z = N/D^2 has 4,999 digits below
    n, d = "7" * 2500, "1" + "0" * 2499
    obj = f"object A {{ sync(request = y == {n} && x == 1/{d}*y && z == 1/{d}*x); }}"
    expected = {"x": f"{n}/{d}", "y": n, "z": f"{n}/{d}{'0' * 2499}"}
    model = tmp_path / "chain.sbm"
    model.write_text(f"model {{ vars x, y, z; {obj} }}")
    log = tmp_path / "log.jsonl"
    assert main(["run", str(model), "--steps", "2", "--log", str(log)]) == 0
    assert json.loads(log.read_text().splitlines()[0])["assignment"] == expected

    model.write_text(f"model {{ vars x, y, z; {obj} object P {{ sync(waitfor = true); sync(); mark bad; }} }}")
    trace = tmp_path / "cex.jsonl"
    assert main(["check", str(model), "--property", "P", "--trace", str(trace)]) == 1
    assert f"{{x={expected['x']}, y={n}, z={expected['z']}}}" in capsys.readouterr().out
    assert json.loads(trace.read_text().splitlines()[0])["assignment"] == expected


def test_unknown_object_name(capsys):
    assert main(["graph", str(FIXTURE), "--object", "Nope"]) == 2
    assert capsys.readouterr().err == "error: model has no object named 'Nope'\n"


def test_object_past_the_cell_budget_is_a_usage_error(capsys, tmp_path):
    names = [f"v{i}" for i in range(13)]
    model = tmp_path / "wide.sbm"
    model.write_text(f"model {{ vars {', '.join(names)}; object T {{ sync(request = "
                     f"{' || '.join(f'{v} >= 1' for v in names)}); }} }}")
    assert main(["graph", str(model), "--object", "T"]) == 2
    assert "over the budget of 4096" in capsys.readouterr().err


def test_bad_run_setting(capsys):
    assert main(["run", str(FIXTURE), "--steps", "0"]) == 2
    assert "max_steps" in capsys.readouterr().err


def test_internal_failure_is_not_a_usage_error(monkeypatch, capsys):
    from sbmod.formulas import DomainMismatchError

    def broken(model, prop):
        raise DomainMismatchError("assignment missing variable 'z'")

    monkeypatch.setattr("sbmod.verify.check_safety", broken)
    assert main(["check", str(FIXTURE), "--property", "NoConsecutiveSharpTurns"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_unsound_repair_is_an_internal_error(monkeypatch, capsys, tmp_path):
    from sbmod.verify import RepairUnsoundError, Report

    def unsound(model, patch, prop, composite):
        raise RepairUnsoundError("repair is unsound: run containment: FAIL", Report(containment_ok=False))

    monkeypatch.setattr("sbmod.verify.verify_patch", unsound)
    argv = ["repair", str(FIXTURE), "--property", "NoConsecutiveSharpTurns", "--verify",
            "--out", str(tmp_path / "patch.sbm")]
    assert main(argv) == 3
    assert "internal error: repair is unsound" in capsys.readouterr().err
