"""The whole pipeline on seeded random models.

Each model goes through check, repair, verify_patch, emit_script,
insert_object, a re-parse and check again. Every patch that passes
verification and can be written as a script must give a patched model that
``check`` finds safe, and engine runs of that model must never lead the
property into a bad state. The patch object as written, extracted again from
the patched model, must pass verify_patch too. Patches that cannot be written
out are counted but not gated on.
"""

from __future__ import annotations

import random

import test_emit_random
from sbmod.dsl import (
    EmissionError,
    IfStmt,
    LoopStmt,
    SyncStmt,
    format_object,
    format_statements,
    insert_object,
    parse_model,
    render_model_text,
)
from sbmod.engine import RANDOM_CELL, ExecutionConfig, run
from sbmod.extract import object_graph
from sbmod.formulas import TRUE, atom, conj, disj
from sbmod.verify import Patch, Safe, UnrepairableError, check_safety, property_graph, repair, verify_patch

# two-variable atoms, mixed into 15 % of the generated formulas
MIXED = (atom({"h": 1, "v": 1}, "<=", 2), atom({"h": 1, "v": -1}, "<", 0))


def _mixed_formula(rng: random.Random, plain=test_emit_random.rand_formula):
    # ``plain`` is bound here, before the test makes this function the
    # generator's rand_formula, so the bodies' formulas are mixed too
    f = plain(rng)
    if rng.random() < 0.15:
        g = rng.choice(MIXED)
        return conj([f, g]) if rng.random() < 0.5 else disj([f, g])
    return f


def rand_model_text(rng: random.Random) -> str:
    """2-3 objects from the round-trip generator's bodies, most ending in a
    requesting loop, and a property that marks bad after 1-3 watched steps."""
    objects = []
    for i in range(rng.randint(2, 3)):
        body = test_emit_random.rand_body(rng, depth=1)
        if rng.random() < 0.7:
            body.append(LoopStmt([SyncStmt(request=_mixed_formula(rng), waitfor=TRUE)]))
        objects.append(format_object(f"O{i}", body))
    watch = [SyncStmt(waitfor=_mixed_formula(rng)) for _ in range(rng.randint(1, 3))]
    objects.append(format_object("P", watch + [SyncStmt(bad=True)]))
    return render_model_text(["v", "h"], objects)


def _same_arm_ifs(stmts: list) -> list[str]:
    """The conditions of the ifs in ``stmts`` whose two arms print alike."""
    found: list[str] = []
    for st in stmts:
        if isinstance(st, IfStmt):
            if format_statements(st.then) == format_statements(st.orelse):
                found.append(str(st.cond))
            found += _same_arm_ifs(st.then) + _same_arm_ifs(st.orelse)
        elif isinstance(st, LoopStmt):
            found += _same_arm_ifs(st.body)
    return found


def _assert_shipped_patch_verifies(text, patch_text, base, prop, composite):
    """The patched model. Its patch object, extracted again from the text,
    passes verify_patch's three clauses, and no if in it has identical arms."""
    patched = parse_model(insert_object(text, patch_text))
    script = patched.get("Patch")
    assert not _same_arm_ifs(script.body), f"an if with identical arms:\n{patch_text}"
    verify_patch(base, Patch(object_graph(script, patched.vars)), prop, composite)
    return patched


def test_shipped_ring_patch_verifies(workloads):
    # the ring's tracker structures into ifs whose arms are the same text,
    # nested in each arm; written out whole, the text doubles with every two
    # more stations
    text = workloads.ring_text(12)
    model = parse_model(text)
    base, prop = model.without("AllMarked"), model.get("AllMarked")
    patch, attractor, composite = repair(base, prop)
    assert attractor
    patch_text = patch.to_script_text()
    patched = _assert_shipped_patch_verifies(text, patch_text, base, prop, composite)
    assert isinstance(check_safety(patched.without("AllMarked"), prop), Safe)


def test_verified_emitted_patches_are_safe(monkeypatch):
    monkeypatch.setattr(test_emit_random, "rand_formula", _mixed_formula)
    rng = random.Random(4242)
    violated = emitted = 0
    for _ in range(100):
        text = rand_model_text(rng)
        model = parse_model(text)
        base, prop = model.without("P"), model.get("P")
        try:
            patch, attractor, composite = repair(base, prop)
        except UnrepairableError:
            continue
        if not attractor:
            continue  # safe already: the identity patch ships nothing new
        violated += 1
        try:
            patch_text = patch.to_script_text()
        except EmissionError:
            continue
        verify_patch(base, patch, prop, composite)  # raises when a clause fails
        emitted += 1
        patched = _assert_shipped_patch_verifies(text, patch_text, base, prop, composite)
        shipped = patched.without("P")
        verdict = check_safety(shipped, patched.get("P"))
        assert isinstance(verdict, Safe), f"verified patch ships an unsafe model:\n{text}\n{patch_text}"
        g = property_graph(prop, model.vars)
        for seed in range(3):
            q = g.initial
            for entry in run(shipped, ExecutionConfig(max_steps=25, seed=seed, policy=RANDOM_CELL)).entries:
                q = g.move(q, entry.assignment)
                assert q not in g.bad, f"seed {seed} reaches {q} at step {entry.step}:\n{text}\n{patch_text}"
    # the emission rate is reported, not gated: some verified patches cannot
    # be written as a script yet
    assert emitted > 0, f"{emitted} of {violated} repairable violated models emitted a patch"
