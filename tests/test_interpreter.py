"""The compiled interpreter against the per-call reference walk.

``step_script`` reads the wake conditions and continuation frames that
``ScenarioScript`` records once, when the script is built;
``oracles.ref_step_script`` rebuilds both on every call. Random scripts from
the round-trip generator of ``test_emit_random``, with ``repeat`` and ``loop``
blocks added around its bodies, are driven through both with random
assignments, and the two must be at the same location after every step.
"""

from __future__ import annotations

import random

from sbmod.dsl import format_statements, parse_model, render_model_text
from sbmod.dsl import initial_state, step_script
from sbmod.formulas import Assignment

from oracles import REF_END, ref_initial_location, ref_step_script
from test_emit_random import rand_body, rand_script_text


def _block(keyword: str, body: list) -> list[str]:
    return [f"  {keyword} {{", *format_statements(body, 2), "  }"]


def rand_source(rng: random.Random) -> str:
    """A script of the round-trip generator, or one built from its bodies:
    straight code (nested if/else), then maybe a ``repeat``, then maybe a
    ``loop``, which may itself sit in an if arm. Without a loop it finishes."""
    if rng.random() < 0.25:
        return rand_script_text(rng)
    lines = format_statements(rand_body(rng, 2), 1)
    if rng.random() < 0.5:
        lines += _block(f"repeat {rng.randint(2, 3)}", rand_body(rng, 1))
    if rng.random() < 0.7:
        loop = _block("loop", rand_body(rng, 2))
        if rng.random() < 0.3:
            loop = ["  if (v >= 0) {", *("  " + line for line in loop), "  }"]
        lines += loop
    return render_model_text(["v", "h"], ["object T {\n" + "\n".join(lines) + "\n}"])


def test_compiled_steps_match_the_reference_walk():
    rng = random.Random(9)
    seen = {"loop": 0, "repeat": 0, "else": 0, "finished": 0, "looped": 0}
    for _ in range(150):
        text = rand_source(rng)
        script = parse_model(text).get("T")
        for word in ("loop", "repeat", "else"):
            seen[word] += word in text
        state, ref = initial_state(script), ref_initial_location(script)
        assert state == ref
        visited, looped = {ref}, False
        for step in range(40):
            a = Assignment.make({"v": rng.randint(-1, 3), "h": rng.randint(-1, 3)})
            state, nxt = step_script(script, state, a), ref_step_script(script, ref, a)
            assert state == nxt, f"step {step + 1} on {a}:\n{text}"
            looped |= nxt != ref and nxt in visited
            visited.add(nxt)
            ref = nxt
        seen["finished"] += ref == REF_END
        seen["looped"] += looped
    # the generator has to exercise every kind of frame for the test to mean much
    assert all(n >= 20 for n in seen.values()), seen
