"""Direct execution of models: solver-backed event selection, step by step.

Each step gathers the request and block declarations of every object at its
current synchronization point, asks the solver for an assignment satisfying
``(or of requests) and not (or of blocks)``, broadcasts it, and advances the
objects it wakes. No composite graph is built; this is the run-time twin of
the graph-based analyses, and the two agree path-for-path. What a selection
needs besides the random draw is worked out once per declaration tuple and
remembered, since runs revisit the same synchronization points.

Two selection policies:

* ``first-model``: the solver's deterministic model every time. Stable, but
  replays a single run.
* ``random-cell``: list the satisfiable sign cells over the atoms of the
  current declarations (``cells.satisfiable_cells``), keep those whose
  witness is requested and not blocked, and pick one uniformly with the
  seeded generator; its witness is the event. The selection formula is
  constant on each cell, so this is exact. Runs vary across seeds but stay
  reproducible, and coverage spreads across qualitatively different
  behaviors instead of hugging one boundary. When the atoms may have more
  than ``cells.MAX_CELLS`` cells, the policy falls back to the solver's model.
"""

from __future__ import annotations

import json
import random

from . import solver
from .cells import MAX_CELLS, cell_bound, satisfiable_cells
from .dsl import ScenarioScript
from .extract import END_LOCATION, initial_state, pending, resume
from .formulas import (
    Assignment,
    Formula,
    VarSet,
    _read_only,
    _set,
    atoms_of,
    conj,
    disj,
    evaluate,
    fraction_text,
    negate,
    polarity_classes,
)
from .graphs import FIRST_MODEL, POLICIES, RANDOM_CELL, Model, ObjectGraph


class ConfigError(ValueError):
    """An execution setting is out of range."""


class ExecutionConfig:
    __slots__ = ("max_steps", "seed", "policy")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, max_steps: int, seed: int = 0, policy: str = FIRST_MODEL) -> None:
        if max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")
        _set(self, "max_steps", max_steps)
        _set(self, "seed", seed)
        _set(self, "policy", policy)


class LogEntry:
    __slots__ = ("step", "assignment", "woke")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, step: int, assignment: Assignment, woke: tuple[str, ...]) -> None:
        _set(self, "step", step)
        _set(self, "assignment", assignment)
        _set(self, "woke", woke)


class EventLog:
    __slots__ = ("entries", "stop_reason")

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self.stop_reason = "max-steps"  # "max-steps" | "deadlock" | "ended"

    def to_jsonl(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(json.dumps({
                "step": e.step,
                "assignment": {v: fraction_text(e.assignment.values[v]) for v in sorted(e.assignment.values)},
                "woke": list(e.woke),
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


# per (declarations, variable names, policy): the solver's model, restricted to
# the variables, and the witnesses of the cells inside the selection formula
# (None when the policy does not draw one); kept by solver.remember
_selections: dict[tuple, tuple[Assignment | None, list[Assignment] | None]] = {}


def _selection(declarations: list[tuple[Formula, Formula]], vars: VarSet,
               policy: str) -> tuple[Assignment | None, list[Assignment] | None]:
    requests = disj([r for r, _ in declarations])
    blocks = disj([b for _, b in declarations])
    base = conj([requests, negate(blocks)])
    first = solver.check_sat(base, vars)
    if first is None:
        return None, None
    model = first.restricted_to(vars)
    if policy == FIRST_MODEL:
        return model, None
    atoms = polarity_classes(atoms_of(base))
    if not atoms or cell_bound(atoms) > MAX_CELLS:
        return model, None
    return model, [w.restricted_to(vars) for _, w in satisfiable_cells(atoms, vars) if evaluate(base, w)]


def select_event(
    declarations: list[tuple[Formula, Formula]],
    vars: VarSet,
    policy: str = FIRST_MODEL,
    rng: random.Random | None = None,
) -> Assignment | None:
    """Pick an assignment requested by some object and blocked by none.

    Returns None on deadlock (no such assignment exists).
    """
    key = (tuple(declarations), vars.names, policy)
    first, inside = solver.remember(_selections, key, lambda: _selection(declarations, vars, policy))
    if inside is None or rng is None:
        return first
    return inside[rng.randrange(len(inside))]


_ObjState = int | str  # a script's sync uid or END_LOCATION, or a graph's state


def _object_state(item: ScenarioScript | ObjectGraph) -> _ObjState:
    if isinstance(item, ScenarioScript):
        return initial_state(item)
    return item.initial


def _declaration(item, state: _ObjState) -> tuple[Formula, Formula]:
    if isinstance(item, ObjectGraph):
        return item.request[state], item.block[state]
    sync, _ = pending(item, state)
    return sync.request, sync.block


def _wake_condition(item, state: _ObjState) -> Formula:
    if isinstance(item, ObjectGraph):
        return item.wake(state)
    return pending(item, state)[1]


def _advance(item, state: _ObjState, a: Assignment) -> _ObjState:
    """The state after an object woken by ``a`` moves."""
    if isinstance(item, ObjectGraph):
        return item.move(state, a)
    return resume(item, state, a)


def run(m: Model, cfg: ExecutionConfig) -> EventLog:
    """Execute a model: reproducible given (model, config)."""
    rng = random.Random(cfg.seed)
    states: list[_ObjState] = [_object_state(o.item) for o in m.objects]
    log = EventLog()
    for step in range(1, cfg.max_steps + 1):
        declarations = [_declaration(o.item, s) for o, s in zip(m.objects, states)]
        a = select_event(declarations, m.vars, cfg.policy, rng)
        if a is None:
            log.stop_reason = "deadlock"
            return log
        woke = []
        for i, (named, state) in enumerate(zip(m.objects, states)):
            if evaluate(_wake_condition(named.item, state), a):
                woke.append(named.name)
                states[i] = _advance(named.item, state, a)
        log.entries.append(LogEntry(step, a, tuple(woke)))
        if all(isinstance(o.item, ScenarioScript) and s == END_LOCATION for o, s in zip(m.objects, states)):
            log.stop_reason = "ended"
            return log
    return log
