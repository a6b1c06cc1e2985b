"""Direct execution of models: solver-backed event selection, step by step.

Each step gathers the request and block declarations of every object at its
current synchronization point, asks the solver for an assignment satisfying
``(or of requests) and not (or of blocks)``, broadcasts it, and advances the
objects it wakes. No composite graph is built; this is the run-time twin of
the graph-based analyses, and the two agree path-for-path. A run revisits
few state tuples, so it works out a state tuple's selection once, on the
tuple's first visit, and the event and move of each (state tuple, drawn
cell) once; the seeded draw itself runs on every step.

Two selection policies:

* ``first-model``: the solver's deterministic model every time. Stable, but
  replays a single run.
* ``random-cell``: list the satisfiable sign cells over the atoms of the
  current declarations by their masks (``cells.satisfiable_masks``), keep
  those on which the selection formula holds (``cells.holding_masks``),
  and draw one uniformly with the seeded generator; the solver's witness
  of the drawn cell, and of no other, is the event. The selection formula
  is constant on each cell, so this is exact. Runs vary across seeds but
  stay reproducible, and coverage spreads across qualitatively different
  behaviors instead of hugging one boundary. Past the cell budget, where
  ``cells`` lists none, the policy falls back to the solver's model.
"""

from __future__ import annotations

import json
import random

from . import solver
from .cells import holding_masks, satisfiable_masks, witness
from .dsl import (
    END_LOCATION,
    FIRST_MODEL,
    POLICIES,
    RANDOM_CELL,
    Model,
    ScenarioScript,
    initial_state,
    pending,
    resume,
)
from .formulas import (
    Assignment,
    Formula,
    LinearAtom,
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


# the solver's model, restricted to the model's variables (None on deadlock),
# and the atoms of the selection formula with the masks of the cells inside
# it (None when the policy draws no cell)
_Selection = tuple[Assignment | None, tuple[list[LinearAtom], list[int]] | None]


def _selection(declarations: list[tuple[Formula, Formula]], vars: VarSet, policy: str) -> _Selection:
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
    masks = satisfiable_masks(atoms, vars) if atoms else None
    if masks is None:
        return model, None
    return model, (atoms, holding_masks(base, atoms, masks))


def _draw(selection: _Selection, rng: random.Random | None) -> int:
    """The draw rule: the index of a cell drawn uniformly from the
    selection's cells, or -1 for the solver's model."""
    inside = selection[1]
    return -1 if inside is None or rng is None else rng.randrange(len(inside[1]))


def _event(selection: _Selection, i: int, vars: VarSet) -> Assignment | None:
    """The solver's model for ``i < 0``, else the witness of the drawn cell."""
    first, inside = selection
    if i < 0:
        return first
    atoms, masks = inside
    return witness(atoms, masks[i], vars).restricted_to(vars)


def select_event(
    declarations: list[tuple[Formula, Formula]],
    vars: VarSet,
    policy: str = FIRST_MODEL,
    rng: random.Random | None = None,
) -> Assignment | None:
    """Pick an assignment requested by some object and blocked by none.

    Returns None on deadlock (no such assignment exists).
    """
    selection = _selection(declarations, vars, policy)
    return _event(selection, _draw(selection, rng), vars)


_ObjState = int | str  # a script's sync uid or END_LOCATION, or a graph's state
# the next state tuple, the names of the objects woken, whether every script has ended
_Move = tuple[tuple[_ObjState, ...], tuple[str, ...], bool]


# An ``item`` below is a model object: a ScenarioScript, or else an
# ObjectGraph, which is told apart without executing ``graphs``.
def _object_state(item) -> _ObjState:
    if isinstance(item, ScenarioScript):
        return initial_state(item)
    return item.initial


def _declaration(item, state: _ObjState) -> tuple[Formula, Formula]:
    if isinstance(item, ScenarioScript):
        sync, _ = pending(item, state)
        return sync.request, sync.block
    return item.request[state], item.block[state]


def _wake_condition(item, state: _ObjState) -> Formula:
    if isinstance(item, ScenarioScript):
        return pending(item, state)[1]
    return item.wake(state)


def _advance(item, state: _ObjState, a: Assignment) -> _ObjState:
    """The state after an object woken by ``a`` moves."""
    if isinstance(item, ScenarioScript):
        return resume(item, state, a)
    return item.move(state, a)


def _move(m: Model, states: tuple[_ObjState, ...], a: Assignment) -> _Move:
    """Where ``a`` takes the objects at ``states``."""
    nxt = list(states)
    woke = []
    for i, (named, state) in enumerate(zip(m.objects, states)):
        if evaluate(_wake_condition(named.item, state), a):
            woke.append(named.name)
            nxt[i] = _advance(named.item, state, a)
    ended = all(isinstance(o.item, ScenarioScript) and s == END_LOCATION for o, s in zip(m.objects, nxt))
    return tuple(nxt), tuple(woke), ended


def run(m: Model, cfg: ExecutionConfig) -> EventLog:
    """Execute a model: reproducible given (model, config)."""
    rng = random.Random(cfg.seed)
    states = tuple(_object_state(o.item) for o in m.objects)
    selections: dict[tuple[_ObjState, ...], _Selection] = {}
    # the event and its move, per (state tuple, drawn index)
    steps: dict[tuple[tuple[_ObjState, ...], int], tuple[Assignment, _Move]] = {}
    log = EventLog()
    for step in range(1, cfg.max_steps + 1):
        selection = selections.get(states)
        if selection is None:
            declarations = [_declaration(o.item, s) for o, s in zip(m.objects, states)]
            selection = selections[states] = _selection(declarations, m.vars, cfg.policy)
        i = _draw(selection, rng)
        memo = steps.get((states, i))
        if memo is None:
            a = _event(selection, i, m.vars)
            if a is None:
                log.stop_reason = "deadlock"
                return log
            memo = steps[states, i] = a, _move(m, states, a)
        a, (states, woke, ended) = memo
        log.entries.append(LogEntry(step, a, woke))
        if ended:
            log.stop_reason = "ended"
            return log
    return log
