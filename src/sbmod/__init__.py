"""Scenario-based models with real-valued events.

Models are collections of scenario objects that synchronize by declaring
request/waitfor/block formulas over real variables; an exact QF-LRA solver
selects each triggered assignment. The package executes such models, extracts
the objects' underlying transition graphs, composes them, model-checks safety
properties, and synthesizes blocking patch objects that repair violations.
"""

from .formulas import (
    Assignment,
    Formula,
    LinearAtom,
    VarSet,
    atom,
    canonicalize,
    conj,
    disj,
    evaluate,
    negate,
    to_infix,
    to_sexpr,
    var_atom,
)
from .solver import check_sat, entails, equivalent, satisfiable
from .graphs import DiscreteObject, Model, NamedObject, ObjectGraph, Trace, encode_discrete, to_dot, to_json_dict
from .dsl import ParseError, PredicateSet, ScenarioScript, collect_predicates, emit_script, parse_model
from .extract import ExtractStats, ScriptState, extract_graph, initial_state, simplify_graph, step_script
from .compose import compose, compose_all, enabled_guard
from .verify import (
    Counterexample,
    Patch,
    Report,
    Safe,
    check_safety,
    compute_bad_attractor,
    find_deadlocks,
    repair,
    synthesize_patch,
    verify_patch,
)
from .engine import EventLog, ExecutionConfig, run, select_event

__version__ = "0.1.0"

__all__ = [
    "Assignment", "Formula", "LinearAtom", "VarSet", "atom", "canonicalize", "conj",
    "disj", "evaluate", "negate", "to_infix", "to_sexpr", "var_atom",
    "check_sat", "entails", "equivalent", "satisfiable",
    "DiscreteObject", "Model", "NamedObject", "ObjectGraph", "Trace", "encode_discrete",
    "to_dot", "to_json_dict",
    "ParseError", "PredicateSet", "ScenarioScript", "collect_predicates", "emit_script",
    "parse_model",
    "ExtractStats", "ScriptState", "extract_graph", "initial_state", "simplify_graph",
    "step_script",
    "compose", "compose_all", "enabled_guard",
    "Counterexample", "Patch", "Report", "Safe", "check_safety", "compute_bad_attractor",
    "find_deadlocks", "repair", "synthesize_patch", "verify_patch",
    "EventLog", "ExecutionConfig", "run", "select_event",
]
