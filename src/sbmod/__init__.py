"""Scenario-based models with real-valued events.

Models are collections of scenario objects that synchronize by declaring
request/waitfor/block formulas over real variables; an exact QF-LRA solver
selects each triggered assignment. The package executes such models, extracts
the objects' underlying transition graphs, composes them, model-checks safety
properties, and synthesizes blocking patch objects that repair violations.

Importing the package executes none of its modules. Every submodule but
``cli`` is registered lazily in ``sys.modules`` and runs when one of its
attributes is first read; the public names below are served from their
modules on first use. So a CLI verb executes only the modules it runs.

Inside the package, ``from . import x`` binds the lazy module and defers
``x`` until ``x.name`` is read, while ``from .x import y`` (like
``import sbmod.x``) executes ``x`` at once. Modules use the second form
except where a verb may not need the module; this list is the whole of that
decision:

- ``cli`` defers ``engine``, ``extract``, ``graphs`` and ``verify``. It
  imports ``compose`` inside ``_pick_graph``'s composite branch, because
  ``sbmod.compose`` is the function ``compose.compose``, not the module. The
  script walk lives in ``dsl``, so ``run`` executes neither ``extract`` nor
  ``minimize``; the model types and the run policy names live there too, so
  ``validate`` and ``run`` execute no ``graphs``.
- ``dsl`` defers ``emit``, the graph -> script structurer, which only
  ``emit_script`` needs and so only ``repair`` executes, and ``solver``,
  which only the symbolic walk (``symbolic_paths``) needs. It names
  ``graphs`` in an annotation only.
- ``extract`` defers ``minimize``, which only simplified graphs need, so
  ``graph --object`` without ``--simplify`` executes neither ``compose`` nor
  ``minimize``.
- ``solver`` defers ``simplex``, the general simplex, which only a
  conjunction with an atom over two or more variables needs: a model whose
  atoms each have one variable never executes it.
- ``runsets`` is executed by no verb: ``verify`` reads the run-set clause
  off the patched run graph. It stays registered because the tests decode
  runs with it and the benchmark's tracer reads it from ``sys.modules``.
- The run policy names live in ``dsl``, so that building the CLI's parser
  does not execute ``engine``.

``tests/test_values.py`` checks the modules each verb executes.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"

# the public names, by the module that defines them
_API = {
    "formulas": (
        "Assignment", "Formula", "LinearAtom", "VarSet", "atom", "canonicalize", "conj",
        "disj", "evaluate", "negate", "to_infix", "to_sexpr", "var_atom",
    ),
    "solver": ("check_sat", "entails", "equivalent", "satisfiable"),
    "graphs": ("DiscreteObject", "ObjectGraph", "Trace", "encode_discrete", "to_dot", "to_json_dict"),
    "dsl": (
        "Model", "NamedObject", "ParseError", "ScenarioScript", "emit_script", "initial_state",
        "parse_model", "step_script",
    ),
    "extract": ("ExtractStats", "extract_graph", "simplify_graph"),
    "compose": ("compose", "compose_all", "enabled_guard"),
    "verify": (
        "Counterexample", "Patch", "Report", "Safe", "check_safety", "compute_bad_attractor",
        "find_deadlocks", "repair", "synthesize_patch", "verify_patch",
    ),
    "engine": ("EventLog", "ExecutionConfig", "run", "select_event"),
}
_HOME = {name: module for module, names in _API.items() for name in names}

__all__ = list(_HOME)


def _register_lazily(name: str) -> ModuleType:
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# cli is left out: ``python -m sbmod.cli`` warns when its module is already in
# sys.modules
for _name in ("cells", "compose", "dsl", "emit", "engine", "extract", "formulas", "graphs",
              "minimize", "runsets", "simplex", "solver", "verify"):
    _module = _register_lazily(_name)
    if _name not in _HOME:  # sbmod.compose stays the function
        globals()[_name] = _module
del _name, _module


def __getattr__(name: str) -> object:
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules[f"{__name__}.{home}"], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
