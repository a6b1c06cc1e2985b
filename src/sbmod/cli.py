"""Command-line front end.

Subcommands: validate, run, graph, check, repair. Exit codes: 0 for success
(or a Safe verdict), 1 when a violation is found or the model is
unrepairable (including a patch that cannot be written as a scenario
script), 2 for usage errors (unreadable files, parse errors, unknown or
unusable object names, over-large or invalid objects, properties and
models, bad run settings), 3 for internal errors.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from functools import partial

# engine, extract, graphs and verify are deferred (see the package docstring)
from . import engine, extract, graphs, verify
from .dsl import (
    FIRST_MODEL,
    POLICIES,
    EmissionError,
    ExtractionError,
    Model,
    ParseError,
    UnknownObjectError,
    insert_object,
    is_identifier,
    parse_model,
)
from .formulas import fraction_text, to_infix

OK, VIOLATION, USAGE, INTERNAL = 0, 1, 2, 3


class UsageError(ValueError):
    """A command-line argument the model cannot take."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_model(path: str) -> Model:
    return parse_model(_read(path))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.path)
    print(f"ok: {len(model.objects)} objects over vars {', '.join(model.vars.names)}")
    return OK


def cmd_run(args: argparse.Namespace) -> int:
    model = _load_model(args.path)
    cfg = engine.ExecutionConfig(max_steps=args.steps, seed=args.seed, policy=args.policy)
    log = engine.run(model, cfg)
    _write(args.log, log.to_jsonl())
    print(f"{len(log.entries)} steps, stopped by {log.stop_reason}", file=sys.stderr)
    return OK


def _pick_graph(model: Model, args: argparse.Namespace) -> tuple[str, graphs.ObjectGraph]:
    if args.composite:
        from .compose import compose_all  # sbmod.compose is the function

        if not model.objects:
            raise UsageError("model has no objects to compose")
        return "composite", compose_all(model, simplify=args.simplify)
    return args.object, extract.object_graph(model.get(args.object), model.vars, args.simplify)


def cmd_graph(args: argparse.Namespace) -> int:
    model = _load_model(args.path)
    name, g = _pick_graph(model, args)
    if args.format == "json":
        import json  # only the JSON writers pay for it

        _write(args.out, json.dumps(graphs.to_json_dict(g), indent=2, sort_keys=True) + "\n")
    else:
        _write(args.out, graphs.to_dot(g, name))
    return OK


def _trace_jsonl(result: verify.Counterexample) -> str:
    import json

    lines = []
    for i, step in enumerate(result.trace.steps, start=1):
        lines.append(json.dumps({
            "step": i,
            "state": step.state,
            "assignment": {v: fraction_text(step.assignment.values[v]) for v in sorted(step.assignment.values)},
        }, sort_keys=True))
    lines.append(json.dumps({"verdict": result.trace.verdict, "state": result.trace.end_state}, sort_keys=True))
    return "\n".join(lines) + "\n"


def cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args.path)
    prop = model.get(args.property)
    result = verify.check_safety(model.without(args.property), prop)
    if isinstance(result, verify.Safe):
        print("Safe")
        return OK
    print(f"Violation: bad state {result.trace.end_state} reachable "
          f"in {len(result.trace.steps)} steps")
    for i, step in enumerate(result.trace.steps, start=1):
        print(f"  step {i} at {step.state}: {step.assignment}")
    if args.trace:
        _write(args.trace, _trace_jsonl(result))
    return VIOLATION


def cmd_repair(args: argparse.Namespace) -> int:
    source = _read(args.path)  # the emitted model is built from the text that was parsed
    model = parse_model(source)
    if not is_identifier(args.name) or args.name in model.names():
        raise UsageError(f"--name {args.name!r} cannot name a new object: give an identifier "
                         "that is neither a keyword nor the name of an object of the model")
    prop = model.get(args.property)
    base = model.without(args.property)
    patch, attractor, composite = verify.repair(base, prop, name=args.name)
    cuts = patch.cut_edges()
    if not attractor:
        print("model already satisfies the property; emitting an identity patch")
    else:
        marked = sorted(q for q in attractor if q in composite.bad)
        joined = sorted(attractor - set(marked))
        print(f"reachable bad states: {', '.join(marked)}")
        if joined:
            print(f"states doomed to reach them: {', '.join(joined)}")
        for q, f in cuts:
            print(f"cutting at {q}: blocking {to_infix(f)}")
    text = patch.to_script_text()
    # a patch that fails verification raises here, before anything is written
    report = verify.verify_patch(base, patch, prop, composite) if args.verify else None
    _write(args.out, text + "\n")
    if args.emit_model:
        _write(args.emit_model, insert_object(source, text))
    if report is not None:
        print(f"verification: {report.summary()}")
    return OK


def terminal_columns() -> int:
    """``shutil.get_terminal_size().columns``, without importing ``shutil``
    (and with it ``fnmatch``, ``zlib``, ``bz2`` and ``lzma``): ``COLUMNS``
    when it is a positive integer, else the width of the terminal on
    ``sys.__stdout__``, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):  # no stdout, or not a terminal
        return 80


def build_parser() -> argparse.ArgumentParser:
    # argparse's HelpFormatter reads the width that it is not given from
    # shutil, once per formatter, and a parser builds one per argument
    formatter = partial(argparse.HelpFormatter, width=terminal_columns() - 2)
    parser = argparse.ArgumentParser(prog="sbmod", description=__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, formatter_class=formatter))

    p = sub.add_parser("validate", help="parse a model and run static checks")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute a model with solver-selected events")
    p.add_argument("path")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=POLICIES, default=FIRST_MODEL)
    p.add_argument("--log", default=None, help="write the event log (JSONL) here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("graph", help="emit an object's (or the composite) transition graph")
    p.add_argument("path")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--object", help="object name")
    g.add_argument("--composite", action="store_true", help="compose all objects")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--simplify", action="store_true", help="merge and shrink edge guards")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("check", help="model-check a safety property object")
    p.add_argument("path")
    p.add_argument("--property", required=True, help="name of the property object")
    p.add_argument("--trace", default=None, help="write the counterexample (JSONL) here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repair", help="synthesize a blocking patch for a violated property")
    p.add_argument("path")
    p.add_argument("--property", required=True)
    p.add_argument("--out", default=None, help="write the patch object here")
    p.add_argument("--name", default="Patch", help="name for the synthesized object")
    p.add_argument("--emit-model", default=None, help="also write the whole patched model here")
    p.add_argument("--verify", action="store_true", help="check the repair-soundness clauses")
    p.set_defaults(func=cmd_repair)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one verb on ``argv``, by default the program's arguments, and
    return its exit code. Called as the program (no ``argv``), it also has
    the heap frozen at exit, once: the interpreter's teardown collections
    then walk none of the objects the verb built. Callers that pass
    ``argv`` keep running afterwards, and their heap is left as it is."""
    if argv is None:
        atexit.unregister(gc.freeze)
        atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ExtractionError, OSError, UnknownObjectError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    # reading these names executes their modules, so they come after the
    # errors of the modules that every verb executes
    except (verify.InvalidPropertyError, engine.ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except verify.UnrepairableError as err:
        print(f"unrepairable: {err}", file=sys.stderr)
        return VIOLATION
    except EmissionError as err:
        print(f"unrepairable: the patch cannot be written as a scenario script: {err}", file=sys.stderr)
        return VIOLATION
    except verify.RepairUnsoundError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return INTERNAL
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports everything
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
