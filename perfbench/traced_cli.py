"""Run one ``sbmod`` CLI verb with spans recorded around each layer's calls.

Usage: python3 perfbench/traced_cli.py SUMMARY_JSON SPANS_TXT -- VERB ARGS...

The wrappers are installed from outside the program: after importing the
package, every module attribute that is bound to a traced function is
replaced by a timing wrapper, so ``from .compose import compose_all`` in
``verify`` and ``cli`` is covered as well as ``compose.compose_all`` itself.
Spans (name, start, end, parent) are kept in memory and written once the verb
has returned; a small summary with per-function totals and layer counts is
written beside them for run.py.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path) of every traced function
TARGETS = (
    ("dsl", "parse_model"),
    ("extract", "extract_graph"),
    ("extract", "simplify_graph"),
    ("minimize", "boolean_minimize"),
    ("compose", "compose"),
    ("compose", "compose_all"),
    ("verify", "check_safety"),
    ("verify", "repair"),
    ("verify", "find_deadlocks"),
    ("verify", "compute_bad_attractor"),
    ("verify", "synthesize_patch"),
    ("verify", "verify_patch"),
    ("runsets", "CellRuns.build"),
    ("engine", "run"),
    ("engine", "select_event"),
    ("solver", "check_sat"),
    ("solver", "equivalent"),
    ("formulas", "canonicalize"),
    # output rendering, so that no blocking step of a verb goes unmeasured
    ("graphs", "to_json_dict"),
    ("dsl", "emit_script"),
)

COUNT_NAMES = (
    "extract.cells", "extract.sat_cells", "compose.product_states", "compose.product_edges",
    "solver.calls", "solver.distinct_queries", "runsets.cells", "verify.attractor_states",
    "verify.patch_states", "engine.steps", "engine.queries",
)


class Tracer:
    """Span recorder on a clock that excludes the tracer's own bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.paused = 0.0
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.seen_queries: set = set()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def wrap(self, name: str, fn, pre=None, post=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, self.now

        def traced(*args, **kwargs):
            if pre is not None:
                p0 = time.perf_counter()
                pre(args, kwargs)
                self.paused += time.perf_counter() - p0
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent)
            if post is not None:
                p0 = time.perf_counter()
                post(args, kwargs, result)
                self.paused += time.perf_counter() - p0
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """calls, self time and outermost total time per traced function."""
        n = len(self.spans)
        child_time = [0.0] * n
        for idx, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        per: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        covered = 0.0
        for sid, (idx, t0, t1, parent) in enumerate(self.spans):
            entry = per[self.names[idx]]
            entry[0] += 1
            entry[1] += (t1 - t0) - child_time[sid]
            outermost = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == idx:
                    outermost = False
                    break
                p = self.spans[p][3]
            if outermost:
                entry[2] += t1 - t0
            if parent < 0:
                covered += t1 - t0
        return {"functions": per, "covered_s": covered, "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    import sbmod  # noqa: F401
    import sbmod.cli  # noqa: F401
    from sbmod import extract, formulas

    canonical, key_of = formulas.canonicalize, formulas.formula_key
    counts = tracer.counts
    stats_type = getattr(extract, "ExtractStats", None)

    def sat_pre(args, kwargs):
        f = args[0] if args else kwargs["f"]
        vars = args[1] if len(args) > 1 else kwargs["vars"]
        key = (key_of(canonical(f)), tuple(vars.names))
        counts["solver.calls"] += 1
        if key not in tracer.seen_queries:
            tracer.seen_queries.add(key)
            counts["solver.distinct_queries"] += 1

    def extract_pre(args, kwargs):
        if stats_type is not None and len(args) < 3 and kwargs.get("stats") is None:
            kwargs["stats"] = stats_type()

    def extract_post(args, kwargs, result):
        stats = args[2] if len(args) >= 3 else kwargs.get("stats")
        if stats is not None:
            counts["extract.cells"] += sum(stats.cells_per_state.values())
            counts["extract.sat_cells"] += sum(stats.satisfiable_cells_per_state.values())

    def compose_post(args, kwargs, result):
        counts["compose.product_states"] += len(result.states)
        counts["compose.product_edges"] += len(result.edges)

    def cellruns_pre(args, kwargs):
        space = args[1] if len(args) > 1 else kwargs["space"]
        counts["runsets.cells"] += len(space.witnesses)

    def attractor_post(args, kwargs, result):
        counts["verify.attractor_states"] += len(result)

    def patch_post(args, kwargs, result):
        counts["verify.patch_states"] += len(result.tracker.states)

    run_marks: list[int] = []

    def run_pre(args, kwargs):
        run_marks.append(counts["solver.calls"])

    def run_post(args, kwargs, result):
        counts["engine.queries"] += counts["solver.calls"] - run_marks.pop()
        counts["engine.steps"] += len(result.entries)

    hooks = {
        "solver.check_sat": (sat_pre, None),
        "extract.extract_graph": (extract_pre, extract_post),
        "compose.compose": (None, compose_post),
        "runsets.CellRuns.build": (cellruns_pre, None),
        "verify.compute_bad_attractor": (None, attractor_post),
        "verify.synthesize_patch": (None, patch_post),
        "engine.run": (run_pre, run_post),
    }
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "sbmod" or name.startswith("sbmod."))]
    for module_name, path in TARGETS:
        name = f"{module_name}.{path}"
        owner = sys.modules[f"sbmod.{module_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        original = raw.__func__ if isinstance(raw, staticmethod) else raw
        pre, post = hooks.get(name, (None, None))
        wrapper = tracer.wrap(name, original, pre, post)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(wrapper))
            continue
        bound = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no binding site found for {name}")


def main() -> int:
    summary_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY_JSON SPANS_TXT -- VERB ARGS...")
    tracer = Tracer()
    install(tracer)
    from sbmod.cli import main as cli_main

    t_imported = time.perf_counter()
    try:
        code = cli_main(argv)
    finally:
        t_main_end = time.perf_counter()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": tracer.names}) + "\n")
            for span in tracer.spans:
                handle.write("%d %r %r %d\n" % span)
        summary = tracer.summary()
        summary.update(t_imported=t_imported, t_main_end=t_main_end, paused_s=tracer.paused)
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
