"""sbmod benchmark: CLI time-to-verdict on the ring and wide workloads.

Usage:
    python3 perfbench/run.py --workload ring|wide --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every verb runs as a fresh ``sbmod`` process
(cold caches, as a real CLI call), one at a time, against the checkout's
``src``. Rounds of all verbs repeat until ``--seconds`` is used up; within a
round, verbs shorter than REP_TARGET_S run several times, spread over the
round. A fixed stdlib-only reference job runs between the verbs, and each
call's wall time is scaled by REF_NOMINAL_S over the reference's time around
the call, which cancels the host's drifting speed. Every end-to-end timing is
the median of its scaled calls (NOTES.md says why).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every verb runs once traced and once
untraced per round (spans around each layer's public functions, see
traced_cli.py) and the JSON carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from traced_cli import COUNT_NAMES, TARGETS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REP_TARGET_S = 0.6   # an untraced verb repeats round(REP_TARGET_S / its wall time) times per round
REF_NOMINAL_S = 0.12  # reference job time that the end-to-end times are scaled to
REF_GAP_S = 0.5       # a reference run precedes each untraced verb call that starts later than
                      # this after the last reference run ended
VERB_TIMEOUT = 60.0  # a verb slower than this counts as failed
DEADLINE = 170.0     # the whole benchmark ends well inside 180 s

VERBS = ("validate", "check", "repair_verify", "composite", "graph", "graph_simplify", "run")
TIMED_METRIC = {
    "check": "check_s", "repair_verify": "repair_verify_s", "composite": "composite_s",
    "graph": "graph_s", "graph_simplify": "graph_simplify_s",
}
# -S keeps the host interpreter's site hooks, which are not part of sbmod,
# out of every measurement
CLI = ["-S", "-c", "import sys; from sbmod.cli import main; sys.exit(main())"]
# The host's speed drifts by up to 1.6x between minutes, and every verb drifts
# with it. This job measures that speed: a fresh interpreter doing the kind of
# work sbmod does (small objects, tuples, dicts, sorting), with no sbmod code,
# so no change to the program can move it.
REF_CODE = """
class P:
    __slots__ = ("a", "b")
    def __init__(self, a, b):
        self.a, self.b = a, b
d = {}
for i in range(40000):
    p = P(i % 997, str(i % 31))
    k = (p.a, p.b)
    d[k] = d.get(k, 0) + len(p.b)
s = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
assert len(s) == 997 * 31 and sum(v for _, v in s) == 67090
"""


@dataclass
class Invocation:
    wall_s: float
    t_mid: float         # perf_counter at the middle of the call
    maxrss_mb: float
    out: str
    problems: list
    traced: dict | None = None


class Bench:
    """Runs the verbs of one workload as fresh processes and checks their output."""

    def __init__(self, wl: workloads.Workload, started: float) -> None:
        self.wl = wl
        self.started = started
        self.dir = WORK / wl.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.model = self.dir / "model.sbm"
        self.model.write_text(wl.text, encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: list[tuple[float, float]] = []  # (middle, wall s) of each reference run
        self.ref_end = 0.0
        self.ref_gap_s: float | None = None  # None: no reference runs between verbs

    def path(self, name: str) -> Path:
        return self.dir / name

    def argv(self, verb: str, run_seed: int) -> list[str]:
        wl, model = self.wl, str(self.model)
        return {
            "validate": ["validate", model],
            "check": ["check", model, "--property", wl.prop, "--trace", str(self.path("cex.jsonl"))],
            "repair_verify": ["repair", model, "--property", wl.prop, "--verify",
                              "--out", str(self.path("patch.sbm")),
                              "--emit-model", str(self.path("patched.sbm"))],
            "composite": ["graph", model, "--composite", "--simplify", "--format", "json"],
            "graph": ["graph", model, "--object", wl.obj, "--format", "json"],
            "graph_simplify": ["graph", model, "--object", wl.obj, "--simplify", "--format", "json"],
            "run": ["run", model, "--policy", "random-cell", "--seed", str(run_seed),
                    "--steps", str(workloads.RUN_STEPS), "--log", str(self.path("run.jsonl"))],
        }[verb]

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str, bool]:
        """Run one process; returns (exit code, wall s, max RSS MB, stdout, timed out)."""
        remaining = DEADLINE - (time.perf_counter() - self.started)
        timeout = min(VERB_TIMEOUT, remaining)
        if timeout <= 0:
            return -1, VERB_TIMEOUT, 0.0, "", True
        out_path, err_path = self.path("stdout.txt"), self.path("stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            killed = threading.Event()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, text, killed.is_set()

    def reference(self) -> None:
        """Time one run of the reference job; it is not sbmod, so it is not an attempt."""
        if DEADLINE - (time.perf_counter() - self.started) < VERB_TIMEOUT / 2:
            return  # no time left: levels come from the runs made so far
        rc, wall, _, _, timed_out = self.spawn([sys.executable, "-S", "-c", REF_CODE])
        if rc != 0 or timed_out:
            raise SystemExit(f"error: the reference job failed (exit {rc}); see {self.path('stderr.txt')}")
        self.ref_end = time.perf_counter()
        self.refs.append((self.ref_end - wall / 2, wall))

    def host_level(self, t: float) -> float:
        """Mean time of the reference runs just before and just after time t."""
        i = bisect.bisect([mid for mid, _ in self.refs], t)
        return statistics.fmean(wall for _, wall in self.refs[max(i - 1, 0):i + 1])

    def invoke(self, verb: str, run_seed: int, traced: bool = False) -> Invocation:
        args = self.argv(verb, run_seed)
        summary_path = self.path("trace_summary.json")
        if traced:
            argv = [sys.executable, "-S", str(HERE / "traced_cli.py"), str(summary_path),
                    str(self.path(f"spans_{verb}.txt")), "--", *args]
        else:
            argv = [sys.executable, *CLI, *args]
        for stale in (summary_path, self.path("cex.jsonl"), self.path("patch.sbm"), self.path("run.jsonl")):
            stale.unlink(missing_ok=True)
        if self.ref_gap_s is not None and time.perf_counter() - self.ref_end > self.ref_gap_s:
            self.reference()
        t_spawn = time.perf_counter()
        rc, wall, rss, out, timed_out = self.spawn(argv)
        self.attempted += 1
        problems = [f"{verb}: timed out"] if timed_out else self.check_output(verb, rc, out)
        info = None
        if traced and not timed_out:
            try:
                info = json.loads(summary_path.read_text(encoding="utf-8"))
                info["t_spawn"], info["wall_s"] = t_spawn, wall
            except (OSError, ValueError) as err:
                problems.append(f"{verb}: no trace summary ({err})")
        self.record(problems)
        return Invocation(wall, t_spawn + wall / 2, rss, out, problems, info)

    def read(self, name: str) -> str:
        p = self.path(name)
        return p.read_text(encoding="utf-8") if p.exists() else ""

    def check_output(self, verb: str, rc: int, out: str) -> list[str]:
        wl = self.wl
        try:
            if verb == "validate":
                return checks.validate(wl, rc, out)
            if verb == "check":
                return checks.check(wl, rc, out, self.read("cex.jsonl"))
            if verb == "repair_verify":
                return checks.repair_verify(wl, rc, out, self.read("patch.sbm"))
            if verb == "composite":
                return checks.composite(wl, rc, out)
            if verb in ("graph", "graph_simplify"):
                return checks.graph(wl, rc, out, simplified=verb == "graph_simplify")
            if verb == "run":
                return checks.run_log(wl, rc, self.read("run.jsonl"), workloads.RUN_STEPS)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            return [f"{verb}: malformed output ({type(err).__name__}: {err})"]
        raise ValueError(verb)

    def check_patched_model(self) -> None:
        """The model written by --emit-model must satisfy the property."""
        rc, _, _, out, timed_out = self.spawn(
            [sys.executable, *CLI, "check", str(self.path("patched.sbm")), "--property", self.wl.prop])
        self.attempted += 1
        self.record(["emitted model: timed out"] if timed_out else checks.patched_model(rc, out))

    def record(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def emitted_atoms(graph_simplify: Invocation, composite: Invocation, patch_text: str) -> int:
    return (checks.graph_atoms(graph_simplify.out)
            + checks.graph_atoms(composite.out)
            + checks.patch_atoms(patch_text))


def median(values: list[float]) -> float:
    # 0 rather than NaN when every sample failed, which keeps the result JSON
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, rounds: list[dict[str, list[Invocation]]], atoms: list[int]) -> dict:
    def scaled(verb: str) -> list[float]:
        """Wall time of each good call, in seconds on a host where the reference takes REF_NOMINAL_S."""
        return [REF_NOMINAL_S * inv.wall_s / bench.host_level(inv.t_mid)
                for r in rounds for inv in r[verb] if not inv.problems]

    # medians: the host flips between a fast and a slow state within seconds,
    # which scaling does not fully follow, so a mean drifts with the share of
    # calls that fell in each (NOTES.md)
    metrics = {"setup_s": (median(scaled("validate")) or VERB_TIMEOUT, "s")}
    for verb, name in TIMED_METRIC.items():
        metrics[name] = (median(scaled(verb)) or VERB_TIMEOUT, "s")
    times = scaled("run")
    metrics["run_steps_per_s"] = (workloads.RUN_STEPS / median(times) if times else 0.0, "1/s")
    metrics["emitted_atoms"] = (median(atoms) if atoms else 0.0, "count")
    metrics["peak_rss_mb"] = (median([max(inv.maxrss_mb for invs in r.values() for inv in invs)
                                      for r in rounds]), "MB")
    metrics["ok_rate"] = (1.0 - bench.failed / bench.attempted, "ratio")
    return metrics


def verb_trace(info: dict) -> dict:
    """Coverage and per-function figures of one traced verb."""
    main_s = info["t_main_end"] - info["t_imported"] - info["paused_s"]
    uncovered = max(main_s - info["covered_s"], 0.0)
    wall = info["wall_s"] - info["paused_s"]
    return {"coverage": 1.0 - uncovered / wall, "functions": info["functions"], "counts": info["counts"]}


def per_layer(rounds: list[dict[str, Invocation]], plain: list[dict[str, Invocation]]) -> dict:
    names = [f"{m}.{p}" for m, p in TARGETS]
    per_round = []
    for r in rounds:
        traces = {verb: verb_trace(inv.traced) for verb, inv in r.items() if inv.traced}
        agg = {name: [0, 0.0, 0.0] for name in names}
        counts = dict.fromkeys(COUNT_NAMES, 0)
        for t in traces.values():
            for name, (calls, self_s, total_s) in t["functions"].items():
                agg[name][0] += calls
                agg[name][1] += self_s
                agg[name][2] += total_s
            for key, value in t["counts"].items():
                counts[key] += value
        per_round.append((agg, counts, traces))

    metrics: dict[str, tuple[float, str]] = {}
    for name in names:
        metrics[f"{name}.calls"] = (median([a[name][0] for a, _, _ in per_round]), "count")
        metrics[f"{name}.self_s"] = (median([a[name][1] for a, _, _ in per_round]), "s")
        metrics[f"{name}.total_s"] = (median([a[name][2] for a, _, _ in per_round]), "s")
    _, counts, _ = per_round[-1]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics["extract.cells"] = (counts["extract.cells"], "count")
    metrics["extract.sat_cells"] = (counts["extract.sat_cells"], "count")
    metrics["extract.sat_ratio"] = (ratio(counts["extract.sat_cells"], counts["extract.cells"]), "ratio")
    metrics["compose.product_states"] = (counts["compose.product_states"], "count")
    metrics["compose.product_edges"] = (counts["compose.product_edges"], "count")
    metrics["solver.distinct_queries"] = (counts["solver.distinct_queries"], "count")
    metrics["solver.hit_ratio"] = (ratio(counts["solver.calls"] - counts["solver.distinct_queries"],
                                         counts["solver.calls"]), "ratio")
    metrics["runsets.cells"] = (counts["runsets.cells"], "count")
    metrics["verify.attractor_states"] = (counts["verify.attractor_states"], "count")
    metrics["verify.patch_states"] = (counts["verify.patch_states"], "count")
    metrics["engine.queries_per_step"] = (ratio(counts["engine.queries"], counts["engine.steps"]), "count")
    for verb in VERBS:
        traced = median([r[verb].wall_s for r in rounds if r[verb].traced])
        untraced = median([r[verb].wall_s for r in plain])
        metrics[f"trace.{verb}.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        metrics[f"trace.{verb}.coverage_pct"] = (
            100.0 * median([t[verb]["coverage"] for _, _, t in per_round if verb in t]), "%")
    return metrics


def round_over(started: float, rounds: int, seconds: int) -> bool:
    """True when one more round of the mean length so far would end after ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed * (rounds + 1) / rounds > seconds


def measure(bench: Bench, seed: int, seconds: int) -> tuple[list, list, list[int]]:
    """Untraced rounds; returns per round each timed verb's invocations, and the emitted atoms.

    The first round runs every verb once. Later rounds repeat a verb
    round(REP_TARGET_S / its first wall time) times, interleaved with the
    other verbs, so that short verbs get many samples spread over the run.
    Validate runs once per round: the spread of setup_s is not gated.
    """
    rounds: list[dict[str, list[Invocation]]] = []
    atoms: list[int] = []
    reps = dict.fromkeys(VERBS, 1)
    run_count = 0
    t_measure = time.perf_counter()
    while True:
        current: dict[str, list[Invocation]] = {verb: [] for verb in VERBS}
        for rep in range(max(reps.values())):
            for verb in VERBS:
                if rep >= reps[verb]:
                    continue
                run_seed = seed * 1000 + run_count
                run_count += verb == "run"
                current[verb].append(bench.invoke(verb, run_seed))
                if verb == "repair_verify" and rep == 0:
                    patch_text = bench.read("patch.sbm")
                    if not rounds:
                        bench.check_patched_model()
        if not any(current[verb][0].problems for verb in ("graph_simplify", "composite")):
            atoms.append(emitted_atoms(current["graph_simplify"][0], current["composite"][0], patch_text))
        if not rounds:
            reps = {verb: max(1, round(REP_TARGET_S / invs[0].wall_s)) for verb, invs in current.items()}
            reps["validate"] = 1
        rounds.append(current)
        if round_over(t_measure, len(rounds), seconds):
            bench.reference()  # brackets the last calls
            return rounds, [], atoms


def measure_traced(bench: Bench, seed: int, seconds: int) -> tuple[list, list, list[int]]:
    """Rounds that run every verb once traced and once untraced."""
    rounds: list[dict[str, Invocation]] = []
    plain: list[dict[str, Invocation]] = []
    t_measure = time.perf_counter()
    while True:
        index = len(rounds)
        run_seed = seed * 1000 + index
        current: dict[str, Invocation] = {}
        untraced: dict[str, Invocation] = {}
        for verb in VERBS:
            # alternate which side runs first, so drift does not bias the overhead
            order = (False, True) if (index + VERBS.index(verb)) % 2 == 0 else (True, False)
            for traced in order:
                inv = bench.invoke(verb, run_seed, traced=traced)
                (current if traced else untraced)[verb] = inv
            if verb == "repair_verify" and index == 0:
                bench.check_patched_model()
        rounds.append(current)
        plain.append(untraced)
        if round_over(t_measure, len(rounds), seconds):
            return rounds, plain, []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "sbmod" / "cli.py").is_file():
        print(f"error: no sbmod sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    bench = Bench(workloads.make(args.workload), started)
    # the first call also writes the bytecode cache, as an installed CLI has one
    bench.invoke("validate", 0)
    if not args.trace:
        bench.ref_gap_s = REF_GAP_S
    rounds, plain, atoms = (measure_traced if args.trace else measure)(bench, args.seed, args.seconds)

    for problem in bench.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    metrics = per_layer(rounds, plain) if args.trace else end_to_end(bench, rounds, atoms)
    if not args.trace:
        # every timed call and reference run, for a look at the noise
        samples = {"reference": bench.refs}
        for verb in VERBS:
            samples[verb] = [(inv.t_mid, inv.wall_s) for r in rounds for inv in r[verb] if not inv.problems]
        bench.path("samples.json").write_text(json.dumps(samples), encoding="utf-8")
    print(f"workload {args.workload} (size {bench.wl.size}), seed {args.seed}: {len(rounds)} rounds, "
          f"{bench.attempted} invocations, {bench.failed} failed "
          f"(fail_rate {bench.failed / bench.attempted:.4f})")
    if args.trace:
        print("  per-round wall s (traced): " + "; ".join(
            f"{verb} " + " ".join(f"{r[verb].wall_s:.3f}" for r in rounds) for verb in VERBS))
    else:
        walls = [wall for _, wall in bench.refs]
        print(f"  reference job: {len(walls)} runs, mean {statistics.fmean(walls):.4f} s, "
              f"range {min(walls):.4f}-{max(walls):.4f} s; times are scaled to {REF_NOMINAL_S} s")
        print("  unscaled wall s per sample: " + "; ".join(
            f"{verb} " + " ".join(f"{inv.wall_s:.3f}" for r in rounds for inv in r[verb]) for verb in VERBS))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
