"""Workload models for the sbmod benchmark, generated here so that edits to
the test suite cannot change what the benchmark measures.

Each workload is one ``.sbm`` model plus the names the CLI verbs need. The
program under test only ever receives the written model files.
"""

from __future__ import annotations

from dataclasses import dataclass

RING_N = 5
WIDE_K = 7
RUN_STEPS = 500
FAR = 10  # above every threshold of Wide, which stop at x >= k/2 <= 8


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    prop: str          # property object for check / repair
    obj: str           # object for graph --object
    size: int          # n for ring, k for wide


def ring_text(n: int) -> str:
    """A token ring of n stations over ``x``, in lockstep.

    The token visits C0, C1, ..., C(n-1) in turn, one station per event. At
    its turn station i either marks (x == i) or passes (x == -1); every other
    sync waits for any value, so each round takes exactly n events and the
    whole model is back in its initial state after it. Stations with
    n - 2 - i even have no choice and always mark. The property AllMarked
    marks bad once stations 0 .. n-2 have all marked in one round.
    """
    def waits(count: int) -> str:
        return " ".join(["sync(waitfor = true);"] * count)

    lines = ["model {", "  vars x;"]
    for i in range(n):
        choice = f"x == {i}" if (n - 2 - i) % 2 == 0 else f"x == {i} || x == -1"
        body = f"{waits(i)} sync(request = {choice}, waitfor = true);".strip()
        rest = n - 1 - i
        if rest:
            body += f" if (x == {i}) {{ {waits(rest)} }} else {{ {waits(rest)} }}"
        lines.append(f"  object C{i} {{ loop {{ {body} }} }}")

    def watch(k: int) -> str:
        if k == n - 1:
            return "sync(waitfor = true); mark bad;"
        return (f"sync(waitfor = true); if (x == {k}) {{ {watch(k + 1)} }} "
                f"else {{ {waits(n - 1 - k)} }}")

    lines.append(f"  object AllMarked {{ loop {{ {watch(0)} }} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def wide_halves(k: int) -> tuple[int, int]:
    """Thresholds on x and on y: k predicates in all, h = floor(k/2) on x."""
    h = k // 2
    return h, k - h


def wide_text(k: int) -> str:
    """One object over ``x, y`` with k threshold predicates, then three
    conditional stops and a closing loop. The property Far marks bad after
    any x >= FAR, so check, repair and the attractor have a small job.

    The conditional stops request any value rather than only waiting for
    one: with nothing requested there, every run entering them would
    deadlock after one step. The extracted graph is the same either way,
    since both wake on every assignment.
    """
    hx, hy = wide_halves(k)
    request = " || ".join([f"x >= {i}" for i in range(1, hx + 1)]
                          + [f"y >= {i}" for i in range(1, hy + 1)])
    lines = ["model {", "  vars x, y;", "  object Wide {", f"    sync(request = {request});"]
    for i in (1, 2, 3):
        lines.append(f"    if (x >= {i}) {{ sync(request = true); }}")
    lines += ["    loop { sync(request = true); }", "  }",
              f"  object Far {{ sync(waitfor = x >= {FAR}); sync(); mark bad; }}", "}"]
    return "\n".join(lines) + "\n"


def make(name: str) -> Workload:
    if name == "ring":
        return Workload("ring", ring_text(RING_N), "AllMarked", "C0", RING_N)
    if name == "wide":
        return Workload("wide", wide_text(WIDE_K), "Far", "Wide", WIDE_K)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ring", "wide")
