"""The ``SBM_SOLVER_DEBUG=1`` stream of ``repair --verify`` is pinned byte for byte.

The stream lists every solver query in the order it is asked, so it changes
whenever extraction, composition, checking, repair or verification asks a
different query or asks in a different order. Each case runs in a fresh
process, so that no query cache is warm, under two hash seeds: the stream
must not depend on set or dict iteration over hashed keys.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

CASES = {
    # fixture: (model, property, how the model file is written)
    "ring3_repair_verify.smt2": (
        "ring3.sbm", "AllMarked",
        "PYTHONPATH=perfbench python3 -B -c 'import sys, workloads; "
        "sys.stdout.write(workloads.ring_text(3))' > ring3.sbm"),
    "drone_repair_verify.smt2": ("tests/fixtures/drone.sbm", "NoConsecutiveSharpTurns", None),
}


def _model_path(fixture: str, tmp_path: Path, workloads) -> Path:
    model, _, make_model = CASES[fixture]
    if make_model is None:
        return ROOT / model
    path = tmp_path / model
    path.write_text(workloads.ring_text(3))
    return path


def _regenerate(fixture: str) -> str:
    model, prop, make_model = CASES[fixture]
    run = (f"PYTHONHASHSEED=0 SBM_SOLVER_DEBUG=1 PYTHONPATH=src python3 -m sbmod.cli repair {model} "
           f"--property {prop} --verify > /dev/null 2> tests/fixtures/{fixture}")
    return f"{make_model} && {run}" if make_model else run


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("fixture", sorted(CASES))
def test_repair_verify_debug_stream_is_pinned(fixture, seed, tmp_path, workloads):
    _, prop, _ = CASES[fixture]
    env = dict(os.environ, SBM_SOLVER_DEBUG="1", PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "sbmod.cli", "repair", str(_model_path(fixture, tmp_path, workloads)),
         "--property", prop, "--verify"],
        cwd=ROOT, env=env, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    expected = (FIXTURES / fixture).read_bytes()
    if proc.stderr != expected:
        got, want = proc.stderr.splitlines(), expected.splitlines()
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(
            f"the debug stream differs from {fixture} at line {line + 1} "
            f"({len(got)} lines against {len(want)}). If the new query order is intended, "
            f"regenerate the fixture from the repository root with:\n  {_regenerate(fixture)}")
