"""Interpreter/graph bisimulation, checked in both directions.

Random grid traces driven through the script interpreter must trace the same
state sequence through the extracted graph, and random graph paths must be
concretizable into assignments that drive the interpreter along them.
"""

from __future__ import annotations

import random

import pytest

from sbmod.dsl import parse_model
from sbmod.dsl import initial_state, step_script
from sbmod.extract import simplify_graph, extract_graph, state_name
from sbmod.formulas import evaluate
from sbmod.graphs import materialized_edges
from sbmod.solver import check_sat

from oracles import rand_assignment

EXTRA_SCRIPTS = """
model {
  vars v, h;
  object BranchOnRequest {
    sync(request = v < 5);
    if (v >= 2) {
      sync(request = true);
    } else {
      sync(request = v < 0, waitfor = v >= 0);
    }
  }
  object PlainChain {
    sync(request = v >= 2 && h == 0);
    sync(request = h >= 10, waitfor = h < 10, block = v != 0 || h < 0);
    if (h < 10) {
      sync(request = h >= 10, block = h < 10 || v != 0);
    }
    sync(request = true);
  }
}
"""


def graph_step(graph, q, a):
    for e in graph.out_edges(q):
        if evaluate(e.guard, a):
            return e.dst
    return q


def fixture_scripts(drone_model):
    extra = parse_model(EXTRA_SCRIPTS)
    pairs = [(drone_model, name) for name in drone_model.names()]
    pairs += [(extra, name) for name in extra.names()]
    return [(m.vars, m.get(name)) for m, name in pairs]


def forward_check(vars, script, graph, rng, traces, depth):
    for _ in range(traces):
        s = initial_state(script)
        q = graph.initial
        assert state_name(s) == q
        for _ in range(depth):
            a = rand_assignment(rng, vars.names)
            s = step_script(script, s, a)
            q = graph_step(graph, q, a)
            assert state_name(s) == q


def backward_check(vars, script, graph, rng, paths, depth):
    for _ in range(paths):
        s = initial_state(script)
        q = graph.initial
        for _ in range(depth):
            options = materialized_edges(graph, q, vars)
            e = options[rng.randrange(len(options))]
            model = check_sat(e.guard, vars)
            assert model is not None and evaluate(e.guard, model)
            s = step_script(script, s, model.restricted_to(vars))
            assert state_name(s) == e.dst
            q = e.dst


@pytest.mark.parametrize("simplified", [False, True])
def test_bisimulation_both_directions(drone_model, simplified):
    rng = random.Random(99 + simplified)
    for vars, script in fixture_scripts(drone_model):
        graph = extract_graph(script, vars)
        if simplified:
            graph = simplify_graph(graph, vars)
        forward_check(vars, script, graph, rng, traces=120, depth=8)
        backward_check(vars, script, graph, rng, paths=120, depth=8)
