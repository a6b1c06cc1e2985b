from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

try:
    import sbmod  # noqa: F401
except ImportError:  # running from a checkout without the editable install
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from sbmod.dsl import Model, NamedObject, parse_model
from sbmod.formulas import VarSet
from sbmod.graphs import DiscreteObject, encode_discrete

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

WATER_TAP_EVENTS = ["WaterLow", "AddHot", "AddCold"]


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's model generators (``perfbench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def drone_text() -> str:
    return (FIXTURES / "drone.sbm").read_text()


@pytest.fixture()
def drone_model(drone_text):
    return parse_model(drone_text)


@pytest.fixture()
def drone_base(drone_model):
    """The three drone objects, property removed."""
    return drone_model.without("NoConsecutiveSharpTurns")


@pytest.fixture()
def drone_property(drone_model):
    return drone_model.get("NoConsecutiveSharpTurns")


def water_adder(event: str) -> DiscreteObject:
    return DiscreteObject.make(
        states=["w0", "w1", "w2", "w3"],
        initial="w0",
        waitfor={"w0": ["WaterLow"]},
        request={"w1": [event], "w2": [event], "w3": [event]},
        edges=[("w0", "WaterLow", "w1"), ("w1", event, "w2"),
               ("w2", event, "w3"), ("w3", event, "w0")],
    )


def water_stability() -> DiscreteObject:
    return DiscreteObject.make(
        states=["t0", "t1"],
        initial="t0",
        waitfor={"t0": ["AddHot"], "t1": ["AddCold"]},
        block={"t0": ["AddCold"], "t1": ["AddHot"]},
        edges=[("t0", "AddHot", "t1"), ("t1", "AddCold", "t0")],
    )


def water_sensor() -> DiscreteObject:
    return DiscreteObject.make(
        states=["m0", "m1"],
        initial="m0",
        request={"m0": ["WaterLow"]},
        edges=[("m0", "WaterLow", "m1")],
    )


def water_tap_objects(with_stability: bool = True) -> list[tuple[str, DiscreteObject]]:
    objs = [
        ("AddHotWater", water_adder("AddHot")),
        ("AddColdWater", water_adder("AddCold")),
    ]
    if with_stability:
        objs.append(("Stability", water_stability()))
    objs.append(("WaterSensor", water_sensor()))
    return objs


def two_hot_in_a_row() -> DiscreteObject:
    """Safety property: two consecutive AddHot events are forbidden."""
    every = WATER_TAP_EVENTS
    return DiscreteObject.make(
        states=["p0", "p1", "p2"],
        initial="p0",
        waitfor={"p0": every, "p1": every},
        edges=[("p0", "AddHot", "p1"),
               ("p0", "WaterLow", "p0"), ("p0", "AddCold", "p0"),
               ("p1", "AddHot", "p2"),
               ("p1", "WaterLow", "p0"), ("p1", "AddCold", "p0")],
        bad=["p2"],
    )


@pytest.fixture()
def water_tap_model():
    objs = water_tap_objects(with_stability=True)
    return Model(
        VarSet(("x",)),
        tuple(NamedObject(n, encode_discrete(WATER_TAP_EVENTS, d)) for n, d in objs),
    )


@pytest.fixture()
def water_tap_unstable_model():
    objs = water_tap_objects(with_stability=False)
    return Model(
        VarSet(("x",)),
        tuple(NamedObject(n, encode_discrete(WATER_TAP_EVENTS, d)) for n, d in objs),
    )


def nested_bodies(depth: int) -> dict[str, str]:
    """Object bodies over ``v, h`` whose parentheses, ``!``, blocks or
    else-if arms nest exactly ``depth`` deep, by shape."""
    parens = "v >= 1"
    for i in range(depth):
        parens = f"(h <= {i % 3} {'&&' if i % 2 else '||'} {parens})"
    ifs = loops = "sync(request = true);"
    for i in range(depth):
        ifs = f"if (v >= {i % 4}) {{ sync(request = true); {ifs} }}"
        loops = f"loop {{ sync(request = v >= {i % 3}); {loops} }}"
    arms = "".join(f" else if (v >= {-(i % 3) - 1}) {{ sync(request = true); }}"
                   for i in range(depth - 1))
    return {
        "parens": f"sync(request = {parens});",
        "nots": f"sync(request = {'!' * depth}v >= 1);",
        "ifs": f"sync(request = true); {ifs}",
        "loops": loops,
        "else_if": f"sync(request = true); if (v >= 0) {{ sync(request = true); }}{arms}",
    }
