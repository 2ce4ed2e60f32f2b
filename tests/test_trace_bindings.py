"""The benchmark tracer (bench/tracing.py) binds to the solver internals it
names, agrees with the solvers' own counters, and unbinds cleanly."""

import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

from symcsp.cut_solver import CutInstance, satisfied_edges  # noqa: E402
from symcsp.generators import _dumbbell_graph, gen_and_instance  # noqa: E402

MODULES = ("core", "classifier", "coloring", "flow", "and_solver", "cut_solver",
           "reductions", "oracle", "generators", "cli")


def _lib():
    lib = SimpleNamespace(package=importlib.import_module("symcsp"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"symcsp.{name}"))
    return lib


def _bindings(lib):
    """Every module-level binding plus the patched class attribute."""
    out = {(mod.__name__, key): value
           for mod in vars(lib).values() for key, value in vars(mod).items()}
    out["FlowNetwork.add_arc"] = vars(lib.flow.FlowNetwork)["add_arc"]
    return out


def test_trace_cross_checks_and_uninstall_restores():
    lib = _lib()
    before = _bindings(lib)
    g = _dumbbell_graph(random.Random(33), 5, 5, 1)
    ci = CutInstance(g, satisfied_edges(g, 0), 1)
    inst, prop = gen_and_instance(1)  # branches once, then flips

    trace = tracing.Trace()
    trace.install(lib)
    try:
        lib.and_solver.solve_and(inst, prop)
        lib.cut_solver.cut_improve(ci, q_override=8)
    finally:
        trace.uninstall()

    metrics = trace.metrics()
    checks = trace.cross_check(metrics)
    assert checks and all(c["ok"] for c in checks.values()), checks
    assert metrics["and_solver.flip_hypergraph_calls"] > 0
    assert metrics["cut_solver.recurse_steps"] > 0
    after = _bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
