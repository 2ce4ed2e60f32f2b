"""Benchmark inputs are a pure function of the seed and never touch a solver."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# modules whose functions input generation must never call
SOLVER_MODULES = ("classifier", "coloring", "flow", "and_solver", "cut_solver",
                  "reductions", "oracle", "generators", "cli")


def snapshot(workload, seed, workdir):
    """Everything a run consumes: item keys, raw inputs, command lines (with
    the working directory factored out) and the bytes of every input file."""
    lib = run.symcsp_modules()
    rounds, probe = workload.build(lib, seed, workdir)
    items = [i for r in rounds for i in r] + [i for _, items in probe for i in items]
    rows = [[i.key, i.rung, i.kind, i.raw] for i in items]
    argv = [[str(a).replace(str(workdir), "<dir>") for a in i.args]
            for i in items if all(isinstance(a, str) for a in i.args)]
    files = {p.name: p.read_bytes().decode() for p in sorted(workdir.glob("*"))} if workdir.exists() else {}
    return json.dumps([rows, argv, files], sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_and_held_out_seed_differs(name, tmp_path):
    workload = WORKLOADS[name]
    first = snapshot(workload, 7, tmp_path / "a")
    assert first == snapshot(workload, 7, tmp_path / "b")
    assert first != snapshot(workload, 1009, tmp_path / "c")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_input_generation_calls_no_solver(name, tmp_path, monkeypatch):
    lib = run.symcsp_modules()

    def forbidden(*args, **kwargs):
        raise AssertionError("input generation called into a solver module")

    for module_name in SOLVER_MODULES:
        module = getattr(lib, module_name)
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType):
                monkeypatch.setattr(module, attr, forbidden)
    WORKLOADS[name].build(lib, 3, tmp_path / "w")


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
