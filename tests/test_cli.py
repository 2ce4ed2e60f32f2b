import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

BASE = [sys.executable, "-m", "symcsp.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        BASE + list(args), capture_output=True, text=True
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr, args)
    return proc.stdout


def test_classify_json():
    out = run_cli("classify", "--r", "3", "--S", "0,3")
    assert out.endswith("\n")
    obj = json.loads(out)
    assert obj == {"label": "W1_Hard", "certificate": "rAE_r>=3"}
    assert json.loads(run_cli("classify", "--r", "2", "--S", "0,2"))["label"] == "FPT_2AE"


def test_classify_bad_counts():
    run_cli("classify", "--r", "2", "--S", "0,zebra", expect=2)
    run_cli("classify", "--r", "2", "--S", "5", expect=2)


def test_solve_and_instance(tmp_path):
    run_cli("gen", "--what", "and", "--seed", "4", "--output", str(tmp_path / "i.json"))
    out = json.loads(run_cli("solve", "--input", str(tmp_path / "i.json")))
    assert set(out) >= {"assignment", "satisfied", "value", "timeout"}


def test_solve_cut_graph_schema(tmp_path):
    run_cli("gen", "--what", "cut", "--seed", "9", "--output", str(tmp_path / "g.json"))
    out = json.loads(
        run_cli("solve", "--input", str(tmp_path / "g.json"), "--q-override", "8")
    )
    assert set(out) >= {"side", "value", "satisfied", "recurse_steps"}


def test_solve_trivial_language(tmp_path):
    obj = {
        "mode": "sym",
        "r": 2,
        "S": [0, 1, 2],
        "num_vars": 2,
        "k": 0,
        "clauses": [{"neg": [0, 0], "scope": [0, 1], "in_P": True}],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    out = json.loads(run_cli("solve", "--input", str(path)))
    assert out["assignment"] == [0, 0] and out["value"] == 1


def test_force_oracle_gate(tmp_path):
    obj = {
        "mode": "sym",
        "r": 3,
        "S": [0, 3],
        "num_vars": 3,
        "k": 1,
        "clauses": [{"neg": [0, 0, 0], "scope": [0, 1, 2], "in_P": True}],
    }
    path = tmp_path / "h.json"
    path.write_text(json.dumps(obj))
    run_cli("solve", "--input", str(path), expect=3)
    out = json.loads(run_cli("solve", "--input", str(path), "--force-oracle"))
    assert out["value"] == 1


def test_schema_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"mode\": \"sym\"}")
    run_cli("solve", "--input", str(path), expect=2)
    path2 = tmp_path / "worse.json"
    path2.write_text("not json")
    run_cli("solve", "--input", str(path2), expect=2)
    for text in ("5", "true", "null"):  # JSON, but not an object
        path2.write_text(text)
        run_cli("solve", "--input", str(path2), expect=2)


def test_misvw_subcommand(tmp_path):
    obj = {"num_vertices": 2, "hyperedges": [[0, 1]], "weights": [0, 0]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(obj))
    out = json.loads(run_cli("misvw", "--input", str(path)))
    assert out == {"objective": 1, "selected": [0, 1]}


def test_misvw_reads_rows_as_they_are(tmp_path, capsys):
    # a repeated vertex, a row of non-positive vertices only and an isolated
    # zero-weight vertex (7): the rows reach the selection as JSON lists
    from symcsp.cli import main
    from symcsp.core import dumps_canonical
    from symcsp.flow import WeightedHypergraph
    from symcsp.oracle import brute_force_misvw

    rows = [[2, 2, 5], [0, 1], [1, 3, 3], [0, 4], [5, 2], [6, 1, 2], [4]]
    weights = [-1, 0, 1, 2, -2, 1, 3, 0]
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"num_vertices": 8, "hyperedges": rows, "weights": weights}))
    assert main(["misvw", "--input", str(path)]) == 0
    h = WeightedHypergraph(8, tuple(map(frozenset, rows)), tuple(weights))
    v0, value = brute_force_misvw(h)
    assert capsys.readouterr().out == dumps_canonical({"selected": sorted(v0), "objective": value})


def test_reduce_solve_decode_round_trip(tmp_path):
    run_cli("gen", "--what", "paired-cut", "--seed", "1", "--l", "1",
            "--output", str(tmp_path / "src.json"))
    run_cli("reduce", "--source", "paired-cut", "--to", "4ae",
            "--input", str(tmp_path / "src.json"),
            "--output", str(tmp_path / "red.json"))
    solved = json.loads(
        run_cli("solve", "--input", str(tmp_path / "red.json"), "--force-oracle")
    )
    from symcsp.cli import _paired_cut_from_json
    from symcsp.core import instance_from_json
    from symcsp.reductions import decode_paired_cut, solve_paired_cut_bruteforce

    src = _paired_cut_from_json(json.loads((tmp_path / "src.json").read_text()))
    inst, prop = instance_from_json(json.loads((tmp_path / "red.json").read_text()))
    decoded = decode_paired_cut(tuple(solved["assignment"]), src, inst, prop)
    direct = solve_paired_cut_bruteforce(src)
    assert (decoded is not None) == (direct is not None)


def test_reduce_mcis_and_le1(tmp_path):
    run_cli("gen", "--what", "mcis", "--seed", "5", "--l", "2",
            "--output", str(tmp_path / "m.json"))
    run_cli("reduce", "--source", "mcis", "--input", str(tmp_path / "m.json"),
            "--output", str(tmp_path / "sat.json"))
    run_cli("reduce", "--source", "2sat", "--r", "3",
            "--input", str(tmp_path / "sat.json"),
            "--output", str(tmp_path / "le1.json"))
    obj = json.loads((tmp_path / "le1.json").read_text())
    assert obj["mode"] == "sym" and obj["S"] == [2, 3]
    run_cli("reduce", "--source", "2sat", "--input", str(tmp_path / "sat.json"),
            expect=2)  # missing --r


def test_gen_determinism():
    a = run_cli("gen", "--what", "paired-cut", "--seed", "11", "--l", "2")
    b = run_cli("gen", "--what", "paired-cut", "--seed", "11", "--l", "2")
    assert a == b
    c = run_cli("gen", "--what", "paired-cut", "--seed", "12", "--l", "2")
    assert a != c


def test_verify_exit_codes():
    out = run_cli("verify", "--suite", "misvw", "--count", "5", "--seed", "0")
    assert "PASS" in out


def test_solve_deterministic_bytes(tmp_path):
    run_cli("gen", "--what", "and", "--seed", "17", "--output", str(tmp_path / "i.json"))
    a = run_cli("solve", "--input", str(tmp_path / "i.json"), "--seed", "3")
    b = run_cli("solve", "--input", str(tmp_path / "i.json"), "--seed", "3")
    assert a == b


def test_solve_algo_flag(tmp_path):
    run_cli("gen", "--what", "and", "--seed", "6", "--output", str(tmp_path / "i.json"))
    auto = json.loads(run_cli("solve", "--input", str(tmp_path / "i.json")))
    forced = json.loads(
        run_cli("solve", "--input", str(tmp_path / "i.json"), "--algo", "and")
    )
    assert auto["value"] == forced["value"]
    via_oracle = json.loads(
        run_cli("solve", "--input", str(tmp_path / "i.json"), "--algo", "oracle")
    )
    # the oracle reports the in-neighborhood optimum; the solver may beat it
    assert auto["value"] >= via_oracle["value"]


def test_time_limit_returns_best_so_far(tmp_path):
    run_cli("gen", "--what", "and", "--seed", "4", "--output", str(tmp_path / "i.json"))
    out = json.loads(
        run_cli("solve", "--input", str(tmp_path / "i.json"),
                "--time-limit-ms", "0")
    )
    assert out["timeout"] is True
    assert isinstance(out["assignment"], list)


def test_solve_disconnected_graph_splits_components(tmp_path):
    # a type-1 triangle (at most 2 of 3 satisfiable), a type-0 edge and an
    # isolated vertex: each component is solved on its own
    rows = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 0)]
    graph = {
        "num_vertices": 6,
        "k": 1,
        "edges": [{"u": u, "v": v, "type": t, "in_P": True} for u, v, t in rows],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    out = json.loads(run_cli("solve", "--input", str(path)))
    assert out["value"] == 3 and len(out["side"]) == 6
    assert out["satisfied"] == sorted(
        i for i, (u, v, t) in enumerate(rows) if (out["side"][u] != out["side"][v]) == t
    )

    csp = {
        "mode": "sym", "r": 2, "S": [0, 2], "num_vars": 6, "k": 1,
        "clauses": [
            {"neg": [0, t], "scope": [u, v], "in_P": True} for u, v, t in rows
        ],
    }
    path.write_text(json.dumps(csp))
    assert json.loads(run_cli("solve", "--input", str(path)))["value"] == out["value"]


def test_verify_honours_q_override_zero(monkeypatch, capsys):
    from symcsp import cli

    seen = []
    real = cli.cut_improve

    def spy(ci, **kwargs):
        seen.append(kwargs["q_override"])
        return real(ci, **kwargs)

    monkeypatch.setattr(cli, "cut_improve", spy)
    assert cli.main(["verify", "--suite", "cut", "--count", "2", "--q-override", "0"]) == 0
    assert seen == [0, 0]


def test_verify_misvw_compares_the_witness(monkeypatch, capsys):
    # the right value with the wrong vertex set still counts as a failure
    from symcsp import cli

    real = cli.solve_mis_vw
    monkeypatch.setattr(cli, "solve_mis_vw", lambda h: (frozenset(), real(h)[1]))
    assert cli.main(["verify", "--suite", "misvw", "--count", "5", "--seed", "0"]) == 4
    assert "FAIL" in capsys.readouterr().out


def _long_odd_cycle(tmp_path):
    n = 1501
    graph = {
        "num_vertices": n,
        "k": 1,
        "edges": [{"u": i, "v": (i + 1) % n, "type": 1, "in_P": True} for i in range(n)],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(graph))
    return path


def test_long_odd_cycle_exits_with_guard_not_traceback(tmp_path):
    # 1,501 type-1 edges in one cycle: the minimum-cost pass runs max-flows
    # along paths far deeper than the interpreter's recursion limit; no
    # (k, q)-cut can exist, and the guard comes from the terminal table,
    # which enumerates partitions of at most ENUM_VERTEX_GUARD vertices
    from symcsp.cut_solver import ENUM_VERTEX_GUARD

    proc = subprocess.run(
        BASE + ["solve", "--input", str(_long_odd_cycle(tmp_path))], capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr[-500:]
    assert proc.stderr.startswith("guard: ") and "Traceback" not in proc.stderr
    assert f"partition enumeration guarded at {ENUM_VERTEX_GUARD} vertices" in proc.stderr


def test_long_odd_cycle_with_small_q_exits_on_the_cut_count_guard(tmp_path):
    # under --q-override 1 the (k, q)-cut search would screen the
    # C(1500, 1) + C(1500, 2) + C(1500, 3) spanning-tree cuts of k' = 3
    # (5.6 * 10^8); its count guard refuses them before building any
    from symcsp.cut_solver import KQ_CUT_CANDIDATES

    path = _long_odd_cycle(tmp_path)
    proc = subprocess.run(
        BASE + ["solve", "--input", str(path), "--q-override", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr[-500:]
    assert proc.stderr == f"guard: (k, q)-cut search guarded at {KQ_CUT_CANDIDATES} candidate mask words\n"


def test_verify_cut_keeps_invariants_under_optimize():
    # the cut solver's invariants raise VerificationError, which python -O keeps
    proc = subprocess.run(
        [sys.executable, "-O"] + BASE[1:] + ["verify", "--suite", "cut", "--count", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    broken = (
        "import symcsp.cut_solver as cs\n"
        "cs._mincut_between = lambda *args: (0, frozenset({1}))\n"
        "cs._bipartization_compress(3, [(0, 1), (1, 2), (0, 2)], {2}, [0, 1, 0], 0)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", broken], capture_output=True, text=True)
    assert "VerificationError: cut solver invariant violated" in proc.stderr, proc.stderr[-500:]


# every option each subcommand accepts, and so reads
SUBCOMMAND_OPTIONS = {
    "classify": {"--output", "--r", "--S"},
    "solve": {"--input", "--output", "--seed", "--coloring", "--delta", "--q-override",
              "--time-limit-ms", "--force-oracle", "--algo"},
    "misvw": {"--input", "--output"},
    "reduce": {"--input", "--output", "--source", "--to", "--r"},
    "gen": {"--output", "--seed", "--what", "--l"},
    "verify": {"--output", "--seed", "--q-override", "--suite", "--count"},
}


def test_each_subcommand_lists_only_the_options_it_reads():
    import argparse

    from symcsp.cli import build_parser

    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {flag for action in p._actions for flag in action.option_strings
               if flag not in ("-h", "--help")}
        for name, p in subparsers.choices.items()
    }
    assert found == SUBCOMMAND_OPTIONS
    assert sum(map(len, found.values())) == 28


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "misvw", "--count", "1", "--coloring", "random"],
    ["classify", "--r", "2", "--S", "1", "--time-limit-ms", "5"],
    ["gen", "--what", "and", "--input", "x"],
    ["misvw", "--input", "{hypergraph}", "--seed", "1"],
])
def test_unread_option_exits_2(argv, tmp_path, capsys):
    from symcsp.cli import main

    hypergraph = tmp_path / "h.json"
    hypergraph.write_text(json.dumps({"num_vertices": 1, "hyperedges": [[0]], "weights": [0]}))
    argv = [a.replace("{hypergraph}", str(hypergraph)) for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_recursion_and_memory_errors_exit_3(error, monkeypatch, capsys):
    from symcsp import cli

    def blow_up(args):
        raise error()

    monkeypatch.setattr(cli, "cmd_classify", blow_up)
    assert cli.main(["classify", "--r", "2", "--S", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"guard: {error.__name__}") and err.count("\n") == 1


# inputs carrying one non-finite number where the command reads an integer
NON_FINITE_INPUTS = {
    "solve-csp": (["solve"], '{"mode": "sym", "r": 2, "S": [0, 2], "num_vars": 2, "k": %s, '
                             '"clauses": [{"neg": [0, 0], "scope": [0, 1], "in_P": true}]}'),
    "solve-graph": (["solve"], '{"num_vertices": 2, "k": %s, '
                               '"edges": [{"u": 0, "v": 1, "type": 1, "in_P": true}]}'),
    "misvw": (["misvw"], '{"num_vertices": 1, "hyperedges": [[0]], "weights": [%s]}'),
    "reduce-mcis": (["reduce", "--source", "mcis"],
                    '{"num_vertices": %s, "parts": [[0, 1]], "edges": [[0, 1]]}'),
}


@pytest.mark.parametrize("number", ["1e400", "-1e400", "Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("command", sorted(NON_FINITE_INPUTS))
def test_non_finite_number_is_a_schema_error(command, number, tmp_path, capsys):
    from symcsp.cli import main

    argv, text = NON_FINITE_INPUTS[command]
    path = tmp_path / "in.json"
    path.write_text(text % number)
    assert main(argv + ["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and "not finite" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--what", "paired-cut", "--l", "0"],
    ["gen", "--what", "paired-cut", "--l", "-1"],
    ["gen", "--what", "mcis", "--l", "-2"],
    ["verify", "--suite", "misvw", "--count", "-1"],
    ["verify", "--suite", "misvw", "--count", "0"],
])
def test_non_positive_size_is_a_usage_error(argv, capsys):
    from symcsp.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_twosat_lift_guard_fires_before_allocating(tmp_path, capsys):
    from symcsp.cli import main

    assert main(["gen", "--what", "mcis", "--seed", "4", "--output", str(tmp_path / "m.json")]) == 0
    assert main(["reduce", "--source", "mcis", "--input", str(tmp_path / "m.json"),
                 "--output", str(tmp_path / "sat.json")]) == 0
    argv = ["reduce", "--source", "2sat", "--r", str(10 ** 12), "--input", str(tmp_path / "sat.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("guard: 2-SAT lift guarded at ")


def _peak_bytes(argv):
    """(exit code, peak traced allocation) of one in-process CLI call."""
    import tracemalloc

    from symcsp.cli import main

    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("delta", ["nan", "0", "-1", "2", "inf", "-inf", "1"])
@pytest.mark.parametrize("what", ["and", "2ae"])
def test_delta_outside_the_open_unit_interval_is_a_usage_error(what, delta, tmp_path, capsys):
    # these inputs build no random family, so only the parser can reject δ
    from symcsp.cli import main

    path = tmp_path / "i.json"
    assert main(["gen", "--what", what, "--seed", "4", "--output", str(path)]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--input", str(path), "--coloring", "random", f"--delta={delta}"])
    assert exit_info.value.code == 2
    assert "must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--time-limit-ms", "-5"],
    ["solve", "--q-override", "-1"],
    ["verify", "--q-override", "-1"],
])
def test_negative_limits_are_usage_errors(argv, tmp_path, capsys):
    # a negative time limit would read as a passed deadline and a negative q
    # as 0; 0 itself stays valid for both
    from symcsp.cli import main

    path = tmp_path / "i.json"
    assert main(["gen", "--what", "and", "--seed", "4", "--output", str(path)]) == 0
    if argv[0] == "solve":
        argv = argv + ["--input", str(path)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["and", "oracle"])
def test_graph_instance_rejects_a_csp_algorithm(algo, tmp_path, capsys):
    # a graph instance runs the cut pipeline only, so asking for another
    # solver is a schema error, as --algo cut is on a CSP AND instance
    from symcsp.cli import main

    path = tmp_path / "g.json"
    assert main(["gen", "--what", "cut", "--seed", "9", "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--input", str(path), "--algo", algo]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"schema error: --algo {algo}" in err
    for accepted in ("auto", "cut"):
        assert main(["solve", "--input", str(path), "--algo", accepted]) == 0


@pytest.mark.parametrize("graph", [
    {"num_vertices": 10 ** 8, "k": 1, "edges": [{"u": 0, "v": 1, "type": 1, "in_P": True}]},
    {"k": 1, "edges": [{"u": 0, "v": 10 ** 9, "type": 1, "in_P": True}]},
])
def test_graph_vertex_guard_fires_before_allocating(tmp_path, capsys, graph):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, peak = _peak_bytes(["solve", "--input", str(path)])
    assert code == 3 and peak < 1 << 20
    assert capsys.readouterr().err.startswith("guard: graph of ")


def test_random_and_family_guard_fires_before_drawing(tmp_path, capsys):
    # 30 free variables, arity 3, k = 4: (a, b) = (12, 12) asks for about
    # 2.3e8 Monte-Carlo colorings
    rng = random.Random(5)
    clauses = [
        {"in_P": False, "neg": [0, 0, 0], "scope": rng.sample(range(30), 3)} for _ in range(12)
    ]
    path = tmp_path / "and.json"
    path.write_text(json.dumps({"mode": "and", "num_vars": 30, "k": 4, "clauses": clauses}))
    code, peak = _peak_bytes(["solve", "--input", str(path), "--coloring", "random", "--seed", "1"])
    assert code == 3 and peak < 1 << 20
    assert capsys.readouterr().err.startswith("guard: random family of ")


@pytest.mark.parametrize("counts", [[0, 1, 2], [0, 2]], ids=["trivial", "2ae"])
def test_csp_variable_guard_fires_before_allocating(tmp_path, capsys, counts):
    n = (1 << 18) + 1
    doc = {"mode": "sym", "r": 2, "S": counts, "num_vars": n, "k": 1,
           "clauses": [{"neg": [0, 0], "scope": [0, n - 1], "in_P": False}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, peak = _peak_bytes(["solve", "--input", str(path)])
    assert code == 3 and peak < 1 << 20
    assert capsys.readouterr().err.startswith("guard: instance of ")


@pytest.mark.parametrize("argv, doc", [
    (["solve"], {"mode": "and", "num_vars": -5, "k": 0, "clauses": []}),
    (["reduce", "--source", "mincsp"], {"mode": "and", "num_vars": -5, "k": 0, "clauses": []}),
    (["solve"], {"num_vertices": -3, "k": 0, "edges": []}),
], ids=["solve_csp", "reduce_mincsp", "solve_graph"])
def test_negative_sizes_are_schema_errors(tmp_path, capsys, argv, doc):
    from symcsp.cli import main

    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("schema error: ")
    assert "must be nonnegative" in out.err


@pytest.mark.parametrize("count", [2000, 20000])
def test_and_clause_mask_guard_fires_before_allocating(tmp_path, capsys, count):
    # unit clauses on the top variables below 2^18: their masks would take
    # count * 2^18 bits, so normalization refuses them before building one
    n = 1 << 18
    doc = {"mode": "and", "num_vars": n, "k": 1,
           "clauses": [{"neg": [0], "scope": [n - 1 - i], "in_P": i == 0} for i in range(count)]}
    path = tmp_path / "masks.json"
    path.write_text(json.dumps(doc))
    code, peak = _peak_bytes(["solve", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("guard: clause masks of ") and "Traceback" not in err
    # the masks alone would take count * 2^18 / 8 bytes
    assert peak < count * 4096


# valid reduction sources, as `symcsp gen --seed 1` writes them
PAIRED_CUT = {"num_vertices": 4, "edges": [[0, 3], [3, 1], [0, 2], [2, 1]], "s": 0, "t": 1,
              "l": 1, "pairs": [[0, 2], [1, 3]], "paths": [[0, 1], [2, 3]]}
MCIS = {"num_vertices": 6, "parts": [[0, 1, 2], [3, 4, 5]],
        "edges": [[0, 1], [0, 4], [1, 5], [2, 3], [3, 5]]}

# inputs carrying one integer field as a bool, a float or a string; each
# was once truncated, converted or raised a traceback and must now be a
# schema error
NON_INTEGER_INPUTS = {
    "misvw-vertex-float": (["misvw"], {"num_vertices": 2, "hyperedges": [[0.7, 1]],
                                       "weights": [1, 1]}),
    "misvw-float-equal-to-vertex": (["misvw"], {"num_vertices": 2, "hyperedges": [[1, 1.0]],
                                                "weights": [1, 1]}),
    "misvw-vertex-bool": (["misvw"], {"num_vertices": 2, "hyperedges": [[True]],
                                      "weights": [1, 1]}),
    "misvw-weight-float": (["misvw"], {"num_vertices": 2, "hyperedges": [[0, 1]],
                                       "weights": [1.9, -0.5]}),
    "misvw-weight-string": (["misvw"], {"num_vertices": 1, "hyperedges": [[0]],
                                        "weights": ["3"]}),
    "misvw-size-float": (["misvw"], {"num_vertices": 1.0, "hyperedges": [[0]], "weights": [1]}),
    "graph-k-float": (["solve"], {"num_vertices": 2, "k": 1.9,
                                  "edges": [{"u": 0, "v": 1, "type": 1, "in_P": True}]}),
    "graph-u-float": (["solve"], {"num_vertices": 2, "k": 1,
                                  "edges": [{"u": 0.2, "v": 1, "type": 1, "in_P": True}]}),
    "graph-type-string": (["solve"], {"num_vertices": 2, "k": 1,
                                      "edges": [{"u": 0, "v": 1, "type": "1", "in_P": True}]}),
    "graph-size-bool": (["solve"], {"num_vertices": True, "k": 0, "edges": []}),
    "csp-num-vars-float": (["solve"], {"mode": "and", "num_vars": 2.0, "k": 0, "clauses": []}),
    "csp-k-bool": (["solve"], {"mode": "and", "num_vars": 2, "k": True, "clauses": []}),
    "csp-r-string": (["solve"], {"mode": "sym", "r": "2", "S": [0, 2], "num_vars": 2, "k": 0,
                                 "clauses": []}),
    "csp-S-float": (["solve"], {"mode": "sym", "r": 2, "S": [0, 2.0], "num_vars": 2, "k": 0,
                                "clauses": []}),
    "csp-neg-bool": (["solve"], {"mode": "and", "num_vars": 2, "k": 0,
                                 "clauses": [{"neg": [0, True], "scope": [0, 1], "in_P": True}]}),
    "csp-scope-float": (["reduce", "--source", "mincsp"],
                        {"mode": "and", "num_vars": 2, "k": 0,
                         "clauses": [{"neg": [0, 0], "scope": [0, 1.5], "in_P": True}]}),
    "csp-multi-S-string": (["solve"], {"mode": "multi", "num_vars": 2, "k": 0,
                                       "clauses": [{"neg": [0, 0], "scope": [0, 1], "S": ["0", 2],
                                                    "in_P": True}]}),
    "paired-cut-size-float": (["reduce", "--source", "paired-cut"],
                              {**PAIRED_CUT, "num_vertices": 6.9}),
    "paired-cut-s-float": (["reduce", "--source", "paired-cut"], {**PAIRED_CUT, "s": 0.4}),
    "paired-cut-edge-float": (["reduce", "--source", "paired-cut"],
                              {**PAIRED_CUT, "edges": [[0, 3.0], [3, 1], [0, 2], [2, 1]]}),
    "paired-cut-pair-float": (["reduce", "--source", "paired-cut"],
                              {**PAIRED_CUT, "pairs": [[0, 2.0], [1, 3]]}),
    "paired-cut-path-float": (["reduce", "--source", "paired-cut"],
                              {**PAIRED_CUT, "paths": [[0.0, 1], [2, 3]]}),
    "mcis-part-bool": (["reduce", "--source", "mcis"],
                       {**MCIS, "parts": [[False, 1, 2], [3, 4, 5]]}),
    "mcis-edge-float": (["reduce", "--source", "mcis"],
                        {**MCIS, "edges": [[0, 1.0], [0, 4], [1, 5], [2, 3], [3, 5]]}),
    "mcis-size-float": (["reduce", "--source", "mcis"], {**MCIS, "num_vertices": 6.9}),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUTS))
def test_integer_fields_reject_bools_floats_and_strings(name, tmp_path, capsys):
    from symcsp.cli import main

    argv, doc = NON_INTEGER_INPUTS[name]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("schema error: ")
    assert "is not an integer" in out.err and out.err.count("\n") == 1


@pytest.mark.parametrize("value", ["no", 1, 0, None, [True]])
@pytest.mark.parametrize("form", ["csp", "graph"])
def test_in_p_accepts_only_json_booleans(form, value, tmp_path, capsys):
    # any truthy value once counted as proposed
    from symcsp.cli import main

    row = {"neg": [0, 0], "scope": [0, 1]} if form == "csp" else {"u": 0, "v": 1, "type": 1}
    doc = {"num_vertices": 2, "k": 0, "edges": [{**row, "in_P": value}]}
    if form == "csp":
        doc = {"mode": "sym", "r": 2, "S": [0, 2], "num_vars": 2, "k": 0,
               "clauses": [{**row, "in_P": value}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("schema error: ") and "is not a boolean" in out.err


# one valid document per JSON reader, each read by the subcommands listed
FUZZ_BASES = [
    ([["solve"], ["reduce", "--source", "2sat", "--r", "3"], ["reduce", "--source", "mincsp"],
      ["reduce", "--source", "pad-ae"]],
     {"mode": "sym", "r": 2, "S": [0, 2], "num_vars": 3, "k": 1, "clauses": [
         {"neg": [0, 0], "scope": [0, 1], "in_P": True},
         {"neg": [0, 1], "scope": [1, 2], "in_P": False}]}),
    ([["solve"], ["reduce", "--source", "2sat", "--r", "3"]],
     {"mode": "and", "num_vars": 3, "k": 1, "clauses": [
         {"neg": [0, 1], "scope": [0, 1], "in_P": True},
         {"neg": [1], "scope": [2], "in_P": False}]}),
    ([["solve"], ["reduce", "--source", "pad-ae"]],
     {"mode": "multi", "num_vars": 3, "k": 1, "clauses": [
         {"neg": [0, 0, 1], "scope": [0, 1, 2], "S": [0, 3], "in_P": True},
         {"neg": [0, 1], "scope": [1, 2], "S": [0, 2], "in_P": False}]}),
    ([["solve"]],
     {"num_vertices": 3, "k": 1, "edges": [
         {"u": 0, "v": 1, "type": 1, "in_P": True},
         {"u": 1, "v": 2, "type": 0, "in_P": False},
         {"u": 0, "v": 2, "type": 1, "in_P": True}]}),
    ([["misvw"]], {"num_vertices": 3, "hyperedges": [[0, 1], [1, 2]], "weights": [1, -2, 1]}),
]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _fuzzed(draw, base):
    """`base` with some of its values, at any depth, replaced by JSON values,
    and some of its object keys dropped."""
    if draw(st.integers(0, 7)) == 0:
        return draw(_json_values)
    if isinstance(base, dict):
        return {key: draw(_fuzzed(v)) for key, v in base.items() if draw(st.integers(0, 9))}
    if isinstance(base, list):
        return [draw(_fuzzed(v)) for v in base]
    return base


_fuzz_cases = st.sampled_from(FUZZ_BASES).flatmap(
    lambda base: st.tuples(st.sampled_from(base[0]), _fuzzed(base[1])))


@settings(max_examples=400, deadline=None)
@given(_fuzz_cases)
# "clauses" that is not a list was once iterated outside the schema check
@example((["solve"], {**FUZZ_BASES[0][1], "clauses": 5}))
@example((["reduce", "--source", "mincsp"], {**FUZZ_BASES[0][1], "clauses": None}))
def test_no_json_value_makes_a_subcommand_raise(tmp_path_factory, case):
    # every failure maps to a schema, guard or verification exit code
    from symcsp.cli import main

    argv, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--input", str(path)])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert (code == 0) == (out.getvalue() != "")


@pytest.mark.parametrize("argv, doc, message", [
    (["reduce", "--source", "paired-cut"],
     {**PAIRED_CUT, "edges": [[0, 3, 1], [3, 1], [0, 2], [2, 1]]}, "too many values to unpack"),
    (["reduce", "--source", "paired-cut"], {**PAIRED_CUT, "paths": [[0, 9], [2, 3]]},
     "index out of range"),
    (["reduce", "--source", "mcis"], {**MCIS, "edges": [[0], [0, 4], [1, 5], [2, 3], [3, 5]]},
     "not enough values to unpack"),
], ids=["paired-cut-edge-triple", "paired-cut-path-id", "mcis-edge-single"])
def test_reduction_source_shapes_are_schema_errors(tmp_path, capsys, argv, doc, message):
    # each once escaped the schema check and printed a traceback
    from symcsp.cli import main

    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("schema error: ") and message in out.err


def test_mcis_cover_check_builds_no_vertex_range(tmp_path, capsys):
    # the parts cover 6 vertices; the check once built a set of all
    # num_vertices ids before it compared
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**MCIS, "num_vertices": 10 ** 6}))
    code, peak = _peak_bytes(["reduce", "--source", "mcis", "--input", str(path)])
    assert code == 2 and peak < 1 << 20
    assert capsys.readouterr().err == "schema error: parts must cover the vertex set\n"


def test_paired_cut_vertex_guard_fires_before_allocating(tmp_path, capsys):
    # the acyclicity check once sized two lists by num_vertices before any
    # guard; the reduced instance would have one variable per vertex
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**PAIRED_CUT, "num_vertices": 10 ** 8}))
    code, peak = _peak_bytes(["reduce", "--source", "paired-cut", "--input", str(path)])
    assert code == 3 and peak < 1 << 20
    assert capsys.readouterr().err == (
        "guard: paired-cut source of 100000000 vertices exceeds guard 262144\n"
    )


SOLVE_DOCS = {
    "and": {"mode": "and", "num_vars": 5, "k": 2, "clauses": [
        {"neg": [0, 0], "scope": [0, 1], "in_P": True},
        {"neg": [1], "scope": [0], "in_P": False},
        {"neg": [0, 1], "scope": [2, 3], "in_P": False},
        {"neg": [0], "scope": [4], "in_P": True},
    ]},
    "graph": {"k": 1, "edges": [
        {"u": 0, "v": 1, "type": 1, "in_P": True},
        {"u": 1, "v": 2, "type": 0, "in_P": False},
        {"u": 0, "v": 2, "type": 1, "in_P": False},
    ]},
}


@pytest.mark.parametrize("kind", sorted(SOLVE_DOCS))
def test_solve_polls_a_clock_only_with_a_limit(tmp_path, capsys, monkeypatch, kind):
    from symcsp import core
    from symcsp.cli import main

    polls = []
    real = core.Deadline.expired
    monkeypatch.setattr(core.Deadline, "expired", lambda self: polls.append(1) or real(self))
    path = tmp_path / "in.json"
    path.write_text(json.dumps(SOLVE_DOCS[kind]))
    assert main(["solve", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert not polls and out["timeout"] is False
    if kind == "and":
        assert out["colorings_tried"] == 31  # the flip search ran, unpolled
    assert main(["solve", "--input", str(path), "--time-limit-ms", "0"]) == 0
    assert polls and json.loads(capsys.readouterr().out)["timeout"] is True


def test_parser_is_built_once_and_handlers_are_looked_up_per_call(monkeypatch, capsys):
    from symcsp import cli

    cli.build_parser.cache_clear()
    assert cli.main(["classify", "--r", "2", "--S", "0,2"]) == 0
    assert cli.main(["classify", "--r", "3", "--S", "0,3"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()

    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.input) or 0)
    assert cli.main(["solve", "--input", "patched.json"]) == 0
    assert seen == ["patched.json"]
    assert cli.build_parser.cache_info().misses == 1


def test_random_family_draws_stop_at_the_deadline(tmp_path, capsys):
    # 40 relevant variables, 30 clauses of arity 4, k = 2: the random family
    # holds 908,522 colorings, which took seconds to draw in full before the
    # first deadline poll.  Drawn lazily, the walk polls between draws.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import inputs
    from symcsp.cli import main

    raw = inputs.and_raw("item11", 40, 2, 30, (4,), list(range(40)), True)
    path = tmp_path / "and.json"
    path.write_text(json.dumps(inputs.and_json(raw)))
    start = time.perf_counter()
    code = main(["solve", "--input", str(path), "--coloring", "random", "--seed", "1",
                 "--time-limit-ms", "50"])
    assert code == 0 and time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["timeout"] is True


def test_forced_oracle_stops_at_the_deadline(tmp_path, capsys, monkeypatch):
    # 24 clause variables: 2^24 assignments, scored in 16 blocks.  Under a
    # 1 ms limit the first block is scored and the deadline, polled between
    # blocks, skips the rest; without a limit no clock is polled.
    from symcsp import core
    from symcsp.cli import main

    rng = random.Random(22)
    scopes = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)]
    scopes += [rng.sample(range(24), 3) for _ in range(16)]
    doc = {"mode": "sym", "r": 3, "S": [0, 3], "num_vars": 24, "k": 2, "clauses": [
        {"neg": [rng.randint(0, 1) for _ in s], "scope": s, "in_P": rng.random() < 0.5}
        for s in scopes
    ]}
    path = tmp_path / "hard24.json"
    path.write_text(json.dumps(doc))
    polls = []
    real = core.Deadline.expired
    monkeypatch.setattr(core.Deadline, "expired", lambda self: polls.append(1) or real(self))

    start = time.perf_counter()
    assert main(["solve", "--input", str(path), "--force-oracle"]) == 0
    unlimited = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out)["timeout"] is False and not polls

    start = time.perf_counter()
    assert main(["solve", "--input", str(path), "--force-oracle", "--time-limit-ms", "1"]) == 0
    limited = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert out["timeout"] is True and polls
    assert len(out["assignment"]) == 24
    assert limited < unlimited / 4
