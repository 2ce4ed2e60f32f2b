import json
import subprocess
import sys

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


def test_misvw_subcommand(tmp_path):
    obj = {"num_vertices": 2, "hyperedges": [[0, 1]], "weights": [0, 0]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(obj))
    out = json.loads(run_cli("misvw", "--input", str(path)))
    assert out == {"objective": 1, "selected": [0, 1]}


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
