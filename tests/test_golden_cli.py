"""Byte-level CLI output pinned against a recorded golden file.

Every command below runs in-process through ``symcsp.cli.main``; its stdout
and exit code must equal the entry recorded in ``golden_cli.json``, so a
refactor that changes any output byte fails here.  ``gen`` commands write to
stdout, and their output is saved under the name given so that later
commands can read it.

Regenerate (only when an output change is intended):
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from symcsp.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
# at both seeds the generated cut and 2AE inputs recurse on balanced cuts
# under --q-override 2, so contraction and the terminal tables are pinned too
SEEDS = (4, 7)


def _commands():
    """(name, argv, file to save stdout to or None), in run order."""
    cmds = []
    for what in ("paired-cut", "mcis", "and", "2ae", "cut"):
        for seed in SEEDS:
            name = f"gen_{what}_{seed}"
            argv = ["gen", "--what", what, "--seed", str(seed)]
            cmds.append((name, argv, f"{name}.json"))
    for what in ("and", "cut", "2ae"):
        for seed in SEEDS:
            src = ["--input", f"{{dir}}/gen_{what}_{seed}.json"]
            cmds.append((f"solve_{what}_{seed}", ["solve"] + src, None))
            cmds.append((
                f"solve_{what}_{seed}_random_q2",
                ["solve"] + src + ["--coloring", "random", "--seed", "3", "--q-override", "2"],
                None,
            ))
            if what != "and":
                cmds.append((
                    f"solve_{what}_{seed}_q2",
                    ["solve"] + src + ["--q-override", "2"],
                    None,
                ))
    for seed in SEEDS:
        for to in ("4ae", "3ae"):
            cmds.append((
                f"reduce_paired-cut_{seed}_{to}",
                ["reduce", "--source", "paired-cut", "--to", to,
                 "--input", f"{{dir}}/gen_paired-cut_{seed}.json"],
                None,
            ))
        cmds.append((
            f"reduce_mcis_{seed}",
            ["reduce", "--source", "mcis", "--input", f"{{dir}}/gen_mcis_{seed}.json"],
            None,
        ))
    for r in range(1, 9):
        for counts in sorted({f"0,{r}", f"{r}", "0,1", "1"}):
            cmds.append((f"classify_{r}_{counts}", ["classify", "--r", str(r), "--S", counts], None))
    cmds.append(("classify_bad", ["classify", "--r", "2", "--S", "5"], None))
    cmds.append(("verify_all_5", ["verify", "--suite", "all", "--count", "5"], None))
    return cmds


def _run_all(workdir: Path) -> dict:
    results = {}
    for name, argv, save in _commands():
        argv = [a.replace("{dir}", str(workdir)) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        results[name] = {"exit": code, "stdout": out.getvalue()}
        if save is not None:
            (workdir / save).write_text(out.getvalue())
    return results


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_command_list(golden):
    assert sorted(golden) == sorted(name for name, _, _ in _commands())


@pytest.mark.parametrize("name", [name for name, _, _ in _commands()])
def test_cli_output_matches_golden(name, outputs, golden):
    assert outputs[name] == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = _run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
