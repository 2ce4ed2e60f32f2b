"""The three benchmark workloads: inputs, one call, the frontier probe and the gate.

A workload builds `rounds` (the timed set: a list of rounds, each a list of
items run in order) and `probe` (rungs above the timed set, each a list of
items).  The timed loop runs whole passes over the rounds, so every run
sees the same mix of rungs and command kinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import check
import inputs

PROBE_LIMIT_MS = 1000


@dataclass
class Item:
    key: str
    rung: int | None
    kind: str
    raw: object
    args: tuple


def safe_call(workload, lib, item, deadline):
    """(status, output, error) where status is ok, timeout, guard, exit or error."""
    try:
        status, out = workload.call(lib, item, deadline)
        return status, out, None
    except lib.core.GuardError as e:
        return "guard", None, str(e)
    except Exception as e:  # any other failure is counted, never fatal
        return "error", None, f"{type(e).__name__}: {e}"


class AndFlip:
    name = "and_flip"
    rounds_built = 40
    trace_rounds = 40
    base_frontier = max(n for n, _ in inputs.AND_ROUND)

    def build(self, lib, seed, workdir):
        def item(rung, j):
            raw = inputs.and_flip_raw(seed, rung, j)
            return Item(f"{rung}:{j}", rung, "and", raw, inputs.materialize_and(lib, raw))

        rounds = [[item(n, 4 * j + r) for n, r in inputs.AND_ROUND] for j in range(self.rounds_built)]
        probe = [(n, [item(n, j) for j in range(inputs.PROBE_PER_RUNG)]) for n in inputs.AND_PROBE_RUNGS]
        return rounds, probe

    def call(self, lib, item, deadline):
        inst, prop = item.args
        out, stats = lib.and_solver.solve_and(inst, prop, mode="exhaustive", deadline=deadline)
        return ("timeout" if stats.timed_out else "ok"), tuple(out)

    def check(self, lib, item, out):
        return check.check_and(lib, item.raw, *item.args, out)


class CutTerminal:
    name = "cut_terminal"
    rounds_built = 20
    trace_rounds = 8
    base_frontier = max(inputs.CUT_TIMED_RUNGS)

    def build(self, lib, seed, workdir):
        def item(rung, j):
            raw = inputs.cut_terminal_raw(seed, rung, j)
            return Item(f"{rung}:{j}", rung, "cut", raw, (inputs.materialize_cut(lib, raw),))

        rounds = [[item(n, j) for n in inputs.CUT_TIMED_RUNGS] for j in range(self.rounds_built)]
        probe = [(n, [item(n, j) for j in range(inputs.PROBE_PER_RUNG)]) for n in inputs.CUT_PROBE_RUNGS]
        return rounds, probe

    def call(self, lib, item, deadline):
        mask, value, stats = lib.cut_solver.cut_improve(item.args[0], mode="exhaustive", deadline=deadline)
        return ("timeout" if stats.timed_out else "ok"), (mask, value)

    def check(self, lib, item, out):
        return check.check_cut(lib, item.raw, *out)


class CliMixed:
    """In-process `symcsp.cli.main(argv)` over a fixed command mix; the JSON
    files the commands read are written during set-up."""

    name = "cli_mixed"
    rounds_built = 12
    trace_rounds = 8
    base_frontier = inputs.CLI_PROBE_RUNGS[0] - 1

    def build(self, lib, seed, workdir: Path):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        rounds = []
        for j in range(self.rounds_built):
            calls = []
            for kind, name, payload in inputs.cli_round(seed, j):
                path = workdir / f"{name}.json"
                if kind == "classify":
                    r, s = payload
                    calls.append(Item(name, None, kind, payload,
                                      ("classify", "--r", str(r), "--S", ",".join(map(str, s)))))
                    continue
                if kind == "solve_and":
                    inputs.write_json(path, inputs.and_json(payload))
                elif kind == "solve_graph":
                    inputs.write_json(path, inputs.graph_json(payload))
                elif kind == "solve_2ae":
                    inputs.write_json(path, inputs.csp_2ae_json(payload))
                else:
                    inputs.write_json(path, payload)
                if kind in ("paired_cut", "mcis"):
                    reduced = workdir / f"{name}.reduced.json"
                    source = ["--source", "paired-cut", "--to", "4ae" if payload["l"] == 1 else "3ae"] \
                        if kind == "paired_cut" else ["--source", "mcis"]
                    calls.append(Item(f"{name}:reduce", None, "reduce", payload,
                                      ("reduce", *source, "--input", str(path), "--output", str(reduced))))
                    calls.append(Item(f"{name}:solve", None, kind, payload,
                                      ("solve", "--input", str(reduced), "--force-oracle")))
                elif kind == "misvw":
                    calls.append(Item(name, None, kind, payload, ("misvw", "--input", str(path))))
                else:
                    extra = () if kind == "solve_and" else ("--q-override", "8")
                    calls.append(Item(name, None, kind, payload, ("solve", "--input", str(path), *extra)))
            rounds.append(calls)
        probe = []
        for rung in inputs.CLI_PROBE_RUNGS:
            items = []
            for j in range(inputs.CLI_PROBE_PER_RUNG):
                raw = inputs.cli_probe_raw(seed, rung, j)
                path = workdir / f"probe_{rung}_{j}.json"
                inputs.write_json(path, inputs.csp_2ae_json(raw))
                items.append(Item(f"probe:{rung}:{j}", rung, "solve_2ae", raw,
                                  ("solve", "--input", str(path), "--time-limit-ms", str(PROBE_LIMIT_MS))))
            probe.append((rung, items))
        return rounds, probe

    def call(self, lib, item, deadline):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(list(item.args))
            except SystemExit as e:  # argparse rejects a command line
                code = e.code
        text = out.getvalue()
        if code != 0:
            return "exit", (code, err.getvalue())
        if item.args[0] == "solve" and json.loads(text)["timeout"]:
            return "timeout", text
        return "ok", text

    def check(self, lib, item, text):
        if item.kind == "reduce":
            return None  # checked through the solve on its output
        out = json.loads(text)
        if item.kind == "classify":
            return check.check_classify(item.raw, out)
        if item.kind == "misvw":
            return check.check_misvw(item.raw, out)
        if item.kind in ("paired_cut", "mcis"):
            reduced = Path(item.args[2]).read_text()
            return check.check_reduction(lib, item.kind, item.raw, reduced, out)
        if item.kind == "solve_graph":
            mask = sum(bit << v for v, bit in enumerate(out["side"]))
            return check.check_cut(lib, item.raw, mask, out["value"])
        if item.kind == "solve_2ae":
            mask = sum(bit << v for v, bit in enumerate(out["assignment"]))
            return check.check_cut(lib, item.raw, mask, out["value"])
        doc = inputs.and_json(item.raw)
        if check.csp_value(doc, out["assignment"]) != out["value"]:
            return "value_mismatch"
        return check.check_and(lib, item.raw, *inputs.materialize_and(lib, item.raw), out["assignment"])


WORKLOADS = {w.name: w for w in (AndFlip(), CutTerminal(), CliMixed())}
