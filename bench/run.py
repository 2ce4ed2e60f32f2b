"""symcsp benchmark: one workload per run, one process, one thread.

    python3 bench/run.py --workload and_flip --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run is a closed loop with one client: each call starts only
after the previous one returns.

--trace 0 reports the end-to-end metrics: whole passes over the timed set
run until --seconds have passed (at least three passes).  Every timed
call is scaled to the reference host speed of bench/speed.py; an item's
latency is its median over the passes, latency percentiles are taken over
items and throughput is items per second at those latencies.  Then the
frontier probe runs, peak memory is read, and the correctness gate checks
every distinct output (outside the timed region, after the memory reading).

--trace 1 reports the per-layer metrics: a fixed list of rounds runs once
untraced and once traced (so counts repeat exactly for a seed), followed by
the traced probe; the trace is cross-checked against the program's own
counters.  --seconds does not apply.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A results file with informational fields
(src/ line count, versions, nproc, seed, commit) and the spans of a traced
run are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import speed
from tracing import LAYERS, Trace, per_layer_metrics
from workloads import PROBE_LIMIT_MS, WORKLOADS, safe_call

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
MIN_PASSES = 3
MODULES = ("core", "classifier", "coloring", "flow", "and_solver", "cut_solver",
           "reductions", "oracle", "generators", "cli")


END_TO_END_UNITS = {
    "throughput_ips": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "success_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "frontier": "rung",
}


def symcsp_modules():
    """Namespace of the symcsp package and its modules, imported from ./src."""
    package = importlib.import_module("symcsp")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"symcsp imported from {package.__file__}, not from {ROOT / 'src'}")
    lib = SimpleNamespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"symcsp.{name}"))
    return lib


def import_symcsp():
    """Fresh import of the package (earlier imports are dropped, so each
    set-up pays the import again)."""
    for name in [n for n in sys.modules if n == "symcsp" or n.startswith("symcsp.")]:
        del sys.modules[name]
    return symcsp_modules()


def setup(workload, seed):
    """Import symcsp and build the inputs SETUP_REPEATS times; the last build
    is used.  Set-up time is the median, each time scaled to the reference
    host speed like the timed calls; the unscaled median is returned too."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        reference_ms = statistics.median(speed.time_reference() for _ in range(9)) * 1000
        start = time.perf_counter()
        lib = import_symcsp()
        rounds, probe = workload.build(lib, seed, OUT / "inputs" / f"{workload.name}-seed{seed}")
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * speed.REFERENCE_MS / reference_ms)
    return lib, rounds, probe, statistics.median(scaled), statistics.median(times)


class Ledger:
    """Per-call latencies (grouped by item) and failures; distinct outputs
    kept for the gate."""

    def __init__(self, reference=False):
        self.reference = reference
        self.sequence = []  # (key, wall_s, reference_s) per call in run order, if reference
        self.latencies = {}
        self.attempted = 0
        self.failures = Counter()
        self.first_errors = {}
        self.outputs = {}
        self.items = {}
        self.calls = Counter()

    def run(self, workload, lib, items):
        for item in items:
            reference_s = speed.time_reference() if self.reference else None
            start = time.perf_counter()
            status, out, err = safe_call(workload, lib, item, None)
            wall = time.perf_counter() - start
            self.latencies.setdefault(item.key, []).append(wall)
            if self.reference:
                self.sequence.append((item.key, wall, reference_s))
            self.attempted += 1
            if status != "ok":
                self.failures[status] += 1
                self.first_errors.setdefault(status, [item.key, err if err else out])
                continue
            self.calls[item.key] += 1
            if item.key not in self.outputs:
                self.outputs[item.key], self.items[item.key] = out, item
            elif self.outputs[item.key] != out:
                self.failures["nondeterministic"] += 1

    def gate(self, workload, lib):
        for key, out in self.outputs.items():
            reason = workload.check(lib, self.items[key], out)
            if reason is not None:
                self.failures["wrong:" + reason] += self.calls[key]

    @property
    def wrong(self):
        return sum(v for k, v in self.failures.items() if k.startswith("wrong:") or k == "nondeterministic")


def probe(workload, lib, probe_items):
    """Frontier: the last rung above the timed set whose instances all
    finish correctly within the limit; stops at the first failing rung."""
    frontier, passed, stop = workload.base_frontier, [], None
    for rung, items in probe_items:
        for item in items:
            start = time.perf_counter()
            status, out, err = safe_call(workload, lib, item, lib.core.Deadline(PROBE_LIMIT_MS))
            wall = time.perf_counter() - start
            if status != "ok" or wall > PROBE_LIMIT_MS / 1000:
                stop = {"rung": rung, "item": item.key, "status": status, "wall_s": wall, "error": err}
                break
            passed.append((item, out))
        if stop:
            break
        frontier = rung
    return frontier, passed, stop


def gate_probe(workload, lib, frontier, passed):
    wrong = []
    for item, out in passed:
        reason = workload.check(lib, item, out)
        if reason is not None:
            wrong.append({"item": item.key, "reason": reason})
            frontier = min(frontier, item.rung - 1)
    return frontier, wrong


def git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def info(seed) -> dict:
    import numpy

    return {
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }


def by_kind(items, item_ms) -> dict:
    groups = {}
    for item in items:
        kind = item.kind if item.rung is None else f"{item.kind}{item.rung}"
        groups.setdefault(kind, []).append(item_ms[item.key])
    return {kind: [len(v), statistics.median(v)] for kind, v in sorted(groups.items())}


def run_untraced(workload, lib, rounds, probe_items, seconds):
    Ledger(reference=True).run(workload, lib, rounds[0])  # warm-up round, not timed
    ledger = Ledger(reference=True)
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or passes < MIN_PASSES:
        for round_items in rounds:
            ledger.run(workload, lib, round_items)
        passes += 1
    elapsed = time.perf_counter() - start
    frontier, passed, stop = probe(workload, lib, probe_items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ledger.gate(workload, lib)
    frontier, probe_wrong = gate_probe(workload, lib, frontier, passed)
    item_ms = {key: statistics.median(v) for key, v in speed.scaled_ms(ledger.sequence).items()}
    lat = sorted(item_ms.values())
    cuts = statistics.quantiles(lat, n=10)
    wall_ms = sorted(statistics.median(v) * 1000 for v in ledger.latencies.values())
    wall_cuts = statistics.quantiles(wall_ms, n=10)
    reference_ms = statistics.median(r for _, _, r in ledger.sequence) * 1000
    attempted = ledger.attempted
    failed = sum(ledger.failures.values())
    metrics = {
        "throughput_ips": 1000 * len(lat) / sum(lat),
        "latency_p50_ms": cuts[4],
        "latency_p90_ms": cuts[8],
        "success_share": 1 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "frontier": frontier,
    }
    details = {
        "passes": passes, "elapsed_s": elapsed, "calls": attempted,
        "calls_per_s": attempted / elapsed, "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > cuts[8]),
        "failed_share": failed / attempted, "failures": dict(ledger.failures),
        "first_errors": ledger.first_errors,
        "median_ms_by_kind": by_kind([i for r in rounds for i in r], item_ms),
        "reference_ms": reference_ms, "speed": speed.REFERENCE_MS / reference_ms,
        "wall": {"throughput_ips": 1000 * len(wall_ms) / sum(wall_ms),
                 "latency_p50_ms": wall_cuts[4], "latency_p90_ms": wall_cuts[8]},
        "probe_stop": stop, "probe_wrong": probe_wrong,
    }
    correct = ledger.wrong == 0 and not probe_wrong
    return correct, attempted, failed, metrics, details


def scaled_total(ledger) -> float:
    return sum(sum(v) for v in speed.scaled_ms(ledger.sequence).values())


def run_traced(workload, lib, rounds, probe_items, seed):
    items = [item for r in rounds[: workload.trace_rounds] for item in r]
    Ledger().run(workload, lib, rounds[0])  # warm-up round
    plain = Ledger(reference=True)
    start = time.perf_counter()
    plain.run(workload, lib, items)
    plain_s = time.perf_counter() - start
    trace = Trace()
    trace.install(lib)
    try:
        traced = Ledger(reference=True)
        start = time.perf_counter()
        traced.run(workload, lib, items)
        traced_s = time.perf_counter() - start
        frontier, passed, stop = probe(workload, lib, probe_items)
    finally:
        trace.uninstall()
    metrics = trace.metrics()
    # both runs scaled to the reference host speed, so drift between them
    # does not read as tracing cost
    metrics["trace_overhead_share"] = scaled_total(traced) / scaled_total(plain) - 1
    checks = trace.cross_check(metrics)
    traced.gate(workload, lib)
    _, probe_wrong = gate_probe(workload, lib, frontier, passed)
    same = plain.outputs == traced.outputs
    OUT.mkdir(exist_ok=True)
    trace.write_spans(OUT / f"spans-{workload.name}-seed{seed}.json")
    details = {
        "calls": len(items), "plain_s": plain_s, "traced_s": traced_s, "spans": len(trace.spans),
        "cross_check": checks, "traced_equals_untraced": same, "failures": dict(traced.failures),
        "probe_stop": stop, "probe_wrong": probe_wrong,
        "predictions": {layer: spec["predicts"] for layer, spec in LAYERS.items()},
    }
    correct = traced.wrong == 0 and not probe_wrong and same and all(c["ok"] for c in checks.values())
    return correct, len(items), sum(traced.failures.values()), metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        lib, rounds, probe_items, setup_s, setup_wall_s = setup(workload, args.seed)
    except ImportError as e:
        print(f"cannot import symcsp from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    if args.trace:
        correct, attempted, failed, values, details = run_traced(workload, lib, rounds, probe_items, args.seed)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        correct, attempted, failed, values, details = run_untraced(
            workload, lib, rounds, probe_items, args.seconds)
        values["setup_s"] = setup_s
        details["setup_wall_s"] = setup_wall_s
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    report = {"workload": args.workload, "trace": args.trace, "info": info(args.seed),
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "details": details}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_share':36s} {details['failed_share']:.6g} ratio "
              f"({failed} of {attempted} calls; {dict(details['failures'])})")
        print(f"host speed {details['speed']:.3f} of reference; unscaled wall time "
              f"{json.dumps(details['wall'])}")
        print(f"samples {details['samples']} items x {details['passes']} passes, "
              f"beyond p90 {details['beyond_p90']}, probe stop {details['probe_stop']}")
    else:
        print(f"cross-check {json.dumps(details['cross_check'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
