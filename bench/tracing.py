"""Outside-in tracing of the symcsp layers.

`Trace.install` rebinds each traced function in every `symcsp` module that
holds it (including names imported directly, such as `cli.solve_and` or
`and_solver.solve_mis_vw`), so calls between modules go through the
wrappers.  A span wrapper appends [name, start, end, parent] to an
in-memory list; a counter wrapper only counts calls.  `uninstall` restores
the original bindings.

`LAYERS` is the single table of per-layer metrics: which spans or counters
feed each one and which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from check import canonical_counts

SPANS = {
    # span name: (module, attribute)
    "core.instance_from_json": ("core", "instance_from_json"),
    "core.dumps_canonical": ("core", "dumps_canonical"),
    "core.satisfied_set": ("core", "satisfied_set"),
    "classifier.classify": ("classifier", "classify"),
    "and_solver.solve_and": ("and_solver", "solve_and"),
    "and_solver.renormalize": ("and_solver", "renormalize"),
    "and_solver.solve_satisfiable_p": ("and_solver", "solve_satisfiable_p"),
    "and_solver.build_flip_class_hypergraph": ("and_solver", "build_flip_class_hypergraph"),
    "and_solver.instance_value": ("and_solver", "instance_value"),
    "coloring.build_coloring_family": ("coloring", "build_coloring_family"),
    "flow.solve_mis_vw": ("flow", "solve_mis_vw"),
    "flow.max_flow_min_cut": ("flow", "max_flow_min_cut"),
    "cut_solver.cut_improve": ("cut_solver", "cut_improve"),
    "cut_solver.edge_to_vertex_solution": ("cut_solver", "edge_to_vertex_solution"),
    "cut_solver.find_kq_cut": ("cut_solver", "find_kq_cut"),
    "cut_solver.solve_terminal_no_kqcut": ("cut_solver", "solve_terminal_no_kqcut"),
    "cut_solver.solve_terminal_direct": ("cut_solver", "solve_terminal_direct"),
    "cut_solver.recurse_step": ("cut_solver", "recurse_step"),
    "cut_solver.lift_table": ("cut_solver", "lift_table"),
    "reductions.build": [("reductions", f) for f in (
        "paired_cut_to_4ae", "paired_cut_to_3ae", "mcis_to_2sat",
        "twosat_to_le1", "mincsp_to_improve", "pad_ae")],
    "reductions.validate": [("reductions", "validate_paired_cut"), ("reductions", "validate_mcis")],
    "oracle.brute_force_improve": ("oracle", "brute_force_improve"),
    "cli.main": ("cli", "main"),
    "cli.cmd_solve": ("cli", "cmd_solve"),
}

COUNTERS = {
    # counter name: (module, attribute); "Class.method" names patch the class
    "and_solver.assign_value": ("and_solver", "assign_value"),
    "flow.add_arc": ("flow", "FlowNetwork.add_arc"),
    "cut_solver.mincsp_2ae": ("cut_solver", "mincsp_2ae"),
    "cut_solver.kq_cut_conditions": ("cut_solver", "kq_cut_conditions"),
    "cut_solver.satisfied_edges": ("cut_solver", "satisfied_edges"),
}

# Per-layer metrics.  Each entry: metric name, unit, better, how it is
# computed (calls/time/self of span names, count of a counter, or a derived
# value), and the prediction (which end-to-end metric it should move where).
LAYERS = {
    "core": {
        "predicts": "latency_p50_ms on cli_mixed; near zero elsewhere",
        "metrics": [
            ("core.instance_from_json_s", "time", ["core.instance_from_json"]),
            ("core.dumps_canonical_s", "time", ["core.dumps_canonical"]),
            ("core.satisfied_set_s", "time", ["core.satisfied_set"]),
        ],
    },
    "classifier": {
        "predicts": "throughput_ips and latency_p50_ms on cli_mixed; zero on and_flip and cut_terminal",
        "metrics": [
            ("classifier.classify_calls", "calls", ["classifier.classify"]),
            ("classifier.classify_s", "time", ["classifier.classify"]),
            ("classifier.distinct_languages", "derived", None),
            ("classifier.useful_share", "derived", None),
        ],
    },
    "and_solver": {
        "predicts": "throughput_ips and latency_p90_ms on and_flip; near zero on cut_terminal",
        "metrics": [
            ("and_solver.assign_value_calls", "count", "and_solver.assign_value"),
            ("and_solver.renormalize_s", "time", ["and_solver.renormalize"]),
            ("and_solver.flip_search_s", "time", ["and_solver.solve_satisfiable_p"]),
            ("and_solver.flip_hypergraph_calls", "calls", ["and_solver.build_flip_class_hypergraph"]),
            ("and_solver.flip_hypergraph_s", "time", ["and_solver.build_flip_class_hypergraph"]),
            ("and_solver.instance_value_s", "time", ["and_solver.instance_value"]),
            ("and_solver.fallbacks", "derived", None),
        ],
    },
    "coloring": {
        "predicts": "frontier, success_share and peak_rss_mb on and_flip; frontier on cut_terminal",
        "metrics": [
            ("coloring.family_build_s", "time", ["coloring.build_coloring_family"]),
            ("coloring.colorings_built", "derived", None),
            ("coloring.guard_errors", "derived", None),
            ("coloring.useful_ratio", "derived", None),
        ],
    },
    "flow": {
        "predicts": "throughput_ips on and_flip (many tiny networks), latency_p90_ms on cli_mixed "
                    "(large misvw networks), latency_p90_ms on cut_terminal (min-cost compression)",
        "metrics": [
            ("flow.selection_calls", "calls", ["flow.solve_mis_vw"]),
            ("flow.selection_s", "time", ["flow.solve_mis_vw"]),
            ("flow.max_flow_calls", "calls", ["flow.max_flow_min_cut"]),
            ("flow.max_flow_s", "time", ["flow.max_flow_min_cut"]),
            ("flow.arcs_added", "count", "flow.add_arc"),
        ],
    },
    "cut_solver.direct": {
        "predicts": "throughput_ips, latency_p50_ms and frontier on cut_terminal",
        "metrics": [
            ("cut_solver.mincost_s", "time", ["cut_solver.edge_to_vertex_solution"]),
            ("cut_solver.mincost_decisions", "count", "cut_solver.mincsp_2ae"),
            ("cut_solver.kq_search_s", "time", ["cut_solver.find_kq_cut"]),
            ("cut_solver.kq_masks_checked", "count", "cut_solver.kq_cut_conditions"),
            ("cut_solver.terminal_table_s", "time",
             ["cut_solver.solve_terminal_no_kqcut", "cut_solver.solve_terminal_direct"]),
            ("cut_solver.satisfied_edges_calls", "count", "cut_solver.satisfied_edges"),
        ],
    },
    "cut_solver.recursion": {
        "predicts": "latency_p90_ms on cli_mixed; zero on cut_terminal",
        "metrics": [
            ("cut_solver.kq_cuts_found", "derived", None),
            ("cut_solver.recurse_steps", "calls", ["cut_solver.recurse_step"]),
            ("cut_solver.recurse_s", "time", ["cut_solver.recurse_step"]),
            ("cut_solver.lift_s", "time", ["cut_solver.lift_table"]),
            ("cut_solver.stalls", "derived", None),
        ],
    },
    "reductions": {
        "predicts": "latency_p50_ms on cli_mixed",
        "metrics": [
            ("reductions.build_s", "time", ["reductions.build"]),
            ("reductions.validate_s", "time", ["reductions.validate"]),
        ],
    },
    "oracle": {
        "predicts": "latency_p90_ms on cli_mixed (forced-oracle solves; reference checks excluded)",
        "metrics": [("oracle.brute_force_s", "time", ["oracle.brute_force_improve"])],
    },
    "cli": {
        "predicts": "latency_p50_ms on cli_mixed",
        "metrics": [
            ("cli.command_s", "time", ["cli.main"]),
            ("cli.dispatch_self_s", "self", ["cli.cmd_solve"]),
        ],
    },
}

UNITS = {"time": "s", "self": "s", "calls": "count", "count": "count"}
DERIVED_UNITS = {
    "classifier.distinct_languages": "count",
    "classifier.useful_share": "ratio",
    "and_solver.fallbacks": "count",
    "coloring.colorings_built": "count",
    "coloring.guard_errors": "count",
    "coloring.useful_ratio": "ratio",
    "cut_solver.kq_cuts_found": "count",
    "cut_solver.stalls": "count",
}
HIGHER_IS_BETTER = {"classifier.useful_share", "coloring.useful_ratio"}


def per_layer_metrics() -> list:
    """[(name, unit, better)] for every per-layer metric, trace overhead last."""
    out = []
    for layer in LAYERS.values():
        for name, how, _ in layer["metrics"]:
            unit = DERIVED_UNITS[name] if how == "derived" else UNITS[how]
            out.append((name, unit, "higher" if name in HIGHER_IS_BETTER else "lower"))
    out.append(("trace_overhead_share", "ratio", "lower"))
    return out


class Trace:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.languages = set()
        self._stack = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        error = getattr(self, "_error_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if error is not None:
                    error(e)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks reading the program's return values and errors ------------

    def _after_classifier_classify(self, out, args):
        self.languages.add((args[0], canonical_counts(args[0], args[1])))

    def _after_and_solver_solve_and(self, out, args):
        stats = out[1]
        self.counts["program.colorings_tried"] += stats.colorings_tried
        self.counts["program.fallbacks"] += stats.fallbacks

    def _after_cut_solver_cut_improve(self, out, args):
        stats = out[2]
        self.counts["program.recurse_steps"] += stats.recurse_steps
        self.counts["program.kq_cuts_found"] += stats.kq_cuts_found
        self.counts["program.no_cut_solves"] += stats.no_cut_solves

    def _after_coloring_build_coloring_family(self, out, args):
        self.counts["coloring.colorings_built"] += len(out.colorings)

    def _error_coloring_build_coloring_family(self, e):
        if type(e).__name__ == "GuardError":
            self.counts["coloring.guard_errors"] += 1

    def _after_cut_solver_find_kq_cut(self, out, args):
        self.counts["cut_solver.kq_cuts_found"] += out is not None

    def _after_cut_solver_recurse_step(self, out, args):
        self.counts["cut_solver.stalls"] += out[1].stalled

    # -- installation -----------------------------------------------------

    def install(self, lib) -> None:
        modules = list(vars(lib).values())
        for name, targets in SPANS.items():
            for module, attr in targets if isinstance(targets, list) else [targets]:
                self._rebind(lib, modules, module, attr, self._span(name, getattr(getattr(lib, module), attr)))
        for name, (module, attr) in COUNTERS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(getattr(lib, module), cls_name)
                self._restore.append((cls, meth, getattr(cls, meth)))
                setattr(cls, meth, self._counter(name, getattr(cls, meth)))
            else:
                self._rebind(lib, modules, module, attr, self._counter(name, getattr(getattr(lib, module), attr)))

    def _rebind(self, lib, modules, module, attr, wrapper) -> None:
        original = getattr(getattr(lib, module), attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- reading ----------------------------------------------------------

    def _group(self, names):
        """(calls, inclusive time of outermost spans, self time) over spans
        whose name is in `names`; a span nested in another of the group
        counts as a call but not again as time."""
        names = set(names)
        inside = [False] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        calls = 0
        total = self_total = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            hit = name in names
            outer = inside[parent] if parent >= 0 else False
            inside[i] = hit or outer
            if hit:
                calls += 1
                self_total += end - start - child_time[i]
                if not outer:
                    total += end - start
        return calls, total, self_total

    def metrics(self) -> dict:
        c = self.counts
        derived = {
            "classifier.distinct_languages": len(self.languages),
            "and_solver.fallbacks": c["program.fallbacks"],
            "coloring.colorings_built": c["coloring.colorings_built"],
            "coloring.guard_errors": c["coloring.guard_errors"],
            "cut_solver.kq_cuts_found": c["cut_solver.kq_cuts_found"],
            "cut_solver.stalls": c["cut_solver.stalls"],
        }
        out = {}
        for layer in LAYERS.values():
            for name, how, source in layer["metrics"]:
                if how == "derived":
                    out[name] = derived.get(name)
                elif how == "count":
                    out[name] = c[source]
                else:
                    calls, total, self_total = self._group(source)
                    out[name] = {"calls": calls, "time": total, "self": self_total}[how]
        calls = out["classifier.classify_calls"]
        out["classifier.useful_share"] = len(self.languages) / calls if calls else 0.0
        built = out["coloring.colorings_built"]
        out["coloring.useful_ratio"] = out["and_solver.flip_hypergraph_calls"] / built if built else 0.0
        return out

    def cross_check(self, metrics: dict) -> dict:
        """Wrapped-call counts against the program's own counters; a
        mismatch means a wrapper missed a directly imported name."""
        c = self.counts
        pairs = {
            "flip_hypergraph_calls=colorings_tried":
                (metrics["and_solver.flip_hypergraph_calls"], c["program.colorings_tried"]),
            "recurse_steps=CutStats.recurse_steps":
                (metrics["cut_solver.recurse_steps"], c["program.recurse_steps"]),
            "kq_cuts_found=CutStats.kq_cuts_found":
                (metrics["cut_solver.kq_cuts_found"], c["program.kq_cuts_found"]),
            "solve_terminal_no_kqcut_calls=CutStats.no_cut_solves":
                (self._group(["cut_solver.solve_terminal_no_kqcut"])[0], c["program.no_cut_solves"]),
        }
        return {k: {"traced": a, "program": b, "ok": a == b} for k, (a, b) in pairs.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
