"""Command-line front end: classify, solve, misvw, reduce, gen, verify.

All I/O is newline-terminated JSON with sorted keys, so identical inputs,
seeds, and configuration produce byte-identical outputs.  Exit codes:
0 success, 2 schema error, 3 guard/limit violation, 4 verification
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classifier, generators, oracle, reductions
from .and_solver import solve_and
from .core import (
    Deadline,
    GuardError,
    SchemaError,
    StructureError,
    VerificationError,
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    satisfied_set,
)
from .coloring import DEFAULT_DELTA
from .cut_solver import CutEdge, CutGraph, cut_improve, cut_value, satisfied_edges, split_components
from .flow import WeightedHypergraph, solve_mis_vw
from .reductions import (
    MulticoloredISInstance,
    PairedMinCutInstance,
    decode_mcis,
    decode_paired_cut,
    generate_mcis,
    generate_paired_cut,
    mcis_to_2sat,
    mincsp_to_improve,
    pad_ae,
    paired_cut_to_3ae,
    paired_cut_to_4ae,
    solve_mcis_bruteforce,
    solve_paired_cut_bruteforce,
    twosat_to_le1,
    validate_mcis,
    validate_paired_cut,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}")


def _write(args, obj):
    text = dumps_canonical(obj)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_counts(text):
    try:
        return frozenset(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise SchemaError(f"bad count set {text!r}")


def cmd_classify(args):
    verdict = classifier.classify(args.r, _parse_counts(args.S))
    _write(args, {"label": verdict.label, "certificate": verdict.certificate})
    return EXIT_OK


def _graph_from_json(obj):
    try:
        rows = obj["edges"]
        k = int(obj["k"])
        edges = tuple(
            CutEdge(i, int(r["u"]), int(r["v"]), int(r["type"]))
            for i, r in enumerate(rows)
        )
        n = int(obj.get("num_vertices", max((max(e.u, e.v) for e in edges), default=-1) + 1))
        p = frozenset(i for i, r in enumerate(rows) if r["in_P"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad graph object: {e}")
    if k < 0:
        raise SchemaError("k must be nonnegative")
    return CutGraph(n, edges), p, k


def cmd_solve(args):
    obj = _read_json(args.input)
    deadline = Deadline(args.time_limit_ms)
    if "edges" in obj and "clauses" not in obj:
        graph, p_ids, k = _graph_from_json(obj)
        # each connected component is solved on its own, keeping its sides
        mask, recurse_steps, timed_out = 0, 0, False
        for ci, verts in split_components(graph, range(graph.num_vertices), p_ids, k):
            sub_mask, _, stats = cut_improve(
                ci,
                mode=args.coloring,
                seed=args.seed,
                delta=args.delta,
                q_override=args.q_override,
                deadline=deadline,
            )
            for i, v in enumerate(verts):
                mask |= ((sub_mask >> i) & 1) << v
            recurse_steps += stats.recurse_steps
            timed_out = timed_out or stats.timed_out
        _write(
            args,
            {
                "side": [(mask >> v) & 1 for v in range(graph.num_vertices)],
                "value": cut_value(graph, mask),
                "satisfied": sorted(satisfied_edges(graph, mask)),
                "recurse_steps": recurse_steps,
                "timeout": timed_out,
            },
        )
        return EXIT_OK

    instance, proposed = instance_from_json(obj)
    lang = instance.homogeneous_language()
    verdicts = {classifier.classify(c.language.arity, c.language.counts).label
                for c in instance.clauses}
    algo = args.algo
    if algo == "auto":
        if verdicts <= {"Trivial"}:
            algo = "trivial"
        elif instance.is_and_family() and verdicts <= {"Trivial", "FPT_rAND"}:
            algo = "and"
        elif lang is not None and classifier.classify(lang.arity, lang.counts).label == "FPT_2AE":
            algo = "cut"
        elif args.force_oracle:
            algo = "oracle"
        else:
            raise GuardError(
                "language is not classified tractable here; pass --force-oracle "
                "to run the exhaustive solver anyway"
            )

    out = {"timeout": False, "colorings_tried": 0}
    if algo == "trivial":
        assignment = (0,) * instance.num_vars
    elif algo == "and":
        assignment, stats = solve_and(
            instance, proposed, mode=args.coloring, seed=args.seed,
            delta=args.delta, deadline=deadline,
        )
        out["timeout"] = stats.timed_out
        out["colorings_tried"] = stats.colorings_tried
    elif algo == "cut":
        from .cut_solver import solve_2ae

        assignment, stats_list = solve_2ae(
            instance, proposed, mode=args.coloring, seed=args.seed,
            delta=args.delta, q_override=args.q_override, deadline=deadline,
        )
        out["timeout"] = any(s.timed_out for s in stats_list)
        out["recurse_steps"] = sum(s.recurse_steps for s in stats_list)
    elif algo == "oracle":
        if not args.force_oracle and "W1_Hard" in verdicts:
            raise GuardError(
                "refusing exhaustive search on a hard language without "
                "--force-oracle"
            )
        report = oracle.brute_force_improve(instance, proposed.k, proposed.clause_ids)
        assignment = (
            report.neighborhood_witness
            if report.neighborhood_witness is not None
            else report.global_witness
        )
    else:
        raise SchemaError(f"unknown algorithm {algo!r}")
    sat = satisfied_set(instance, assignment)
    out.update(
        {
            "assignment": list(assignment),
            "satisfied": sorted(sat),
            "value": len(sat),
        }
    )
    _write(args, out)
    return EXIT_OK


def cmd_misvw(args):
    obj = _read_json(args.input)
    try:
        h = WeightedHypergraph(
            int(obj["num_vertices"]),
            tuple(frozenset(int(v) for v in e) for e in obj["hyperedges"]),
            tuple(int(w) for w in obj["weights"]),
        )
    except (KeyError, TypeError, ValueError, StructureError) as e:
        raise SchemaError(f"bad hypergraph: {e}")
    v0, value = solve_mis_vw(h)
    _write(args, {"selected": sorted(v0), "objective": value})
    return EXIT_OK


def _paired_cut_to_json(src):
    return {
        "num_vertices": src.num_vertices,
        "edges": [list(e) for e in src.edges],
        "s": src.s,
        "t": src.t,
        "l": src.l,
        "pairs": [list(p) for p in src.pairs],
        "paths": [list(p) for p in src.paths],
    }


def _paired_cut_from_json(obj):
    try:
        src = PairedMinCutInstance(
            int(obj["num_vertices"]),
            tuple(tuple(e) for e in obj["edges"]),
            int(obj["s"]),
            int(obj["t"]),
            int(obj["l"]),
            tuple(tuple(p) for p in obj["pairs"]),
            tuple(tuple(p) for p in obj["paths"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad paired-cut object: {e}")
    validate_paired_cut(src)
    return src


def _mcis_to_json(src):
    return {
        "num_vertices": src.num_vertices,
        "parts": [list(p) for p in src.parts],
        "edges": [list(e) for e in src.edges],
    }


def _mcis_from_json(obj):
    try:
        src = MulticoloredISInstance(
            int(obj["num_vertices"]),
            tuple(tuple(p) for p in obj["parts"]),
            tuple(tuple(e) for e in obj["edges"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad multicolored-IS object: {e}")
    validate_mcis(src)
    return src


def cmd_reduce(args):
    obj = _read_json(args.input)
    if args.source == "paired-cut":
        src = _paired_cut_from_json(obj)
        red = paired_cut_to_4ae if args.to == "4ae" else paired_cut_to_3ae
        inst, prop = red(src)
    elif args.source == "mcis":
        inst, prop = mcis_to_2sat(_mcis_from_json(obj))
    elif args.source == "2sat":
        if args.r is None:
            raise SchemaError("--r is required for the 2sat lift")
        inst0, prop0 = instance_from_json(obj)
        inst, prop = twosat_to_le1(inst0, prop0, args.r)
    elif args.source == "mincsp":
        inst0, prop0 = instance_from_json(obj)
        inst, prop = mincsp_to_improve(inst0, prop0.k)
    elif args.source == "pad-ae":
        inst0, prop0 = instance_from_json(obj)
        inst, prop = pad_ae(inst0, prop0)
    else:
        raise SchemaError(f"unknown reduction source {args.source!r}")
    _write(args, instance_to_json(inst, prop))
    return EXIT_OK


def cmd_gen(args):
    if args.what == "paired-cut":
        out = _paired_cut_to_json(generate_paired_cut(args.seed, args.l))
    elif args.what == "mcis":
        out = _mcis_to_json(generate_mcis(args.seed, args.l))
    elif args.what == "and":
        inst, prop = generators.gen_and_instance(args.seed)
        out = instance_to_json(inst, prop)
    elif args.what == "2ae":
        inst, prop = generators.gen_2ae_instance(args.seed)
        out = instance_to_json(inst, prop)
    elif args.what == "cut":
        ci = generators.gen_cut_instance(args.seed)
        out = {
            "num_vertices": ci.graph.num_vertices,
            "k": ci.k,
            "edges": [
                {"u": e.u, "v": e.v, "type": e.etype, "in_P": e.id in ci.p_ids}
                for e in ci.graph.edges
            ],
        }
    else:
        raise SchemaError(f"unknown generator {args.what!r}")
    _write(args, out)
    return EXIT_OK


def _verify_and(args):
    failures = 0
    for i in range(args.count):
        inst, prop = generators.gen_and_instance(args.seed + i)
        report = oracle.brute_force_improve(inst, prop.k, prop.clause_ids)
        if not report.promise_holds:
            failures += 1
            continue
        out, _ = solve_and(inst, prop, mode="exhaustive")
        if len(satisfied_set(inst, out)) < report.neighborhood_value:
            failures += 1
    return failures


def _verify_cut(args):
    failures = 0
    for i in range(args.count):
        ci = generators.gen_cut_instance(args.seed + i)
        triples = [(e.id, e.u, e.v) for e in ci.graph.edges]
        types = [e.etype for e in ci.graph.edges]
        report = oracle.brute_force_cut(
            ci.graph.num_vertices, triples, types, ci.p_ids, ci.k
        )
        q = 8 if args.q_override is None else args.q_override
        _, value, _ = cut_improve(ci, mode="exhaustive", q_override=q)
        if value != report.global_value:
            failures += 1
    return failures


def _verify_misvw(args):
    import random

    failures = 0
    rng = random.Random(args.seed)
    for _ in range(args.count):
        n = rng.randint(1, 10)
        m = rng.randint(0, 12)
        edges = tuple(
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(m)
        )
        weights = tuple(rng.randint(-3, 3) for _ in range(n))
        h = WeightedHypergraph(n, edges, weights)
        _, value = solve_mis_vw(h)
        _, expected = oracle.brute_force_misvw(h)
        if value != expected:
            failures += 1
    return failures


def cmd_verify(args):
    suites = {
        "and": _verify_and,
        "cut": _verify_cut,
        "misvw": _verify_misvw,
    }
    chosen = [args.suite] if args.suite != "all" else list(suites)
    rows = []
    total_failures = 0
    for name in chosen:
        failures = suites[name](args)
        total_failures += failures
        rows.append({"suite": name, "count": args.count, "failures": failures})
        print(f"{name:8s} count={args.count:4d} failures={failures:3d} "
              f"{'PASS' if failures == 0 else 'FAIL'}")
    if args.output and args.output != "-":
        _write(args, {"results": rows})
    return EXIT_OK if total_failures == 0 else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symcsp",
        description="Improvement solvers, classifier, and hardness reductions "
        "for symmetric Boolean CSPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", default="-")
        p.add_argument("--output", default="-")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--coloring", choices=("exhaustive", "random"),
                       default="exhaustive",
                       help="coloring family mode; random mode trades the "
                       "deterministic covering guarantee for speed")
        p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
        p.add_argument("--q-override", type=int, default=None,
                       help="override the balanced-cut size threshold; "
                       "correctness then rests on the oracle checks")
        p.add_argument("--time-limit-ms", type=int, default=None)
        p.add_argument("--force-oracle", action="store_true")

    p = sub.add_parser("classify", help="place a language on the dichotomy")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--S", required=True, help="comma-separated accepted counts")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="solve an improvement instance")
    common(p)
    p.add_argument("--algo", choices=("auto", "and", "cut", "oracle"),
                   default="auto",
                   help="solver selection; auto dispatches on the language "
                   "classification")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("misvw", help="weighted hypergraph selection (debug)")
    common(p)
    p.set_defaults(func=cmd_misvw)

    p = sub.add_parser("reduce", help="run a hardness reduction")
    common(p)
    p.add_argument("--source", required=True,
                   choices=("paired-cut", "mcis", "2sat", "mincsp", "pad-ae"))
    p.add_argument("--to", choices=("4ae", "3ae"), default="4ae")
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate a seeded source or instance")
    common(p)
    p.add_argument("--what", required=True,
                   choices=("paired-cut", "mcis", "and", "2ae", "cut"))
    p.add_argument("--l", type=int, default=2)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="solver-vs-oracle batches")
    common(p)
    p.add_argument("--suite", choices=("and", "cut", "misvw", "all"), default="all")
    p.add_argument("--count", type=int, default=25)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except GuardError as e:
        print(f"guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except VerificationError as e:
        print(f"verification mismatch: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except StructureError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
