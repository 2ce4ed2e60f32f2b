"""Command-line front end: classify, solve, misvw, reduce, gen, verify.

All I/O is newline-terminated JSON with sorted keys, so identical inputs,
seeds, and configuration produce byte-identical outputs.  Exit codes:
0 success, 2 schema or usage error, 3 guard/limit violation (including
running out of stack or memory), 4 verification mismatch.  Each
subcommand accepts only the options it reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain

from . import classifier, generators, oracle, reductions
from .and_solver import solve_and
from .core import (
    Deadline,
    GuardError,
    SchemaError,
    SolveContext,
    StructureError,
    VerificationError,
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    json_int,
    json_ints,
    require_ints,
    satisfied_set,
)
from .coloring import DEFAULT_DELTA
from .cut_solver import (
    CutEdge, CutGraph, cut_improve, cut_value, satisfied_edges, solve_2ae,
    solve_components, split_components,
)
from .flow import WeightedHypergraph, solve_mis_vw
from .reductions import (
    MulticoloredISInstance,
    PairedMinCutInstance,
    generate_mcis,
    generate_paired_cut,
    mcis_to_2sat,
    mincsp_to_improve,
    pad_ae,
    paired_cut_to_3ae,
    paired_cut_to_4ae,
    twosat_to_le1,
    validate_mcis,
    validate_paired_cut,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4
SOLVE_SIZE_GUARD = 1 << 18  # vertices or variables of a solve input


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"number {text} is not finite")
    return value


def _read_json(path):
    """JSON from a path (`-` = stdin).  NaN, infinities and numbers too large
    for a float are schema errors, like unreadable or malformed input."""
    numbers = dict(parse_float=_finite, parse_constant=_finite)
    try:
        if path == "-":
            return json.load(sys.stdin, **numbers)
        with open(path) as fh:
            return json.load(fh, **numbers)
    except (OSError, ValueError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _probability(text):
    value = float(text)
    if not 0.0 < value < 1.0:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


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
        k = json_int(obj["k"])
        edges = tuple(
            CutEdge(i, json_int(r["u"]), json_int(r["v"]), json_int(r["type"]))
            for i, r in enumerate(rows)
        )
        n = json_int(obj.get("num_vertices", max((max(e.u, e.v) for e in edges), default=-1) + 1))
        p = frozenset(i for i, r in enumerate(rows) if r["in_P"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad graph object: {e}")
    if k < 0:
        raise SchemaError("k must be nonnegative")
    if n > SOLVE_SIZE_GUARD:
        # the solve sizes its union-find and per-vertex output by n
        raise GuardError(f"graph of {n} vertices exceeds guard {SOLVE_SIZE_GUARD}")
    return CutGraph(n, edges), p, k


def _note_fallbacks(run) -> None:
    """Say on stderr that the cut pipeline's minimum-cost step gave up; the
    stdout JSON stays as it is."""
    if run.fallbacks:
        print(f"note: the minimum-cost step gave up on {run.fallbacks} component(s) "
              "(promise violated or deadline passed); solved from the greedy partition",
              file=sys.stderr)


def cmd_solve(args):
    obj = _read_json(args.input)
    # no limit, no deadline: the solvers then never poll a clock
    deadline = None if args.time_limit_ms is None else Deadline(args.time_limit_ms)
    if "edges" in obj and "clauses" not in obj:
        graph, p_ids, k = _graph_from_json(obj)
        # each connected component is solved on its own, keeping its sides
        solved, run = solve_components(
            split_components(graph, range(graph.num_vertices), p_ids, k),
            mode=args.coloring,
            seed=args.seed,
            delta=args.delta,
            q_override=args.q_override,
            deadline=deadline,
        )
        _note_fallbacks(run)
        mask = 0
        for sub_mask, verts in solved:
            for i, v in enumerate(verts):
                mask |= ((sub_mask >> i) & 1) << v
        _write(
            args,
            {
                "side": [(mask >> v) & 1 for v in range(graph.num_vertices)],
                "value": cut_value(graph, mask),
                "satisfied": sorted(satisfied_edges(graph, mask)),
                "recurse_steps": run.recurse_steps,
                "timeout": run.timed_out,
            },
        )
        return EXIT_OK

    instance, proposed = instance_from_json(obj)
    if instance.num_vars > SOLVE_SIZE_GUARD:
        # every solver sizes per-variable lists and its output by num_vars
        raise GuardError(
            f"instance of {instance.num_vars} variables exceeds guard {SOLVE_SIZE_GUARD}"
        )
    # one verdict per distinct language, in order of first appearance
    languages = dict.fromkeys(c.language for c in instance.clauses)
    verdicts = {classifier.classify(lang.arity, lang.counts).label for lang in languages}
    algo = args.algo
    if algo == "auto":
        if verdicts <= {"Trivial"}:
            algo = "trivial"
        elif instance.is_and_family() and verdicts <= {"Trivial", "FPT_rAND"}:
            algo = "and"
        elif len(languages) == 1 and verdicts == {"FPT_2AE"}:
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
        assignment, run = solve_and(
            instance, proposed, mode=args.coloring, seed=args.seed,
            delta=args.delta, deadline=deadline,
        )
        out["timeout"] = run.timed_out
        out["colorings_tried"] = run.colorings_tried
    elif algo == "cut":
        assignment, run = solve_2ae(
            instance, proposed, mode=args.coloring, seed=args.seed,
            delta=args.delta, q_override=args.q_override, deadline=deadline,
        )
        _note_fallbacks(run)
        out["timeout"] = run.timed_out
        out["recurse_steps"] = run.recurse_steps
    elif algo == "oracle":
        if not args.force_oracle and "W1_Hard" in verdicts:
            raise GuardError(
                "refusing exhaustive search on a hard language without "
                "--force-oracle"
            )
        run = SolveContext(deadline=deadline)
        report = oracle.brute_force_improve(instance, proposed.k, proposed.clause_ids, run)
        out["timeout"] = run.timed_out
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
        rows = obj["hyperedges"]
        # types per membership: true or 1.0 must not stand for vertex 1
        require_ints(chain.from_iterable(rows))
        h = WeightedHypergraph(json_int(obj["num_vertices"]), rows, json_ints(obj["weights"]))
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
            json_int(obj["num_vertices"]),
            tuple(map(json_ints, obj["edges"])),
            json_int(obj["s"]),
            json_int(obj["t"]),
            json_int(obj["l"]),
            tuple(map(json_ints, obj["pairs"])),
            tuple(map(json_ints, obj["paths"])),
        )
        if src.num_vertices > SOLVE_SIZE_GUARD:
            # the acyclicity check sizes lists by the vertices, and the reduced
            # instance has one variable per vertex
            raise GuardError(
                f"paired-cut source of {src.num_vertices} vertices exceeds guard {SOLVE_SIZE_GUARD}"
            )
        validate_paired_cut(src)  # an edge that is not a pair, a path id out of range
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise SchemaError(f"bad paired-cut object: {e}")
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
            json_int(obj["num_vertices"]),
            tuple(map(json_ints, obj["parts"])),
            tuple(map(json_ints, obj["edges"])),
        )
        validate_mcis(src)  # an edge that is not a pair
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad multicolored-IS object: {e}")
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
        if solve_mis_vw(h) != oracle.brute_force_misvw(h):
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


@functools.cache
def build_parser():
    """The one parser of the process, built on first use.  It holds no
    handler: `main` looks up `cmd_<command>` in this module when it runs."""
    parser = argparse.ArgumentParser(
        prog="symcsp",
        description="Improvement solvers, classifier, and hardness reductions "
        "for symmetric Boolean CSPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options read by more than one subcommand; each subcommand names its own
    shared_options = {
        "--input": dict(default="-"),
        "--output": dict(default="-"),
        "--seed": dict(type=int, default=0),
        "--q-override": dict(type=int, default=None,
                             help="override the balanced-cut size threshold; "
                             "correctness then rests on the oracle checks"),
    }

    def subcommand(name, summary, *shared):
        p = sub.add_parser(name, help=summary)
        for flag in ("--output",) + shared:
            p.add_argument(flag, **shared_options[flag])
        return p

    p = subcommand("classify", "place a language on the dichotomy")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--S", required=True, help="comma-separated accepted counts")

    p = subcommand("solve", "solve an improvement instance",
                   "--input", "--seed", "--q-override")
    p.add_argument("--coloring", choices=("exhaustive", "random"),
                   default="exhaustive",
                   help="the AND flip search's coloring family; random mode "
                   "trades its deterministic covering guarantee for speed "
                   "(the cut pipeline is exact in both modes)")
    p.add_argument("--delta", type=_probability, default=DEFAULT_DELTA,
                   help="per-pair failure probability of a random AND family")
    p.add_argument("--time-limit-ms", type=int, default=None)
    p.add_argument("--force-oracle", action="store_true")
    p.add_argument("--algo", choices=("auto", "and", "cut", "oracle"),
                   default="auto",
                   help="solver selection; auto dispatches on the language "
                   "classification")

    subcommand("misvw", "weighted hypergraph selection (debug)", "--input")

    p = subcommand("reduce", "run a hardness reduction", "--input")
    p.add_argument("--source", required=True,
                   choices=("paired-cut", "mcis", "2sat", "mincsp", "pad-ae"))
    p.add_argument("--to", choices=("4ae", "3ae"), default="4ae")
    p.add_argument("--r", type=int, default=None)

    p = subcommand("gen", "generate a seeded source or instance", "--seed")
    p.add_argument("--what", required=True,
                   choices=("paired-cut", "mcis", "and", "2ae", "cut"))
    p.add_argument("--l", type=_positive_int, default=2)

    p = subcommand("verify", "solver-vs-oracle batches",
                   "--seed", "--q-override")
    p.add_argument("--suite", choices=("and", "cut", "misvw", "all"), default="all")
    p.add_argument("--count", type=_positive_int, default=25)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
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
    except (RecursionError, MemoryError) as e:
        print(f"guard: {type(e).__name__}: input too large for this solver",
              file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
