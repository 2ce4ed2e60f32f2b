"""Correctness gate, run outside the timed region and with tracing off.

Each check returns None when the output is correct and a short failure kind
otherwise.  Solver answers must score at least the exhaustive oracle's
neighborhood optimum; values the program reports are recomputed here from
the raw inputs; reduction outputs go through the strict decoders; classifier
labels are compared with the closed-form table; selection objectives are
compared with an independent scipy max-flow on the closure network.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from inputs import and_satisfied, cut_satisfied


def csp_value(doc: dict, assignment) -> int:
    """Satisfied clauses of a JSON-schema CSP instance under an assignment."""
    total = 0
    for c in doc["clauses"]:
        arity = len(c["scope"])
        if doc["mode"] == "and":
            accepted = {arity}
        elif doc["mode"] == "sym":
            accepted = set(doc["S"])
        else:
            accepted = set(c["S"])
        ones = sum(assignment[v] ^ b for v, b in zip(c["scope"], c["neg"]))
        total += ones in accepted
    return total


def at_least_oracle(lib, inst, prop, value: int):
    rep = lib.oracle.brute_force_improve(inst, prop.k, prop.clause_ids)
    if not rep.promise_holds:
        return "promise_broken"
    return None if value >= rep.neighborhood_value else "below_oracle"


def check_and(lib, raw, inst, prop, assignment):
    return at_least_oracle(lib, inst, prop, len(and_satisfied(raw["clauses"], assignment)))


def check_cut(lib, raw, mask: int, reported_value: int):
    value = len(cut_satisfied(raw["edges"], mask))
    if value != reported_value:
        return "value_mismatch"
    rep = lib.oracle.brute_force_cut(
        raw["n"], [(i, u, v) for i, (u, v, _) in enumerate(raw["edges"])],
        [t for _, _, t in raw["edges"]], frozenset(raw["p"]), raw["k"],
    )
    if not rep.promise_holds:
        return "promise_broken"
    return None if value >= rep.neighborhood_value else "below_oracle"


def canonical_counts(r: int, counts) -> frozenset:
    """Of S and its reflection {r - x}, the one with the smaller
    characteristic vector over 0..r; both generate the same language."""
    s = frozenset(counts)
    return min(s, frozenset(r - x for x in s), key=lambda c: tuple(int(i in c) for i in range(r + 1)))


def expected_verdict(r: int, counts) -> tuple:
    """The paper's closed-form table on the canonical count set."""
    canon = canonical_counts(r, counts)
    if len(canon) in (0, r + 1):
        return "Trivial", "trivial"
    if canon in ({0}, {r}):
        return "FPT_rAND", "rAND"
    if r == 2 and canon in ({0, 2}, {1}):
        return "FPT_2AE", "2AE"
    if r >= 3 and canon == {0, r}:
        return "W1_Hard", "rAE_r>=3"
    if r >= 2 and canon in ({0, 1}, {r - 1, r}):
        return "W1_Hard", "le1_r>=2"
    return "W1_Hard", "MinCSP_hard"


def check_classify(query, out: dict):
    got = (out.get("label"), out.get("certificate"))
    return None if got == expected_verdict(*query) else "wrong_label"


def closure_objective(h: dict) -> int:
    """Selection optimum via scipy max flow on the maximum-weight closure
    network: profit 1 per hyperedge, cost w per positive-weight vertex,
    negative-weight vertices always taken."""
    w = h["weights"]
    m = len(h["hyperedges"])
    pos = [v for v in range(len(w)) if w[v] > 0]
    index = {v: 1 + m + i for i, v in enumerate(pos)}
    sink = 1 + m + len(pos)
    inf = sum(w[v] for v in pos) + m + 1
    arcs = []
    for i, e in enumerate(h["hyperedges"]):
        arcs.append((0, 1 + i, 1))
        arcs += [(1 + i, index[v], inf) for v in e if v in index]
    arcs += [(index[v], sink, w[v]) for v in pos]
    tails, heads, caps = (np.array(column) for column in zip(*arcs))
    graph = csr_matrix((caps.astype(np.int32), (tails, heads)), shape=(sink + 1, sink + 1))
    flow = maximum_flow(graph, 0, sink).flow_value
    return m - flow - sum(x for x in w if x < 0)


def check_misvw(h: dict, out: dict):
    chosen = set(out["selected"])
    inside = sum(1 for e in h["hyperedges"] if set(e) <= chosen)
    value = inside - sum(h["weights"][v] for v in chosen)
    if value != out["objective"]:
        return "value_mismatch"
    return None if value == closure_objective(h) else "not_optimal"


def check_reduction(lib, source: str, src_raw: dict, reduced_text: str, out: dict):
    """Decode the forced-oracle answer on a reduction output with the strict
    decoder; it must certify a solution exactly when the source has one."""
    red = lib.reductions
    core = lib.core
    doc = json.loads(reduced_text)
    inst, prop = core.instance_from_json(doc)
    if source == "paired_cut":
        src = red.PairedMinCutInstance(
            src_raw["num_vertices"], tuple(map(tuple, src_raw["edges"])),
            src_raw["s"], src_raw["t"], src_raw["l"],
            tuple(map(tuple, src_raw["pairs"])), tuple(map(tuple, src_raw["paths"])),
        )
        build = red.paired_cut_to_4ae if src_raw["l"] == 1 else red.paired_cut_to_3ae
        decode, reference = red.decode_paired_cut, red.solve_paired_cut_bruteforce
    else:
        src = red.MulticoloredISInstance(
            src_raw["num_vertices"], tuple(map(tuple, src_raw["parts"])),
            tuple(map(tuple, src_raw["edges"])),
        )
        build, decode, reference = red.mcis_to_2sat, red.decode_mcis, red.solve_mcis_bruteforce
    if core.instance_to_json(*build(src)) != doc:
        return "wrong_reduction"
    assignment = out["assignment"]
    if csp_value(doc, assignment) != out["value"]:
        return "value_mismatch"
    try:
        decoded = decode(assignment, src, inst, prop)
    except core.VerificationError:
        return "decoder_rejected"
    return None if (decoded is not None) == (reference(src) is not None) else "wrong_decision"
