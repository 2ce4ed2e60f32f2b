"""Seeded, promise-first workload inputs for the symcsp benchmark.

Every input is a pure function of its key (workload, seed, rung, index): each
one draws from its own ``random.Random(key)``, so the same seed always gives
byte-identical inputs and no input depends on how many others were built.
Inputs are plain Python data (``raw`` dicts) until ``materialize_*`` turns
them into the package's data classes.  Nothing here calls a solver, the
oracle or ``symcsp.generators``, so a change to ``src/`` cannot change the
workload.

Promise-first means the distance promise holds by construction: the
proposal is the satisfied set of a planted assignment (or partition) with
at most ``k`` memberships toggled.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

# One and_flip round: (rung, index mod 4); index mod 4 == 3 may branch.  Three
# items at rung 12 put the median inside that rung's cluster of latencies, and
# two at rung 16 put p90 near the middle of the slowest cluster.
AND_ROUND = ((8, 0), (10, 0), (12, 0), (12, 1), (12, 2), (14, 0), (16, 0), (16, 1), (14, 3))
AND_PROBE_RUNGS = tuple(range(17, 25))
CUT_TIMED_RUNGS = (8, 10, 12, 13, 14)
CUT_PROBE_RUNGS = tuple(range(15, 21))
CLI_PROBE_RUNGS = tuple(range(12, 21))
MISVW_SIZES = (1000, 2000, 5000, 10000)
PROBE_PER_RUNG = 3
CLI_PROBE_PER_RUNG = 2


def _toggle(rng, p: set, ids, k: int) -> list:
    """Toggle the membership of at most k of the given ids."""
    ids = sorted(ids)
    for i in rng.sample(ids, min(len(ids), rng.randint(0, k))):
        p ^= {i}
    return sorted(p)


# ---------------------------------------------------------------------------
# Conjunction (AND) instances
# ---------------------------------------------------------------------------


def and_satisfied(clauses, a) -> set:
    """Ids of AND clauses satisfied by a: literal (v, neg) holds iff a[v] != neg."""
    return {
        i for i, (neg, scope) in enumerate(clauses)
        if all(a[v] != b for v, b in zip(scope, neg))
    }


def and_raw(key: str, n: int, k: int, num_clauses: int, arities, variables,
            drop_only: bool) -> dict:
    """Conjunction instance over n variables whose clauses use `variables`;
    clause j has arity arities[j % len(arities)].

    The planted assignment is canonical: it is 1 only where a clause it
    satisfies forces a 1, which is the assignment the solver derives from
    the proposal, so the flip search (not an early shortcut) decides the
    answer.  With drop_only the proposal only loses satisfied clauses and
    never conflicts; otherwise any clause may be toggled, which can make the
    solver branch on conflicting literals.
    """
    rng = random.Random(key)
    clauses = []
    for j in range(num_clauses):
        scope = tuple(rng.sample(variables, min(arities[j % len(arities)], len(variables))))
        neg = tuple(rng.randint(0, 1) for _ in scope)
        clauses.append((neg, scope))
    draft = [rng.randint(0, 1) for _ in range(n)]
    anchor = [0] * n
    for i in and_satisfied(clauses, draft):
        neg, scope = clauses[i]
        for v, b in zip(scope, neg):
            anchor[v] = 1 - b
    sat = and_satisfied(clauses, anchor)
    p = _toggle(rng, sat, set(sat) if drop_only else range(len(clauses)), k)
    return {"n": n, "k": k, "clauses": [[list(c[0]), list(c[1])] for c in clauses], "p": p}


def and_flip_raw(seed: int, rung: int, index: int) -> dict:
    """and_flip instance: 2n clauses of arity 1-3 over half of the n variables,
    so the flip search builds 2^(n/2) hypergraphs while the coloring family
    still spans all n free variables.  Instances with index % 4 == 3 may
    branch on conflicting proposed literals; the others never do."""
    rng = random.Random(f"and_flip:{seed}:{rung}:{index}:vars")
    variables = sorted(rng.sample(range(rung), (rung + 1) // 2))
    k = 1 + (index + rung) % 4
    return and_raw(f"and_flip:{seed}:{rung}:{index}", rung, k, 2 * rung, (1, 2, 3), variables,
                   index % 4 != 3)


def cli_and_raw(seed: int, index: int) -> dict:
    """Wide-clause conjunction instance for `symcsp solve`: 10 variables,
    four clauses each of arity 4, 5 and 6."""
    return and_raw(f"cli_and:{seed}:{index}", 10, 1 + index % 4, 12, (4, 5, 6), list(range(10)), True)


def materialize_and(lib, raw):
    core = lib.core
    clauses = tuple(
        core.Clause(i, tuple(neg), tuple(scope), core.and_language(len(scope)))
        for i, (neg, scope) in enumerate(raw["clauses"])
    )
    return core.Instance(raw["n"], clauses), core.ProposedSolution(frozenset(raw["p"]), raw["k"])


def and_json(raw) -> dict:
    return {
        "mode": "and", "num_vars": raw["n"], "k": raw["k"],
        "clauses": [
            {"neg": neg, "scope": scope, "in_P": i in set(raw["p"])}
            for i, (neg, scope) in enumerate(raw["clauses"])
        ],
    }


# ---------------------------------------------------------------------------
# Cut (2AE) instances: type-1 edges want to be cut, type-0 edges uncut
# ---------------------------------------------------------------------------


def cut_satisfied(edges, mask: int) -> set:
    return {
        i for i, (u, v, t) in enumerate(edges)
        if (((mask >> u) ^ (mask >> v)) & 1) == t
    }


def _with_proposal(rng, n: int, k: int, edges) -> dict:
    mask = rng.getrandbits(n)
    p = _toggle(rng, cut_satisfied(edges, mask), range(len(edges)), k)
    return {"n": n, "k": k, "edges": [list(e) for e in edges], "p": p}


def multigraph_raw(key: str, n: int, k: int) -> dict:
    """Connected random multigraph with 2n - 1 edges: a random spanning tree
    plus n extra edges (parallel edges allowed, an occasional self-loop)."""
    rng = random.Random(key)
    order = list(range(1, n))
    rng.shuffle(order)
    attached = [0]
    edges = []
    for v in order:
        edges.append((rng.choice(attached), v, rng.randint(0, 1)))
        attached.append(v)
    for _ in range(n):
        if rng.random() < 0.05:
            u = v = rng.randrange(n)
        else:
            u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(0, 1)))
    return _with_proposal(rng, n, k, edges)


def cut_terminal_raw(seed: int, rung: int, index: int) -> dict:
    return multigraph_raw(f"cut_terminal:{seed}:{rung}:{index}", rung, 1 + (index + rung) % 3)


def dumbbell_raw(seed: int, index: int) -> dict:
    """Two dense blobs of 6 vertices joined by 1..k bridges; each blob has
    15 edges, so with q = 8 a balanced cut exists and the contraction
    recursion runs."""
    rng = random.Random(f"dumbbell:{seed}:{index}")
    k = 1 + index % 3
    n1 = n2 = 6
    edges = []
    for vs in (list(range(n1)), list(range(n1, n1 + n2))):
        for i in range(len(vs)):
            edges.append((vs[i], vs[(i + 1) % len(vs)], rng.randint(0, 1)))
        pairs = list(combinations(vs, 2))
        rng.shuffle(pairs)
        for u, v in pairs[: len(vs)]:
            edges.append((u, v, rng.randint(0, 1)))
        for _ in range(3):
            u, v = rng.sample(vs, 2)
            edges.append((u, v, rng.randint(0, 1)))
    for _ in range(rng.randint(1, k)):
        edges.append((rng.randrange(n1), rng.randrange(n1, n1 + n2), rng.randint(0, 1)))
    return _with_proposal(rng, n1 + n2, k, edges)


def materialize_cut(lib, raw):
    cs = lib.cut_solver
    edges = tuple(cs.CutEdge(i, u, v, t) for i, (u, v, t) in enumerate(raw["edges"]))
    return cs.CutInstance(cs.CutGraph(raw["n"], edges), frozenset(raw["p"]), raw["k"])


def graph_json(raw) -> dict:
    p = set(raw["p"])
    return {
        "num_vertices": raw["n"], "k": raw["k"],
        "edges": [
            {"u": u, "v": v, "type": t, "in_P": i in p}
            for i, (u, v, t) in enumerate(raw["edges"])
        ],
    }


def csp_2ae_json(raw) -> dict:
    """The same cut instance as a homogeneous arity-2 all-equal CSP."""
    p = set(raw["p"])
    return {
        "mode": "sym", "r": 2, "S": [0, 2], "num_vars": raw["n"], "k": raw["k"],
        "clauses": [
            {"neg": [0, t], "scope": [u, v], "in_P": i in p}
            for i, (u, v, t) in enumerate(raw["edges"])
        ],
    }


# ---------------------------------------------------------------------------
# Reduction sources, hypergraphs and classifier queries for the CLI workload
# ---------------------------------------------------------------------------


def paired_cut_raw(seed: int, index: int) -> dict:
    """Paired minimum st-cut source: 2l rank-increasing st-paths over a shared
    vertex pool (so the graph is acyclic) and a random perfect edge pairing."""
    rng = random.Random(f"paired_cut:{seed}:{index}")
    l = 1 + index % 2
    lengths = [rng.randint(1, 3) for _ in range(2 * l)]
    if sum(lengths) % 2:
        lengths[-1] += 1 if lengths[-1] < 3 else -1
    pool = list(range(2, 2 + max(2, sum(lengths) // 2, max(lengths) - 1)))
    edges, paths = [], []
    for length in lengths:
        route = [0] + sorted(rng.sample(pool, length - 1)) + [1]
        path = []
        for a, b in zip(route, route[1:]):
            path.append(len(edges))
            edges.append((a, b))
        paths.append(path)
    ids = list(range(len(edges)))
    rng.shuffle(ids)
    pairs = [sorted(ids[i:i + 2]) for i in range(0, len(ids), 2)]
    used = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    return {
        "num_vertices": len(used),
        "edges": [[remap[u], remap[v]] for u, v in edges],
        "s": remap[0], "t": remap[1], "l": l,
        "pairs": pairs, "paths": paths,
    }


def mcis_raw(seed: int, index: int) -> dict:
    """Multicolored independent set source: l in {2, 3} parts of 3 vertices,
    edge probability 0.4, no isolated vertices."""
    rng = random.Random(f"mcis:{seed}:{index}")
    l = 2 + index % 2
    n = 3 * l
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4}
    for u in range(n):
        if not any(u in e for e in edges):
            v = rng.choice([w for w in range(n) if w != u])
            edges.add((min(u, v), max(u, v)))
    return {
        "num_vertices": n,
        "parts": [list(range(3 * i, 3 * i + 3)) for i in range(l)],
        "edges": [list(e) for e in sorted(edges)],
    }


def hypergraph_raw(seed: int, index: int) -> dict:
    """Selection instance with 10^3..10^4 hyperedges of 1-3 vertices over
    m/8 vertices; weights in -2..6."""
    rng = random.Random(f"misvw:{seed}:{index}")
    m = MISVW_SIZES[index % len(MISVW_SIZES)]
    nv = m // 8
    return {
        "num_vertices": nv,
        "hyperedges": [sorted(rng.sample(range(nv), rng.randint(1, 3))) for _ in range(m)],
        "weights": [rng.randint(-2, 6) for _ in range(nv)],
    }


def classify_query(seed: int, index: int) -> tuple:
    """(r, S) with r cycling through 1..8 and S a random subset of 0..r."""
    rng = random.Random(f"classify:{seed}:{index}")
    r = 1 + index % 8
    return r, sorted(x for x in range(r + 1) if rng.random() < 0.5)


def cli_round(seed: int, j: int) -> list:
    """One round of 21 CLI command inputs as (kind, name, payload) triples;
    payloads are the JSON documents the commands read (or the (r, S) query).
    A reduction source becomes two calls (reduce, then solve), so a round is
    25 calls: one classify query for each r in 1..8, of which r in {5, 6}
    are the slow ones, and 4 reduce calls make the cheap 10; the median lies
    in the dense band above them (forced-oracle solves, classify at r = 5),
    and 4 of 25 wide-AND solves put p90 inside the slowest cluster."""
    calls = [("classify", f"classify_{i}", classify_query(seed, i)) for i in range(8 * j, 8 * j + 8)]
    for i in (2 * j, 2 * j + 1):
        calls += [("paired_cut", f"paired_{i}", paired_cut_raw(seed, i)),
                  ("mcis", f"mcis_{i}", mcis_raw(seed, i)),
                  ("misvw", f"misvw_{i}", hypergraph_raw(seed, i))]
    calls += [("solve_graph", f"graph_{3 * j}", dumbbell_raw(seed, 3 * j)),
              ("solve_graph", f"graph_{3 * j + 1}", dumbbell_raw(seed, 3 * j + 1)),
              ("solve_2ae", f"csp2ae_{3 * j + 2}", dumbbell_raw(seed, 3 * j + 2))]
    calls += [("solve_and", f"and_{i}", cli_and_raw(seed, i)) for i in range(4 * j, 4 * j + 4)]
    return calls


def cli_probe_raw(seed: int, rung: int, index: int) -> dict:
    return multigraph_raw(f"cli_probe:{seed}:{rung}:{index}", rung, 1 + (index + rung) % 3)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
