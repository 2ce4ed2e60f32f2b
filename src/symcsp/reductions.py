"""Hardness-reduction constructions, their source generators and decoders.

Every reduction is constructive and comes with a decoder mapping a good
assignment of the produced instance back to a certificate for the source
problem; decoders re-validate every claimed property and fail hard on any
violation, enabling end-to-end brute-force verification of the
constructions at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .core import (
    Clause,
    Instance,
    ProposedSolution,
    StructureError,
    VerificationError,
    ae_language,
    le1_language,
    sat_language,
    satisfied_set,
)

EQ_NEG = (0, 0)
NE_NEG = (0, 1)


# ---------------------------------------------------------------------------
# Paired minimum st-cut sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairedMinCutInstance:
    """DAG prepartitioned into 2l arc-disjoint st-paths with paired edges."""

    num_vertices: int
    edges: tuple  # (tail, head) per edge id
    s: int
    t: int
    l: int
    pairs: tuple  # perfect pairing of edge ids
    paths: tuple  # 2l edge-id sequences partitioning the edge set


def validate_paired_cut(src: PairedMinCutInstance) -> None:
    n, edges = src.num_vertices, src.edges
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise StructureError("edge endpoint out of range")
    indeg = [0] * n
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        indeg[v] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    queue = list(order)
    while queue:
        u = queue.pop()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if seen != n:
        raise StructureError("graph must be acyclic")

    ids = set(range(len(edges)))
    paired = [e for pair in src.pairs for e in pair]
    if sorted(paired) != sorted(ids) or any(len(p) != 2 for p in src.pairs):
        raise StructureError("pairs must perfectly partition the edge set")

    if len(src.paths) != 2 * src.l:
        raise StructureError(f"need exactly {2 * src.l} paths")
    used = []
    for path in src.paths:
        if not path:
            raise StructureError("empty path")
        if edges[path[0]][0] != src.s or edges[path[-1]][1] != src.t:
            raise StructureError("paths must run from s to t")
        for a, b in zip(path, path[1:]):
            if edges[a][1] != edges[b][0]:
                raise StructureError("path edges must chain")
        used.extend(path)
    if sorted(used) != sorted(ids):
        raise StructureError("paths must partition the edge set (arc-disjoint)")


def generate_paired_cut(seed: int, l: int, max_path_len: int = 4) -> PairedMinCutInstance:
    """Random valid source: 2l rank-increasing st-paths over a shared
    intermediate pool, with a random perfect edge pairing."""
    rng = random.Random(seed)
    lengths = [rng.randint(1, max_path_len) for _ in range(2 * l)]
    if sum(lengths) % 2 == 1:
        lengths[-1] += 1 if lengths[-1] < max_path_len else -1
    # the pool is ordered by rank; paths visit strictly increasing ranks, so
    # the graph is acyclic; it must accommodate the longest path
    pool_size = max(2, sum(lengths) // 2, max(lengths) - 1)
    s, t = 0, 1
    pool = list(range(2, 2 + pool_size))
    edges = []
    paths = []
    for length in lengths:
        inner = sorted(rng.sample(pool, length - 1))
        route = [s] + inner + [t]
        path = []
        for a, b in zip(route, route[1:]):
            path.append(len(edges))
            edges.append((a, b))
        paths.append(tuple(path))
    ids = list(range(len(edges)))
    rng.shuffle(ids)
    pairs = tuple(tuple(sorted((ids[i], ids[i + 1]))) for i in range(0, len(ids), 2))
    # drop unused pool vertices, compacting indices
    used = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    edges = tuple((remap[u], remap[v]) for u, v in edges)
    src = PairedMinCutInstance(
        len(used), edges, remap[s], remap[t], l, pairs, tuple(paths)
    )
    validate_paired_cut(src)
    return src


def _reachable(num_vertices, edges, start, banned_ids) -> set:
    adj = [[] for _ in range(num_vertices)]
    for eid, (u, v) in enumerate(edges):
        if eid not in banned_ids:
            adj[u].append(v)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_st_cut(src: PairedMinCutInstance, cut_ids) -> bool:
    return src.t not in _reachable(src.num_vertices, src.edges, src.s, set(cut_ids))


def pairs_touched(src: PairedMinCutInstance, cut_ids) -> int:
    cut = set(cut_ids)
    return sum(1 for pair in src.pairs if cut & set(pair))


def solve_paired_cut_bruteforce(src: PairedMinCutInstance):
    """Smallest-mask vertex cut whose outgoing edge set touches <= l pairs."""
    others = [v for v in range(src.num_vertices) if v not in (src.s, src.t)]
    for mask in range(1 << len(others)):
        u_side = {src.s} | {others[i] for i in range(len(others)) if (mask >> i) & 1}
        z = frozenset(
            eid
            for eid, (u, v) in enumerate(src.edges)
            if u in u_side and v not in u_side
        )
        if pairs_touched(src, z) <= src.l:
            assert is_st_cut(src, z)
            return z
    return None


def paired_cut_to_4ae(src: PairedMinCutInstance):
    """Arity-<=4 all-equal instance: equality clause per edge (proposed),
    one 4-ary pair clause per edge pair, l+1 copies of s != t; k = 4l + 1."""
    validate_paired_cut(src)
    clauses = []
    p_ids = set()
    ae2, ae4 = ae_language(2), ae_language(4)
    for eid, (u, v) in enumerate(src.edges):
        cid = len(clauses)
        clauses.append(Clause(cid, EQ_NEG, (u, v), ae2))
        p_ids.add(cid)
    for (e1, e2) in src.pairs:
        u1, v1 = src.edges[e1]
        u2, v2 = src.edges[e2]
        clauses.append(Clause(len(clauses), (0, 1, 0, 1), (u1, v1, u2, v2), ae4))
    for _ in range(src.l + 1):
        clauses.append(Clause(len(clauses), NE_NEG, (src.s, src.t), ae2))
    inst = Instance(src.num_vertices, tuple(clauses))
    return inst, ProposedSolution(frozenset(p_ids), 4 * src.l + 1)


def paired_cut_to_3ae(src: PairedMinCutInstance):
    """Arity-<=3 variant: 5 copies per edge clause, 2 copies of each of the
    four 3-ary clauses obtained by dropping one position from the pair
    clause, 2l+1 copies of s != t; k = 20l + 1."""
    validate_paired_cut(src)
    clauses = []
    p_ids = set()
    ae2, ae3 = ae_language(2), ae_language(3)
    for eid, (u, v) in enumerate(src.edges):
        for _ in range(5):
            cid = len(clauses)
            clauses.append(Clause(cid, EQ_NEG, (u, v), ae2))
            p_ids.add(cid)
    for (e1, e2) in src.pairs:
        u1, v1 = src.edges[e1]
        u2, v2 = src.edges[e2]
        triples = (
            ((u1, u2, v2), (0, 0, 1)),
            ((v1, u2, v2), (1, 0, 1)),
            ((u1, v1, u2), (0, 1, 0)),
            ((u1, v1, v2), (0, 1, 1)),
        )
        for scope, neg in triples:
            for _ in range(2):
                clauses.append(Clause(len(clauses), neg, scope, ae3))
    for _ in range(2 * src.l + 1):
        clauses.append(Clause(len(clauses), NE_NEG, (src.s, src.t), ae2))
    inst = Instance(src.num_vertices, tuple(clauses))
    return inst, ProposedSolution(frozenset(p_ids), 20 * src.l + 1)


def decode_paired_cut(assignment, src: PairedMinCutInstance, instance, proposed):
    """Disagreement-edge cut from a good assignment, or None at the baseline.

    Only assignments strictly beating |P| encode a cut; the decoded cut is
    re-validated (st-cut, touches <= l pairs, exactly 2l edges) and any
    failure is a hard error since the construction guarantees validity.
    """
    value = len(satisfied_set(instance, assignment))
    if value <= len(proposed.clause_ids):
        return None
    z = frozenset(
        eid
        for eid, (u, v) in enumerate(src.edges)
        if assignment[u] != assignment[v]
    )
    if not is_st_cut(src, z):
        raise VerificationError("decoded edge set is not an st-cut")
    if pairs_touched(src, z) > src.l:
        raise VerificationError("decoded cut touches too many pairs")
    if len(z) != 2 * src.l:
        raise VerificationError("decoded cut must have exactly 2l edges")
    return z


# ---------------------------------------------------------------------------
# All-equal padding (arity lift)
# ---------------------------------------------------------------------------


def pad_ae(instance: Instance, proposed: ProposedSolution):
    """Lift every all-equal clause by one arity: a fresh variable is chained
    to the clause's first scope variable (with its negation), preserving
    proposal membership and k."""
    if not instance.is_ae_family():
        raise StructureError("padding requires all-equal clauses")
    clauses = []
    next_var = instance.num_vars
    for c in instance.clauses:
        clauses.append(
            Clause(
                c.id,
                c.neg + (c.neg[0],),
                c.scope + (next_var,),
                ae_language(c.language.arity + 1),
            )
        )
        next_var += 1
    return Instance(next_var, tuple(clauses)), proposed


def uniformize_ae(instance: Instance, proposed: ProposedSolution, target_arity: int):
    """Repeated padding of the shorter clauses only, until all-equal clauses
    share the target arity."""
    if not instance.is_ae_family():
        raise StructureError("uniformize requires all-equal clauses")
    clauses = list(instance.clauses)
    next_var = instance.num_vars
    out = []
    for c in clauses:
        if c.language.arity > target_arity:
            raise StructureError("clause arity above target")
        neg, scope = c.neg, c.scope
        while len(scope) < target_arity:
            scope = scope + (next_var,)
            neg = neg + (neg[0],)
            next_var += 1
        out.append(Clause(c.id, neg, scope, ae_language(target_arity)))
    return Instance(next_var, tuple(out)), proposed


# ---------------------------------------------------------------------------
# Multicolored independent set sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticoloredISInstance:
    num_vertices: int
    parts: tuple
    edges: tuple


def validate_mcis(src: MulticoloredISInstance) -> None:
    seen = set()
    for part in src.parts:
        if not part:
            raise StructureError("parts must be nonempty")
        for v in part:
            if v in seen:
                raise StructureError("parts must be disjoint")
            seen.add(v)
    if seen != set(range(src.num_vertices)):
        raise StructureError("parts must cover the vertex set")
    incident = set()
    for u, v in src.edges:
        if u == v:
            raise StructureError("no self-loops")
        incident.add(u)
        incident.add(v)
    if incident != set(range(src.num_vertices)):
        raise StructureError("isolated vertex; strip them before reducing")


def generate_mcis(seed: int, l: int, part_size: int = 3, edge_prob: float = 0.4):
    rng = random.Random(seed)
    parts = tuple(
        tuple(range(i * part_size, (i + 1) * part_size)) for i in range(l)
    )
    n = l * part_size
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.add((u, v))
    incident = {v for e in edges for v in e}
    for u in range(n):
        if u not in incident:
            v = rng.choice([w for w in range(n) if w != u])
            edges.add((min(u, v), max(u, v)))
            incident.update((u, v))
    src = MulticoloredISInstance(n, parts, tuple(sorted(edges)))
    validate_mcis(src)
    return src


def solve_mcis_bruteforce(src: MulticoloredISInstance):
    adj = {tuple(sorted(e)) for e in src.edges}
    for combo in product(*src.parts):
        if all(
            tuple(sorted((combo[i], combo[j]))) not in adj
            for i in range(len(combo))
            for j in range(i + 1, len(combo))
        ):
            return frozenset(combo)
    return None


def mcis_to_2sat(src: MulticoloredISInstance):
    """Unit clause against each vertex variable (outside the proposal) and
    two proposed or-clauses per edge and per same-part pair; k = number of
    parts.  Zero-valued variables of an optimal assignment form the
    independent set."""
    validate_mcis(src)
    clauses = []
    p_ids = set()
    u1, s2 = sat_language(1), sat_language(2)
    for u in range(src.num_vertices):
        clauses.append(Clause(len(clauses), (1,), (u,), u1))
    for (u, v) in src.edges:
        for _ in range(2):
            cid = len(clauses)
            clauses.append(Clause(cid, (0, 0), (u, v), s2))
            p_ids.add(cid)
    for part in src.parts:
        for i in range(len(part)):
            for j in range(i + 1, len(part)):
                for _ in range(2):
                    cid = len(clauses)
                    clauses.append(Clause(cid, (0, 0), (part[i], part[j]), s2))
                    p_ids.add(cid)
    inst = Instance(src.num_vertices, tuple(clauses))
    return inst, ProposedSolution(frozenset(p_ids), len(src.parts))


def decode_mcis(assignment, src: MulticoloredISInstance, instance, proposed):
    """Zero set of an optimal assignment, when it reaches the full
    independent-set value |P| + l; validated strictly."""
    value = len(satisfied_set(instance, assignment))
    if value < len(proposed.clause_ids) + len(src.parts):
        return None
    zero = frozenset(u for u in range(src.num_vertices) if assignment[u] == 0)
    for part in src.parts:
        if sum(1 for v in part if v in zero) != 1:
            raise VerificationError("decoded set must hit each part once")
    adj = {tuple(sorted(e)) for e in src.edges}
    zs = sorted(zero)
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if (zs[i], zs[j]) in adj:
                raise VerificationError("decoded set is not independent")
    return zero


# ---------------------------------------------------------------------------
# Lifting SAT clauses into at-most-one-false form
# ---------------------------------------------------------------------------


def twosat_to_le1(instance: Instance, proposed: ProposedSolution, r: int):
    """Widen every (<=2)-ary or-clause into an arity-r at-most-one-false
    clause using r-2 shared, always-positive padding variables; unit clauses
    repeat their variable so the false count doubles.  Good assignments set
    every padding variable, recovering the source instance exactly."""
    if r < 3:
        raise StructureError("target arity must be at least 3")
    pads = tuple(range(instance.num_vars, instance.num_vars + r - 2))
    lang = le1_language(r)
    clauses = []
    for c in instance.clauses:
        arity = c.language.arity
        if c.language.counts != frozenset(range(1, arity + 1)) or arity > 2:
            raise StructureError(f"clause {c.id}: need or-clauses of arity <= 2")
        if arity == 2:
            scope = c.scope + pads
            neg = c.neg + (0,) * (r - 2)
        else:
            scope = (c.scope[0], c.scope[0]) + pads
            neg = (c.neg[0], c.neg[0]) + (0,) * (r - 2)
        clauses.append(Clause(c.id, neg, scope, lang))
    inst = Instance(instance.num_vars + r - 2, tuple(clauses))
    return inst, ProposedSolution(proposed.clause_ids, proposed.k)


# ---------------------------------------------------------------------------
# Minimum-cost instances as improvement instances
# ---------------------------------------------------------------------------


def mincsp_to_improve(instance: Instance, k: int):
    """Propose everything: distance to the proposal is then exactly the
    cost, so checking the solved output's cost against k answers the
    minimum-cost decision."""
    return instance, ProposedSolution(frozenset(c.id for c in instance.clauses), k)
