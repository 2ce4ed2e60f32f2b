"""Cut-improvement pipeline for two-variable all-equal constraints.

A homogeneous equality/inequality instance is a multigraph whose edges want
to be uncut (type 0) or cut (type 1); a partition satisfies the edge set
C(A,B).  Solving proceeds in three layers:

  1. Translate the proposed clause set into a partition: find the largest
     simultaneously satisfiable subset of the proposal (an exact
     minimum-cost pass over the proposal edges), take a partition realizing
     it, and triple the budget.
  2. Recurse on balanced cuts: while the graph has a cut of at most k edges
     whose sides are both connected and both hold at least q unmarked
     edges, solve the side with fewer terminals as a subproblem, then
     contract or mark every edge of that side the subproblem's solutions
     all agree on, shrinking the unmarked-edge count.
  3. When no such cut exists, solve the terminal problem directly by the
     complete partition table, the exhaustive-coloring form of the paper's
     coloring step.

Every step is exact and deterministic, so the pipeline takes no coloring
setting (mode, seed, delta); only the AND pipeline reads them.

The terminal subproblem answers, for every labeling of the terminal
vertices and every closeness bound, with a partition consistent with the
labels, the marked edges (which must stay cut), and the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .core import (
    DisjointSets,
    GuardError,
    Instance,
    ProposedSolution,
    SolveContext,
    StructureError,
    SymmetricLanguage,
    VerificationError,
)
from .flow import FlowNetwork, max_flow_min_cut

ENUM_VERTEX_GUARD = 26
KERNEL_BLOCK = 1 << 14  # divides 2^WINDOW_BITS, so each partition block lies in one window
KQ_CUT_CANDIDATES = 1 << 20  # candidate masks find_kq_cut builds at most, in 64-bit words
KQ_FLOAT32_EDGES = 1 << 23  # below it find_kq_cut's sums (<= 2|E|) are exact in float32
TABLE_SCORE_GUARD = 1 << 63  # solve_terminal_direct's scores are int64
WINDOW_BITS = 14


def _require(holds: bool, what: str) -> None:
    """An internal invariant; unlike ``assert``, kept under ``python -O``."""
    if not holds:
        raise VerificationError(f"cut solver invariant violated: {what}")


@dataclass(frozen=True)
class CutEdge:
    id: int
    u: int
    v: int
    etype: int


@dataclass(frozen=True)
class CutGraph:
    num_vertices: int
    edges: tuple

    def __post_init__(self):
        if self.num_vertices < 0:
            raise StructureError(f"num_vertices must be nonnegative, got {self.num_vertices}")
        for e in self.edges:
            if not (0 <= e.u < self.num_vertices and 0 <= e.v < self.num_vertices):
                raise StructureError(f"edge {e.id} endpoint out of range")
            if e.etype not in (0, 1):
                raise StructureError(f"edge {e.id} type must be 0 or 1")

    def components(self, vertices) -> list:
        """Connected components of the subgraph induced on `vertices`, each
        sorted, in order of smallest member."""
        inside = set(vertices)
        sets = DisjointSets(inside)
        for e in self.edges:
            if e.u in inside and e.v in inside:
                sets.union(e.u, e.v)
        return sets.groups()

    @cached_property
    def is_connected(self) -> bool:
        """Computed once per graph object: instances built on one graph share it."""
        return len(self.components(range(self.num_vertices))) <= 1


def satisfied_edges(graph: CutGraph, mask: int) -> frozenset:
    """C(A,B) for the partition encoded by mask (bit set = side A).

    Type-0 loops are always satisfied, type-1 loops never.
    """
    out = set()
    for e in graph.edges:
        crossed = ((mask >> e.u) ^ (mask >> e.v)) & 1
        if crossed == e.etype:
            out.add(e.id)
    return frozenset(out)


def crossing_edges(graph: CutGraph, mask: int) -> frozenset:
    return frozenset(
        e.id for e in graph.edges if ((mask >> e.u) ^ (mask >> e.v)) & 1
    )


def cut_value(graph: CutGraph, mask: int) -> int:
    total = 0
    for e in graph.edges:
        crossed = ((mask >> e.u) ^ (mask >> e.v)) & 1
        total += crossed == e.etype
    return total


@cache
def _window_rows():
    """Row v holds bit v of the masks 0 .. 2^WINDOW_BITS - 1, the same for
    every aligned window of that size.  Built on first use, not at import,
    so a module reloaded and not yet collected holds no copy."""
    return np.stack([((np.arange(1 << WINDOW_BITS, dtype=np.uint16) >> v) & 1).astype(np.uint8)
                     for v in range(WINDOW_BITS)])


def partition_blocks(graph: CutGraph, count: int, a_mask: int = 0, marked=frozenset()):
    """Score the partitions 0 .. count - 1 in ascending numpy blocks of at
    most KERNEL_BLOCK.  Yields per block the masks, their crossing counts, `cut_value`s,
    distances to `a_mask` (satisfied-set symmetric difference sizes) and
    whether they cut every marked edge.  Guarded at ENUM_VERTEX_GUARD vertices.

    Crossing an edge satisfies it iff it wants to be cut, and moves it away
    from `a_mask` iff `a_mask` leaves it uncut, so each block only counts the
    crossed edges of each class 2 * etype + (a_mask cuts it), and the crossed
    marked edges, in counters wide enough for the edge count.  KERNEL_BLOCK
    divides 2^WINDOW_BITS, so a block lies in one aligned window: its bit
    rows below WINDOW_BITS slice the window table, and the rest are constants."""
    if graph.num_vertices > ENUM_VERTEX_GUARD:
        raise GuardError(f"partition enumeration guarded at {ENUM_VERTEX_GUARD} vertices")
    edges = graph.edges
    classes = [2 * e.etype + (((a_mask >> e.u) ^ (a_mask >> e.v)) & 1) for e in edges]
    n_type0 = sum(e.etype == 0 for e in edges)
    n_a_cut = sum(c & 1 for c in classes)
    n_marked = sum(e.id in marked for e in edges)
    width = np.min_scalar_type(len(edges))
    rows = _window_rows()
    for lo in range(0, count, KERNEL_BLOCK):
        block = np.arange(lo, min(lo + KERNEL_BLOCK, count), dtype=np.int64)
        start = lo % (1 << WINDOW_BITS)
        bits = [rows[v, start:start + len(block)] if v < WINDOW_BITS else np.uint8((lo >> v) & 1)
                for v in range(graph.num_vertices)]
        counts = np.zeros((5, len(block)), dtype=width)
        crossed = np.empty(len(block), dtype=np.uint8)
        for e, c in zip(edges, classes):
            np.bitwise_xor(bits[e.u], bits[e.v], out=crossed)
            counts[c] += crossed
            if e.id in marked:
                counts[4] += crossed
        c0, c1, c2, c3 = counts[:4].astype(np.int32)
        yield (block, c0 + c1 + c2 + c3, n_type0 - c0 - c1 + c2 + c3,
               n_a_cut + c0 - c1 + c2 - c3, counts[4] == n_marked)


def matching_conflict(pairs):
    """The first two endpoint sets among the (u, v) `pairs` that differ but
    share an endpoint, or None when the pairs form a matching with parallels.
    One pass over a dict from endpoint to the first endpoint set seen there."""
    seen = {}
    for pair in pairs:
        ends = frozenset(pair)
        for x in ends:
            first = seen.setdefault(x, ends)
            if first != ends:
                return first, ends
    return None


@dataclass(frozen=True)
class CutInstance:
    graph: CutGraph
    p_ids: frozenset
    k: int

    def __post_init__(self):
        if not self.graph.is_connected:
            raise StructureError("cut instances must be connected")
        ids = {e.id for e in self.graph.edges}
        if not self.p_ids <= ids:
            raise StructureError("proposed edge ids not in graph")
        if self.k < 0:
            raise StructureError("k must be nonnegative")


# ---------------------------------------------------------------------------
# CSP <-> graph translation
# ---------------------------------------------------------------------------


def _edge_type_of_clause(c) -> int:
    lang: SymmetricLanguage = c.language
    if lang.arity != 2 or lang.counts not in (frozenset({0, 2}), frozenset({1})):
        raise StructureError(
            f"clause {c.id}: not a two-variable all-equal family clause"
        )
    same_neg = c.neg[0] == c.neg[1]
    if lang.counts == frozenset({0, 2}):
        return 0 if same_neg else 1
    return 1 if same_neg else 0


def split_components(graph: CutGraph, vertices, p_ids, k: int) -> list:
    """One (CutInstance, vertex_list) per connected component of the
    subgraph induced on `vertices`, in order of smallest vertex;
    vertex_list[i] is the vertex of `graph` that component vertex i is."""
    comps = graph.components(vertices)
    where = {v: (ci, i) for ci, verts in enumerate(comps) for i, v in enumerate(verts)}
    edges = [[] for _ in comps]
    for e in graph.edges:
        if e.u in where:
            ci, u = where[e.u]
            edges[ci].append(CutEdge(e.id, u, where[e.v][1], e.etype))
    return [
        (CutInstance(CutGraph(len(verts), tuple(es)), frozenset(e.id for e in es) & p_ids, k), verts)
        for verts, es in zip(comps, edges)
    ]


def csp_to_cut(instance: Instance, proposed: ProposedSolution):
    """Split into connected CutInstances plus a variable back-map.

    Returns (components, isolated_vars) where each component is
    (CutInstance, vertex_list) and vertex_list[i] is the original variable
    of graph vertex i.
    """
    proposed.validate_against(instance)
    edges = []
    for c in instance.clauses:
        t = _edge_type_of_clause(c)
        edges.append(CutEdge(c.id, c.scope[0], c.scope[1], t))
    graph = CutGraph(instance.num_vars, tuple(edges))
    used = {v for e in edges for v in (e.u, e.v)}
    components = split_components(graph, used, proposed.clause_ids, proposed.k)
    isolated = [v for v in range(instance.num_vars) if v not in used]
    return components, isolated


def assemble_assignment(num_vars: int, solved_components) -> tuple:
    """Merge per-component partition masks into one assignment.

    Each component is (mask, vertex_list).  Orientations are normalized so
    the smallest variable of every component gets value 0.
    """
    a = [0] * num_vars
    for mask, verts in solved_components:
        if mask & 1:
            mask ^= (1 << len(verts)) - 1
        for i, v in enumerate(verts):
            a[v] = (mask >> i) & 1
    return tuple(a)


# ---------------------------------------------------------------------------
# Exact minimum-cost pass: a partition violating the fewest edges, if that
# is at most a bound.  Gadget: each type-0 edge becomes two type-1 edges
# through a fresh vertex, reducing to edge bipartization, solved by one
# minimizing pass of iterative compression (Guo et al. 2006).
# ---------------------------------------------------------------------------


def _join_opposite(sets: DisjointSets, n: int, u: int, v: int) -> bool:
    """Parity union-find over vertices 0..n-1 and their copies n..2n-1 (the
    other side): put u and v on opposite sides, or return False, changing
    nothing, if they already share a side (the arc closes an odd cycle)."""
    if sets.find(u) == sets.find(v):
        return False
    sets.union(u, n + v)
    sets.union(n + u, v)
    return True


def _parity_coloring(sets: DisjointSets, n: int) -> list:
    """The 2-coloring a parity union-find over 0..2n-1 holds, the smallest
    vertex of each component on side 0 (the root of its set)."""
    return [int(sets.find(v) > sets.find(n + v)) for v in range(n)]


def _mincut_between(num_vertices: int, arcs, side_a, side_b, bound: int):
    """Min unit-capacity cut separating side_a from side_b; returns
    (value, source-side vertex set) if it is at most `bound`, else
    (bound + 1, None).  With an empty side the cut is empty and the source
    side degenerates to nothing or everything."""
    if not side_a:
        return 0, frozenset()
    if not side_b:
        return 0, frozenset(range(num_vertices))
    s = num_vertices
    t = num_vertices + 1
    net = FlowNetwork(num_vertices + 2, s, t)
    inf = len(arcs) + 1
    for u, v in arcs:
        net.add_arc(u, v, 1)
        net.add_arc(v, u, 1)
    for u in side_a:
        net.add_arc(s, u, inf)
    for u in side_b:
        net.add_arc(u, t, inf)
    value, side = max_flow_min_cut(net, bound)
    return value, None if side is None else frozenset(v for v in side if v < num_vertices)


def _bipartization_compress(num_vertices: int, arcs, removed, psi, k: int, run: SolveContext | None = None):
    """One compression step: given arc-id set `removed` with the rest
    bipartite and 2-colored by `psi`, find a solution of size <= k or report
    None; also None once `run`'s deadline, polled before each terminal
    split, has passed."""
    keep = [arcs[i] for i in range(len(arcs)) if i not in removed]
    terminals = sorted({v for i in removed for v in arcs[i]})
    removed_list = sorted(removed)
    best = None
    for bits in product((0, 1), repeat=len(terminals)):
        if bits[:1] == (1,):
            # every later split complements an earlier one: the same cost_x
            # and minimum cut with the sides swapped, so it cannot do better
            break
        if run is not None and run.expired():
            return None
        side_a = [v for v, b in zip(terminals, bits) if b]
        side_b = [v for v, b in zip(terminals, bits) if not b]
        flip_in = set(side_a)
        stay = []
        for i in removed_list:
            u, v = arcs[i]
            # removed arc becomes proper iff parity-flip makes endpoints differ
            if ((u in flip_in) != (v in flip_in)) == (psi[u] != psi[v]):
                stay.append(i)
        cost_x = len(stay)
        if cost_x > k:
            continue
        # kept arcs are coloring-proper; a parity flip breaks exactly the
        # ones it splits, so the cheapest completion is a minimum cut
        # between the flipped and unflipped terminal sides, whose source
        # side agrees with flip_in on every terminal
        value, reach = _mincut_between(num_vertices, keep, side_a, side_b, k - cost_x)
        if cost_x + value <= k and (best is None or cost_x + value < best[0]):
            new_removed = set(stay)
            for j, (u, v) in enumerate(arcs):
                if j not in removed and (u in reach) != (v in reach):
                    new_removed.add(j)
            best = (cost_x + value, new_removed)
    if best is None:
        return None
    _require(len(best[1]) == best[0], "compression deletion set size differs from its cost")
    return best[1]


def edge_bipartization(num_vertices: int, arcs, k: int, run: SolveContext | None = None):
    """One minimizing pass of iterative compression: (arc-id deletion set,
    coloring of the kept arcs, read from the parity union-find they stay
    joined in, so testing an arc is one union-find step).  Up to k the
    set's size `budget` is the minimum for the prefix seen: an arc closing
    an odd cycle joins the set, which is then compressed to `budget` or
    else raises it by one.  Past k, or once `run`'s deadline (polled
    before each terminal split) has passed, an odd arc just joins the set;
    k = -1 never compresses."""
    removed, budget = set(), 0
    sets = DisjointSets(range(2 * num_vertices))
    for i, (u, v) in enumerate(arcs):
        if _join_opposite(sets, num_vertices, u, v):
            continue
        removed.add(i)
        if budget > k or (run is not None and run.timed_out):
            continue
        # the union-find has joined exactly the prefix's kept arcs
        psi = _parity_coloring(sets, num_vertices)
        smaller = _bipartization_compress(num_vertices, arcs[: i + 1], removed, psi, budget, run)
        if smaller is None:
            budget += 1
            continue
        removed = smaller
        sets = DisjointSets(range(2 * num_vertices))
        kept = [arcs[j] for j in range(i + 1) if j not in removed]
        _require(all(_join_opposite(sets, num_vertices, *a) for a in kept), "odd cycle kept")
    return removed, _parity_coloring(sets, num_vertices)


def _gadget_arcs(graph: CutGraph) -> tuple:
    """(gadget vertex count, arcs, unsatisfiable loop count): each type-1
    edge is one arc, each type-0 edge two arcs through a fresh vertex."""
    arcs = []
    loop_cost = 0
    gadget_n = graph.num_vertices
    for e in graph.edges:
        if e.u == e.v:
            if e.etype == 1:
                loop_cost += 1  # never satisfiable
            continue
        if e.etype == 1:
            arcs.append((e.u, e.v))
        else:
            w = gadget_n
            gadget_n += 1
            arcs.append((e.u, w))
            arcs.append((w, e.v))
    return gadget_n, arcs, loop_cost


def mincsp_2ae(graph: CutGraph, bound: int, run: SolveContext | None = None):
    """(mask, minimum cost) if the minimum is at most `bound`, else None;
    also None once `run`'s deadline has passed, since a compression it cut
    short proves no minimum."""
    gadget_n, arcs, loop_cost = _gadget_arcs(graph)
    removed, coloring = edge_bipartization(gadget_n, arcs, bound - loop_cost, run)
    cost = loop_cost + len(removed)
    if cost > bound or (run is not None and run.timed_out):
        return None
    return sum(coloring[v] << v for v in range(graph.num_vertices)), cost


def greedy_partition(graph: CutGraph) -> int:
    """The fallback start: `edge_bipartization` with k = -1, keeping each
    gadget arc in turn unless it closes an odd cycle with the arcs kept
    before it, then the 2-coloring of the kept arcs."""
    gadget_n, arcs, _ = _gadget_arcs(graph)
    coloring = edge_bipartization(gadget_n, arcs, -1)[1]
    return sum(coloring[v] << v for v in range(graph.num_vertices))


def edge_to_vertex_solution(ci: CutInstance, run: SolveContext) -> tuple:
    """Align the proposal with a vertex partition.

    Finds a partition satisfying a largest satisfiable subset of the
    proposal; the caller replaces the proposal by that partition's satisfied
    set and triples the budget.  Returns (mask, 3k).  Under the promise the
    proposal's minimum cost is at most k, so the minimum is bounded by k;
    when it gives None (the promise is violated or the deadline has passed)
    the greedy partition is the start, counted in `run.fallbacks`.
    """
    sub_edges = tuple(e for e in ci.graph.edges if e.id in ci.p_ids)
    sub = CutGraph(ci.graph.num_vertices, sub_edges)
    out = mincsp_2ae(sub, ci.k, run)
    if out is None:
        run.fallbacks += 1
        return greedy_partition(sub), 3 * ci.k
    return out[0], 3 * ci.k


# ---------------------------------------------------------------------------
# Balanced cuts
# ---------------------------------------------------------------------------


def literal_q(k: int) -> int:
    return k * k * (1 << (2 * k + 2))


def kq_cut_conditions(graph: CutGraph, marked, mask: int, k: int, q: int) -> bool:
    """Whether `mask` is a (k, q)-cut: both sides nonempty and connected, at
    most k crossing edges, at least q unmarked edges inside each side."""
    sides = [[v for v in range(graph.num_vertices) if (mask >> v) & 1 == s] for s in (0, 1)]
    if not all(sides) or len(crossing_edges(graph, mask)) > k:
        return False
    if any(len(graph.components(side)) != 1 for side in sides):
        return False
    inside = [(mask >> e.u) & 1 for e in graph.edges
              if e.id not in marked and not ((mask >> e.u) ^ (mask >> e.v)) & 1]
    return min(inside.count(0), inside.count(1)) >= q


def _subtree_masks(graph: CutGraph) -> list:
    """The vertex set below each edge of a breadth-first spanning tree
    rooted at vertex 0, as a mask; the graph must be connected."""
    adj = [[] for _ in range(graph.num_vertices)]
    for e in graph.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    parent, order = {0: 0}, [0]
    for u in order:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    _require(len(order) == graph.num_vertices, "the (k, q)-cut search needs a connected graph")
    below = {v: 1 << v for v in order}
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    return [below[v] for v in order[1:]]


def _tree_cuts(sub: np.ndarray, k: int) -> np.ndarray:
    """The XORs of every set of 1..k rows of `sub`, each of i rows extending one of i - 1."""
    levels, last = [sub], np.arange(len(sub))
    for _ in range(1, min(k, len(sub))):
        more = len(sub) - 1 - last
        src = np.repeat(np.arange(len(last)), more)
        last = last[src] + 1 + np.arange(len(src)) - np.repeat(np.cumsum(more) - more, more)
        levels.append(levels[-1][src] ^ sub[last])
    return np.concatenate(levels)


def _pair_counts(ends: np.ndarray, n: int, real) -> tuple:
    """(M, d) as `real`: M[u, v] counts the rows (u, v) of `ends`, d[v] the ends at v."""
    pairs = np.bincount(ends[:, 0] * n + ends[:, 1], minlength=n * n).reshape(n, n)
    return pairs.astype(real), np.bincount(ends.ravel(), minlength=n).astype(real)


def find_kq_cut(graph: CutGraph, marked, k: int, q: int, run: SolveContext, after: int = 0):
    """The smallest mask above `after` that `kq_cut_conditions` accepts,
    vertex 0 on side 0, on a connected graph (a `TerminalInstance`'s).

    None at once below 2q unmarked edges (the sides' inside edges are
    disjoint; under the literal q >= 2304 that is any graph of under 4608
    edges) and for k = 0.  Otherwise: a mask is the XOR of the subtree
    masks of the spanning-tree edges it cuts, which are crossing edges, so
    the XORs of at most k of them hold every mask of <= k crossing edges.
    More than KQ_CUT_CANDIDATES words of them raise `GuardError` before any
    is built.  Chunks of KERNEL_BLOCK are screened as wholes (<= k crossing
    edges and >= q unmarked edges inside each side), and the survivors
    checked in ascending order.  None once `run`'s deadline, polled before
    each chunk screened or checked but the first of each, has passed."""
    n_un = sum(e.id not in marked for e in graph.edges)
    if n_un < 2 * q or (k == 0 and graph.is_connected):
        return None
    n, count, sets, width = graph.num_vertices, 0, 1, (graph.num_vertices + 63) >> 6
    for i in range(1, min(k, n - 1) + 1):
        sets = sets * (n - i) // i  # C(n - 1, i)
        count += sets
        if count * width > KQ_CUT_CANDIDATES:
            raise GuardError(f"(k, q)-cut search guarded at {KQ_CUT_CANDIDATES} candidate mask words")
    if 2 * count >= (1 << n) >> 1:  # at least half of all masks: screen them all, in fewer calls
        cuts = np.arange(2, 1 << n, 2, dtype=np.uint64)[:, None]
    else:  # masks as little-endian uint64 words
        sub = [[m >> 64 * w & (1 << 64) - 1 for w in range(width)] for m in _subtree_masks(graph)]
        cuts = _tree_cuts(np.array(sub, dtype=np.uint64).reshape(-1, width), k)
    # b_v = 1 on side 1: uv crosses iff b_u + b_v - 2 b_u b_v = 1, lies in side 1 iff b_u b_v = 1
    real = np.float32 if len(graph.edges) < KQ_FLOAT32_EDGES else np.float64
    ends = np.array([(e.u, e.v) for e in graph.edges], dtype=np.intp).reshape(-1, 2)
    pairs, deg = _pair_counts(ends, n, real)
    un_pairs, un_deg = _pair_counts(ends[[e.id not in marked for e in graph.edges]], n, real)
    found = []
    for lo in range(0, len(cuts), KERNEL_BLOCK):
        if lo and run.expired():
            return None
        words = cuts[lo:lo + KERNEL_BLOCK]
        octets = words.astype("<u8").view(np.uint8)[:, :(n + 7) >> 3]
        side = np.unpackbits(octets, axis=1, bitorder="little")[:, :n].astype(real)
        cross = side @ deg - 2 * np.einsum("ij,ij->i", side @ pairs, side)
        left = np.einsum("ij,ij->i", side @ un_pairs, side)
        ok = (cross <= k) & (left >= q) & (n_un - side @ un_deg + left >= q)
        found += [sum(w << 64 * j for j, w in enumerate(row)) for row in words[ok].tolist()]
    for i, mask in enumerate(sorted(found)):
        if i and not i % KERNEL_BLOCK and run.expired():
            return None
        if mask > after and kq_cut_conditions(graph, marked, mask, k, q):
            return mask
    return None


# ---------------------------------------------------------------------------
# Terminal recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalInstance:
    graph: CutGraph
    a_mask: int
    k_prime: int
    terminals: tuple
    marked: frozenset

    def __post_init__(self):
        if not self.graph.is_connected:
            raise StructureError("terminal instances must be connected")
        if matching_conflict((e.u, e.v) for e in self.graph.edges if e.id in self.marked):
            raise StructureError("marked edges must form a matching-with-parallels")
        if self.marked and not self.marked <= crossing_edges(self.graph, self.a_mask):
            raise StructureError("marked edges must be cut by the current partition")


@dataclass
class _Ctx:
    k_global: int
    q: int
    q_literal: bool
    solve: SolveContext


def _table_update(table, key, mask, value, delta):
    cur = table.get(key)
    if cur is None or value > cur[1] or (value == cur[1] and mask < cur[0]):
        table[key] = (mask, value, delta)


def _terminal_bits(terminals, mask):
    return tuple((mask >> t) & 1 for t in terminals)


def _stay_table(ti: TerminalInstance) -> dict:
    """The table whose every entry keeps the current partition."""
    fbits, value = _terminal_bits(ti.terminals, ti.a_mask), cut_value(ti.graph, ti.a_mask)
    return {(fbits, k2): (ti.a_mask, value, 0) for k2 in range(ti.k_prime + 1)}


def solve_terminal_direct(ti: TerminalInstance, ctx: _Ctx) -> dict:
    """Complete table by partition enumeration.  This realizes the
    exhaustive-coloring specialization of the no-balanced-cut solver: flip
    regions range over all unions of connected label-1 components, which is
    every vertex set, so enumerating partitions yields the same table.

    Only the masks that leave vertex n-1 on side 0 are scored: a complement
    `mask ^ full` cuts the same edges, so it has the same value, distance and
    marked cut, and flipped terminal bits.  Each candidate gets one int64
    score, ordered by higher value, then smaller mask, with its distance in
    the low digits, and each (terminal bits, distance) slot keeps its best:
    by `np.maximum.at` with no terminals, else by sorting each block's slot
    keys with the slots kept so far.  A running maximum over the distances
    gives every (terminal bits, bound) entry.  Once the deadline polled
    between blocks has passed, the table built so far is returned."""
    n, t, k_prime = ti.graph.num_vertices, len(ti.terminals), ti.k_prime
    full, half, span = (1 << n) - 1, 1 << max(n - 1, 0), k_prime + 1
    # scores are below (|E| + 1) * (k' + 1) * 2^n; past its guard partition_blocks raises
    m = len(ti.graph.edges)
    if n <= ENUM_VERTEX_GUARD and (m + 1) * span << n > TABLE_SCORE_GUARD:
        raise GuardError(f"terminal table scores of {m} edges and k' = {k_prime} exceed int64")
    tmask = sum(1 << v for v in ti.terminals)
    slots = np.full(span, -1, dtype=np.int64)
    keys = scores = np.zeros(0, dtype=np.int64)
    blocks = partition_blocks(ti.graph, half, ti.a_mask, ti.marked)
    for b, (masks, _, value, delta, marked_cut) in enumerate(blocks):
        if b and ctx.solve.expired():
            break
        keep = marked_cut & (delta <= k_prime)
        masks, dist = masks[keep], delta[keep]
        score = ((value[keep].astype(np.int64) << n) + full - masks) * span + dist
        if not t:
            # a complement shares its mask's slot, and loses
            np.maximum.at(slots, dist, score)
            continue
        on = masks & tmask
        key = np.concatenate((keys, on * span + dist, (on ^ tmask) * span + dist))
        score = np.concatenate((scores, score, score + (2 * masks - full) * span))
        order = np.lexsort((score, key))  # each key's last has its best score
        key, score = key[order], score[order]
        last = np.ones(len(key), dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        keys, scores = key[last], score[last]
    rows = {0: slots.tolist()}
    if t:  # a row per terminal bits seen
        rows = {}
        for key, s in zip(keys.tolist(), scores.tolist()):
            rows.setdefault(key // span, [-1] * span)[key % span] = s
    table = {}
    for on, row in rows.items():
        fbits, best = _terminal_bits(ti.terminals, on), -1
        for k2, s in enumerate(row):  # the running maximum over distances
            if s > best:
                best, entry = s, (full - (s // span & full), s // span >> n, s % span)
            if best >= 0:
                table[fbits, k2] = entry
    return table


def solve_terminal_no_kqcut(ti: TerminalInstance, ctx: _Ctx) -> dict:
    """Terminal table when no (k, q)-cut exists: the complete partition
    table."""
    ctx.solve.no_cut_solves += 1
    return solve_terminal_direct(ti, ctx)


@dataclass(frozen=True)
class LiftLog:
    """Transformation record of one contraction step: where every original
    vertex went, the satisfied-count shift from removed loops, and whether
    the step stalled: it would remove no unmarked edge, so nothing moved."""

    vertex_to_reduced: tuple
    value_offset: int
    stalled: bool


def recurse_step(ti: TerminalInstance, cut_mask: int, ctx: _Ctx):
    """Solve the side of the balanced cut with fewer terminals, then contract
    or mark every edge of that side all returned solutions agree on.
    Returns (reduced TerminalInstance, LiftLog).  The step stalls exactly
    when every agreed edge is already marked; it then returns `ti` itself
    with a stalled log and builds nothing."""
    ctx.solve.recurse_steps += 1
    n = ti.graph.num_vertices
    inside = [v for v in range(n) if (cut_mask >> v) & 1]
    outside = [v for v in range(n) if not (cut_mask >> v) & 1]
    t_in = sum(1 for t in ti.terminals if (cut_mask >> t) & 1)
    t_out = len(ti.terminals) - t_in
    left = inside if t_in <= t_out else outside
    lset = set(left)
    _require(sum(t in lset for t in ti.terminals) <= ctx.k_global, "small side terminals > k")

    boundary = sorted(
        {
            (e.u if e.u in lset else e.v)
            for e in ti.graph.edges
            if (e.u in lset) != (e.v in lset)
        }
    )
    sub_terms_orig = sorted(set(t for t in ti.terminals if t in lset) | set(boundary))
    _require(len(sub_terms_orig) <= 2 * ctx.k_global, "subproblem terminals > 2k")

    index = {v: i for i, v in enumerate(left)}
    sub_edges = tuple(
        CutEdge(e.id, index[e.u], index[e.v], e.etype)
        for e in ti.graph.edges
        if e.u in lset and e.v in lset
    )
    sub_graph = CutGraph(len(left), sub_edges)
    sub_ids = {e.id for e in sub_edges}
    sub_mask = 0
    for v in left:
        if (ti.a_mask >> v) & 1:
            sub_mask |= 1 << index[v]
    sub_ti = TerminalInstance(
        sub_graph, sub_mask, ti.k_prime, tuple(index[t] for t in sub_terms_orig), ti.marked & sub_ids
    )
    sub_table = solve_terminal(sub_ti, ctx)

    sub_p = satisfied_edges(sub_graph, sub_mask)
    touched = set()
    for mask, _, _ in sub_table.values():
        touched |= sub_p ^ satisfied_edges(sub_graph, mask)
    agreed = sub_ids - touched
    if agreed <= ti.marked:
        reduced, log = ti, LiftLog(tuple(range(n)), 0, True)
    else:
        reduced, log = _contract(ti, agreed)
    if ctx.q_literal:
        unmarked = lambda inst: sum(e.id not in inst.marked for e in inst.graph.edges)
        unmarked_in_l = sum(1 for e in sub_edges if e.id not in ti.marked)
        drop = unmarked(ti) - unmarked(reduced)
        _require(drop >= unmarked_in_l - ctx.q // 2, "contraction removed too few edges")
    return reduced, log


def _contract(ti: TerminalInstance, agreed) -> tuple:
    """Contract the edges in `agreed` that `ti.a_mask` leaves uncut and mark
    the ones it cuts; then, while two marked edges share an endpoint,
    contract their outer endpoints.  Every union joins vertices of one side,
    so no marked edge is contracted; every closing union is forced, so the
    result is the least fixpoint in any order, and `DisjointSets` roots
    (smallest members) number it the same way.  Returns (reduced
    TerminalInstance, LiftLog)."""
    n = ti.graph.num_vertices
    sets = DisjointSets(range(n))
    find = sets.find
    side = lambda v: (ti.a_mask >> v) & 1
    marked = set(ti.marked)
    for e in ti.graph.edges:
        if e.id not in agreed:
            continue
        if side(e.u) == side(e.v):
            sets.union(e.u, e.v)
        else:
            marked.add(e.id)
    marked_edges = [e for e in ti.graph.edges if e.id in marked]
    while conflict := matching_conflict((find(e.u), find(e.v)) for e in marked_edges):
        outer = sorted(conflict[0] ^ conflict[1])
        # both outer endpoints oppose the shared one, hence share a side
        _require(len(outer) == 2 and side(outer[0]) == side(outer[1]), "marked pair sides")
        sets.union(*outer)

    reps = sorted({find(v) for v in range(n)})
    new_index = {r: i for i, r in enumerate(reps)}
    new_edges = []
    value_offset = 0
    for e in ti.graph.edges:
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            _require(e.id not in marked, "a marked edge was contracted")
            value_offset += e.etype == 0
            continue
        new_edges.append(CutEdge(e.id, new_index[ru], new_index[rv], e.etype))
    new_graph = CutGraph(len(reps), tuple(new_edges))
    new_mask = 0
    for r in reps:
        if side(r):
            new_mask |= 1 << new_index[r]
    new_terms = tuple(sorted({new_index[find(t)] for t in ti.terminals}))
    reduced = TerminalInstance(new_graph, new_mask, ti.k_prime, new_terms, frozenset(marked))
    return reduced, LiftLog(tuple(new_index[find(v)] for v in range(n)), value_offset, False)


def lift_table(ti: TerminalInstance, red_table: dict, log: LiftLog) -> dict:
    """Expand contracted partitions back onto the original vertex set."""
    table = {}
    n = ti.graph.num_vertices
    for (_, k2), (mask, value, delta) in red_table.items():
        lifted = 0
        for v in range(n):
            if (mask >> log.vertex_to_reduced[v]) & 1:
                lifted |= 1 << v
        fbits = _terminal_bits(ti.terminals, lifted)
        _table_update(table, (fbits, k2), lifted, value + log.value_offset, delta)
    return table


def solve_terminal(ti: TerminalInstance, ctx: _Ctx) -> dict:
    """Terminal-problem dispatcher: recurse while a balanced cut exists;
    past the table's guard a stalled cut gives way to the next one."""
    if ctx.solve.expired():
        return _stay_table(ti)
    cut = find_kq_cut(ti.graph, ti.marked, ctx.k_global, ctx.q, ctx.solve)
    while cut is not None:
        ctx.solve.kq_cuts_found += 1
        reduced, log = recurse_step(ti, cut, ctx)
        if not log.stalled:
            return lift_table(ti, solve_terminal(reduced, ctx), log)
        # only with an overridden q: the sub-solutions touched every unmarked
        # edge of the small side, so take the exact table, or past its
        # guard the next cut, instead of recursing without progress
        if ti.graph.num_vertices <= ENUM_VERTEX_GUARD:
            return solve_terminal_direct(ti, ctx)
        cut = find_kq_cut(ti.graph, ti.marked, ctx.k_global, ctx.q, ctx.solve, cut)
    return solve_terminal_no_kqcut(ti, ctx)


def cut_improve(ci: CutInstance, mode: str = "exhaustive", q_override: int | None = None, deadline=None):
    """Best partition for one connected cut-improvement instance.

    Returns (mask, value, SolveContext).  On promise-satisfying inputs the
    mask maximizes the satisfied edge set; the context records `mode`,
    which no step reads.
    """
    run = SolveContext(mode, deadline=deadline)
    core_edges = tuple(e for e in ci.graph.edges if e.u != e.v)
    if not core_edges:
        return 0, cut_value(ci.graph, 0), run
    core = ci.graph
    if len(core_edges) < len(core.edges):  # dropping loops cannot disconnect it
        core = CutGraph(core.num_vertices, core_edges)
        vars(core)["is_connected"] = ci.graph.is_connected
    # two satisfied sets differ only in non-loop edges, so a larger budget
    # admits nothing more; it would only size the table and the literal q
    k = min(ci.k, len(core_edges))
    core_ci = CutInstance(core, ci.p_ids & {e.id for e in core_edges}, k)
    a_mask, k3 = edge_to_vertex_solution(core_ci, run)
    q = q_override if q_override is not None else literal_q(k3)
    ctx = _Ctx(k_global=k3, q=q, q_literal=q_override is None, solve=run)
    ti = TerminalInstance(core, a_mask, k3, (), frozenset())
    table = solve_terminal(ti, ctx)
    # every partition satisfies the type-0 loops and no type-1 loop
    loops0 = sum(e.u == e.v and e.etype == 0 for e in ci.graph.edges)
    best_mask, best_value = a_mask, cut_value(core, a_mask) + loops0
    for mask, value, _ in table.values():
        value += loops0
        if value > best_value or (value == best_value and mask < best_mask):
            best_mask, best_value = mask, value
    return best_mask, best_value, run


def solve_components(components, q_override: int | None = None, deadline=None):
    """`cut_improve` on each (CutInstance, vertex_list) pair.

    Returns ([(mask, vertex_list)], SolveContext summed over the components).
    """
    total = SolveContext(deadline=deadline)
    solved = []
    for ci, verts in components:
        mask, _, run = cut_improve(ci, q_override=q_override, deadline=deadline)
        solved.append((mask, verts))
        total.add(run)
    return solved, total


def solve_2ae(instance: Instance, proposed: ProposedSolution, q_override: int | None = None, deadline=None):
    """Library entry point for homogeneous two-variable all-equal instances.

    Returns (assignment, SolveContext summed over the components).
    """
    components, _ = csp_to_cut(instance, proposed)
    solved, run = solve_components(components, q_override, deadline)
    return assemble_assignment(instance.num_vars, solved), run
