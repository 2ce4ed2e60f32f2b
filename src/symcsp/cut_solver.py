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
  3. When no such cut exists, solve the terminal problem directly: every
     output partition close to the current one differs by flipping a few
     connected components off the small side, which a coloring family
     exposes.

The terminal subproblem answers, for every labeling of the terminal
vertices and every closeness bound, with a partition consistent with the
labels, the marked edges (which must stay cut), and the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    DisjointSets,
    GuardError,
    Instance,
    ProposedSolution,
    StructureError,
    SymmetricLanguage,
)
from .coloring import (
    DEFAULT_DELTA,
    EXHAUSTIVE_CAP,
    build_coloring_family,
    randomized_family_size,
)
from .flow import FlowNetwork, max_flow_min_cut

ENUM_VERTEX_GUARD = 20


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

    def is_connected(self) -> bool:
        return len(self.components(range(self.num_vertices))) <= 1


def side_connected(graph: CutGraph, vertices) -> bool:
    """Is the induced subgraph on `vertices` connected (marked edges count)?"""
    return len(graph.components(vertices)) == 1


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


def is_matching_with_parallels(graph: CutGraph, marked) -> bool:
    ends = []
    by_id = {e.id: e for e in graph.edges}
    for mid in marked:
        e = by_id[mid]
        ends.append(frozenset((e.u, e.v)))
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            if ends[i] != ends[j] and ends[i] & ends[j]:
                return False
    return True


@dataclass(frozen=True)
class CutInstance:
    graph: CutGraph
    p_ids: frozenset
    k: int

    def __post_init__(self):
        if not self.graph.is_connected():
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
    components = []
    for verts in graph.components(vertices):
        index = {v: i for i, v in enumerate(verts)}
        edges = tuple(
            CutEdge(e.id, index[e.u], index[e.v], e.etype)
            for e in graph.edges
            if e.u in index
        )
        sub = CutGraph(len(verts), edges)
        components.append((CutInstance(sub, frozenset(e.id for e in edges) & p_ids, k), verts))
    return components


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
# Exact minimum-cost pass (decision form): a partition violating at most k
# edges, if one exists.  Gadget: each type-0 edge becomes two type-1 edges
# through a fresh vertex, reducing to edge bipartization, solved by
# iterative compression; a brute-force pass below 12 vertices doubles as a
# cross-check.
# ---------------------------------------------------------------------------


def mincsp_2ae_bruteforce(graph: CutGraph, k: int):
    best = None
    n = graph.num_vertices
    for mask in range(0, 1 << max(n - 1, 0)):
        cost = len(graph.edges) - cut_value(graph, mask)
        if best is None or cost < best[1]:
            best = (mask, cost)
    if best is not None and best[1] <= k:
        return best
    return None


def _two_coloring(num_vertices: int, arcs) -> list | None:
    """BFS bipartition of an undirected unit multigraph; None if odd cycle."""
    color = [-1] * num_vertices
    adj = [[] for _ in range(num_vertices)]
    for u, v in arcs:
        adj[u].append(v)
        adj[v].append(u)
    for s in range(num_vertices):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def _mincut_between(num_vertices: int, arcs, side_a, side_b):
    """Min unit-capacity cut separating side_a from side_b; returns
    (value, source-side vertex set).  With an empty side the cut is empty
    and the source side degenerates to nothing or everything."""
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
    value, side = max_flow_min_cut(net)
    return value, frozenset(v for v in side if v < num_vertices)


def _bipartization_compress(num_vertices: int, arcs, removed, k: int):
    """One compression step: given arc-id set `removed` with the rest
    bipartite, find a solution of size <= k or report None."""
    keep = [arcs[i] for i in range(len(arcs)) if i not in removed]
    psi = _two_coloring(num_vertices, keep)
    assert psi is not None
    terminals = sorted({v for i in removed for v in arcs[i]})
    tpos = {v: i for i, v in enumerate(terminals)}
    removed_list = sorted(removed)
    best = None
    for bits in product((0, 1), repeat=len(terminals)):
        flip_in = {v for v in terminals if bits[tpos[v]]}
        cost_x = 0
        for i in removed_list:
            u, v = arcs[i]
            split = ((u in flip_in) != (v in flip_in)) ^ (psi[u] != psi[v])
            # removed arc becomes proper iff parity-flip makes endpoints differ
            if not split:
                cost_x += 1
        if cost_x > k:
            continue
        # kept arcs are coloring-proper; a parity flip breaks exactly the
        # ones it splits, so the cheapest completion is a minimum cut
        # between the flipped and unflipped terminal sides
        side_a = [v for v in terminals if v in flip_in]
        side_b = [v for v in terminals if v not in flip_in]
        value, reach = _mincut_between(num_vertices, keep, side_a, side_b)
        if cost_x + value <= k and (best is None or cost_x + value < best[0]):
            flip = set(reach)
            new_removed = set()
            for i in removed_list:
                u, v = arcs[i]
                split = ((u in flip) != (v in flip)) ^ (psi[u] != psi[v])
                if not split:
                    new_removed.add(i)
            for j, (u, v) in enumerate(arcs):
                if j in removed:
                    continue
                if (u in flip) != (v in flip):
                    new_removed.add(j)
            best = (cost_x + value, new_removed)
    if best is None:
        return None
    assert len(best[1]) == best[0]
    return best[1]


def edge_bipartization(num_vertices: int, arcs, k: int):
    """Iterative compression; returns arc-id deletion set of size <= k or None."""
    removed = set()
    for i in range(len(arcs)):
        current = [arcs[j] for j in sorted(set(range(i + 1)) - removed)]
        if _two_coloring(num_vertices, current) is not None:
            continue
        removed.add(i)
        if len(removed) > k:
            removed = _bipartization_compress(num_vertices, arcs[: i + 1], removed, k)
            if removed is None:
                return None
    return removed


def mincsp_2ae_compression(graph: CutGraph, k: int):
    """(mask, cost) of a partition violating <= k edges, or None."""
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
    if loop_cost > k:
        return None
    removed = edge_bipartization(gadget_n, arcs, k - loop_cost)
    if removed is None:
        return None
    keep = [arcs[j] for j in range(len(arcs)) if j not in removed]
    psi = _two_coloring(gadget_n, keep)
    mask = 0
    for v in range(graph.num_vertices):
        if psi[v]:
            mask |= 1 << v
    cost = len(graph.edges) - cut_value(graph, mask)
    if cost > k:
        return None
    return mask, cost


def mincsp_2ae(graph: CutGraph, k: int, force: str | None = None):
    """Exact decision solver; brute force below 12 vertices by default."""
    if force == "brute" or (force is None and graph.num_vertices < 12):
        return mincsp_2ae_bruteforce(graph, k)
    return mincsp_2ae_compression(graph, k)


def mincsp_2ae_minimum(graph: CutGraph, force: str | None = None) -> tuple:
    """(mask, minimum cost); terminates since cost <= |edges|."""
    for k in range(len(graph.edges) + 1):
        out = mincsp_2ae(graph, k, force)
        if out is not None:
            return out
    raise AssertionError("unreachable")


def edge_to_vertex_solution(ci: CutInstance, force: str | None = None) -> tuple:
    """Align the proposal with a vertex partition.

    Finds a partition satisfying a largest satisfiable subset of the
    proposal; the caller replaces the proposal by that partition's satisfied
    set and triples the budget.  Returns (mask, 3k).
    """
    sub_edges = tuple(e for e in ci.graph.edges if e.id in ci.p_ids)
    sub = CutGraph(ci.graph.num_vertices, sub_edges)
    mask, _ = mincsp_2ae_minimum(sub, force)
    return mask, 3 * ci.k


# ---------------------------------------------------------------------------
# Balanced cuts
# ---------------------------------------------------------------------------


def literal_q(k: int) -> int:
    return k * k * (1 << (2 * k + 2))


def kq_cut_conditions(graph: CutGraph, marked, mask: int, k: int, q: int) -> bool:
    n = graph.num_vertices
    left = [v for v in range(n) if (mask >> v) & 1]
    right = [v for v in range(n) if not (mask >> v) & 1]
    if not left or not right:
        return False
    if len(crossing_edges(graph, mask)) > k:
        return False
    if not side_connected(graph, left) or not side_connected(graph, right):
        return False
    lset, rset = set(left), set(right)
    un_l = sum(
        1
        for e in graph.edges
        if e.id not in marked and e.u in lset and e.v in lset
    )
    un_r = sum(
        1
        for e in graph.edges
        if e.id not in marked and e.u in rset and e.v in rset
    )
    return un_l >= q and un_r >= q


def find_kq_cut_enumeration(graph: CutGraph, marked, k: int, q: int):
    n = graph.num_vertices
    if n > ENUM_VERTEX_GUARD:
        raise GuardError(f"enumeration cut search guarded at {ENUM_VERTEX_GUARD}")
    for mask in range(2, (1 << n) - 1, 2):  # vertex 0 stays on the right side
        if kq_cut_conditions(graph, marked, mask, k, q):
            return mask
    return None


def find_kq_cut_colorcoding(
    graph: CutGraph,
    marked,
    k: int,
    q: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    delta: float = DEFAULT_DELTA,
):
    """Edge-coloring search: drop color-0 edges, then try pairwise minimum
    cuts between surviving components."""
    edges = graph.edges
    m = len(edges)
    n = graph.num_vertices
    a = min(m, 6 * q + 2)
    b = min(m, k)
    if mode == "exhaustive":
        family = build_coloring_family(m, a, b, mode=mode)
    else:
        family = _family_for(m, a, b, seed, delta)
    arcs = [(e.u, e.v) for e in edges if e.u != e.v]
    for coloring in family.colorings:
        kept = CutGraph(n, tuple(e for i, e in enumerate(edges) if (coloring >> i) & 1))
        comps = kept.components(range(n))
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                value, side = _mincut_between(n, arcs, comps[i], comps[j])
                if value > k:
                    continue
                mask = 0
                for v in side:
                    mask |= 1 << v
                if kq_cut_conditions(graph, marked, mask, k, q):
                    return mask
    return None


def find_kq_cut(
    graph: CutGraph,
    marked,
    k: int,
    q: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    delta: float = DEFAULT_DELTA,
):
    """A cut with <= k crossing edges, both sides connected, both sides
    holding >= q unmarked edges, if one exists.

    Small graphs are searched completely by enumeration (same contract as
    the coloring search, which remains available for larger inputs and for
    cross-checks).
    """
    if graph.num_vertices <= 14:
        return find_kq_cut_enumeration(graph, marked, k, q)
    return find_kq_cut_colorcoding(graph, marked, k, q, mode, seed, delta)


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
        if not self.graph.is_connected():
            raise StructureError("terminal instances must be connected")
        if not is_matching_with_parallels(self.graph, self.marked):
            raise StructureError("marked edges must form a matching-with-parallels")
        crossing = crossing_edges(self.graph, self.a_mask)
        if not self.marked <= crossing:
            raise StructureError("marked edges must be cut by the current partition")


@dataclass
class CutStats:
    recurse_steps: int = 0
    kq_cuts_found: int = 0
    no_cut_solves: int = 0
    stalls: int = 0
    matching_checks: int = 0
    colorings_tried: int = 0
    timed_out: bool = False


@dataclass
class _Ctx:
    k_global: int
    q: int
    q_literal: bool
    mode: str
    seed: int | None
    delta: float
    deadline: object
    stats: CutStats


def _table_update(table, key, mask, value, delta):
    cur = table.get(key)
    if cur is None or value > cur[1] or (value == cur[1] and mask < cur[0]):
        table[key] = (mask, value, delta)


def _terminal_bits(terminals, mask):
    return tuple((mask >> t) & 1 for t in terminals)


def _marked_consistent(graph, marked, mask):
    crossing = crossing_edges(graph, mask)
    return marked <= crossing


def solve_terminal_direct(ti: TerminalInstance, ctx: _Ctx) -> dict:
    """Complete table by partition enumeration.  This realizes the
    exhaustive-coloring specialization of the no-balanced-cut solver: flip
    regions range over all unions of connected label-1 components, which is
    every vertex set, so enumerating partitions yields the same table."""
    n = ti.graph.num_vertices
    if n > ENUM_VERTEX_GUARD:
        raise GuardError(f"direct terminal enumeration guarded at {ENUM_VERTEX_GUARD}")
    p = satisfied_edges(ti.graph, ti.a_mask)
    table = {}
    for mask in range(1 << n):
        sat = satisfied_edges(ti.graph, mask)
        delta = len(sat ^ p)
        if delta > ti.k_prime:
            continue
        if not _marked_consistent(ti.graph, ti.marked, mask):
            continue
        fbits = _terminal_bits(ti.terminals, mask)
        value = len(sat)
        for k2 in range(delta, ti.k_prime + 1):
            _table_update(table, (fbits, k2), mask, value, delta)
    return table


def _family_for(n, a, b, seed, delta):
    """Coloring family for a covering requirement: exhaustive enumeration
    whenever it is no larger than the Monte-Carlo family (it carries the
    guarantee deterministically), the seeded random family otherwise."""
    size = randomized_family_size(a, b, delta)
    if 2 ** n <= min(size, EXHAUSTIVE_CAP):
        return build_coloring_family(n, a, b, mode="exhaustive")
    return build_coloring_family(
        n, a, b, mode="random", seed=seed if seed is not None else 0, delta=delta
    )


def solve_terminal_no_kqcut(ti: TerminalInstance, ctx: _Ctx) -> dict:
    """Terminal table when no (k, q)-cut exists.

    Exhaustive mode uses the provably equivalent complete enumeration;
    randomized mode runs the literal coloring procedure: any close solution
    flips connected components that lie on the color-1 side of some family
    member, with label-0 neighborhoods, selected under the closeness budget
    by a gain/loss knapsack equivalent to guessing per-component deltas.
    """
    ctx.stats.no_cut_solves += 1
    if ctx.mode == "exhaustive":
        return solve_terminal_direct(ti, ctx)

    n = ti.graph.num_vertices
    p = satisfied_edges(ti.graph, ti.a_mask)
    base_value = len(p)
    table = {}
    # the all-stay candidate is always legal for the matching f
    fbits0 = _terminal_bits(ti.terminals, ti.a_mask)
    for k2 in range(0, ti.k_prime + 1):
        _table_update(table, (fbits0, k2), ti.a_mask, base_value, 0)

    big_side = (ti.k_prime + 1) * (2 * ctx.q + 2)
    family = _family_for(n, min(n, big_side), min(n, ctx.k_global), ctx.seed, ctx.delta)
    by_id = {e.id: e for e in ti.graph.edges}
    for coloring in family.colorings:
        if ctx.deadline is not None and ctx.deadline.expired():
            ctx.stats.timed_out = True
            break
        ctx.stats.colorings_tried += 1
        ones = [v for v in range(n) if (coloring >> v) & 1]
        if not ones:
            continue
        oneset = set(ones)
        comps = ti.graph.components(ones)
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}

        gains = []
        for comp in comps:
            cs = set(comp)
            gain = loss = 0
            for e in ti.graph.edges:
                inside = (e.u in cs) + (e.v in cs)
                if inside != 1:
                    continue
                crossed = ((ti.a_mask >> e.u) ^ (ti.a_mask >> e.v)) & 1
                sat_before = crossed == e.etype
                sat_after = (crossed ^ 1) == e.etype
                gain += (not sat_before) and sat_after
                loss += sat_before and not sat_after
            gains.append((gain, loss))

        marked_exclude = set()
        for mid in ti.marked:
            e = by_id[mid]
            cu, cv = e.u in oneset, e.v in oneset
            if cu != cv:
                marked_exclude.add(comp_of[e.u if cu else e.v])

        for fbits in product((0, 1), repeat=len(ti.terminals)):
            must_include = set()
            must_exclude = set(marked_exclude)
            feasible = True
            for t, want in zip(ti.terminals, fbits):
                have = (ti.a_mask >> t) & 1
                if t in oneset:
                    if want != have:
                        must_include.add(comp_of[t])
                    else:
                        must_exclude.add(comp_of[t])
                elif want != have:
                    feasible = False
            if not feasible or (must_include & must_exclude):
                continue
            base_w = sum(gains[c][0] + gains[c][1] for c in must_include)
            base_g = sum(gains[c][0] - gains[c][1] for c in must_include)
            if base_w > ti.k_prime:
                continue
            free = [
                c
                for c in range(len(comps))
                if c not in must_include and c not in must_exclude
            ]
            # dp[w] = (best gain, lexicographically smallest chosen set)
            dp = {0: (0, ())}
            for c in free:
                w = gains[c][0] + gains[c][1]
                g = gains[c][0] - gains[c][1]
                upd = {}
                for cw, (cg, chosen) in dp.items():
                    nw = cw + w
                    if nw > ti.k_prime:
                        continue
                    cand = (cg + g, chosen + (c,))
                    old = upd.get(nw)
                    if old is None or cand[0] > old[0]:
                        upd[nw] = cand
                for nw, cand in upd.items():
                    old = dp.get(nw)
                    if old is None or cand[0] > old[0]:
                        dp[nw] = cand
            for k2 in range(base_w, ti.k_prime + 1):
                best = None
                for w, (g, chosen) in dp.items():
                    if base_w + w <= k2 and (best is None or g > best[0]):
                        best = (g, chosen, w)
                if best is None:
                    continue
                sel = set(must_include)
                for c in best[1]:
                    sel.add(c)
                mask = ti.a_mask
                for c in sel:
                    for v in comps[c]:
                        mask ^= 1 << v
                value = base_value + base_g + best[0]
                delta = base_w + best[2]
                assert value == cut_value(ti.graph, mask)
                if _marked_consistent(ti.graph, ti.marked, mask):
                    _table_update(table, (fbits, k2), mask, value, delta)
    return table


@dataclass(frozen=True)
class LiftLog:
    """Transformation record of one contraction step: where every original
    vertex went, the satisfied-count shift from removed loops, and whether
    the step failed to remove any unmarked edge."""

    vertex_to_reduced: tuple
    value_offset: int
    stalled: bool


def recurse_step(ti: TerminalInstance, cut_mask: int, ctx: _Ctx):
    """Solve the side of the balanced cut with fewer terminals, then contract
    or mark every edge of that side all returned solutions agree on.
    Returns (reduced TerminalInstance, LiftLog)."""
    ctx.stats.recurse_steps += 1
    n = ti.graph.num_vertices
    inside = [v for v in range(n) if (cut_mask >> v) & 1]
    outside = [v for v in range(n) if not (cut_mask >> v) & 1]
    t_in = sum(1 for t in ti.terminals if (cut_mask >> t) & 1)
    t_out = len(ti.terminals) - t_in
    left = inside if t_in <= t_out else outside
    lset = set(left)
    assert sum(1 for t in ti.terminals if t in lset) <= ctx.k_global

    boundary = sorted(
        {
            (e.u if e.u in lset else e.v)
            for e in ti.graph.edges
            if (e.u in lset) != (e.v in lset)
        }
    )
    sub_terms_orig = sorted(set(t for t in ti.terminals if t in lset) | set(boundary))
    assert len(sub_terms_orig) <= 2 * ctx.k_global

    index = {v: i for i, v in enumerate(left)}
    sub_edges = tuple(
        CutEdge(e.id, index[e.u], index[e.v], e.etype)
        for e in ti.graph.edges
        if e.u in lset and e.v in lset
    )
    sub_graph = CutGraph(len(left), sub_edges)
    sub_mask = 0
    for v in left:
        if (ti.a_mask >> v) & 1:
            sub_mask |= 1 << index[v]
    sub_marked = ti.marked & {e.id for e in sub_edges}
    sub_ti = TerminalInstance(
        sub_graph, sub_mask, ti.k_prime, tuple(index[t] for t in sub_terms_orig), sub_marked
    )
    sub_table = solve_terminal(sub_ti, ctx)

    sub_p = satisfied_edges(sub_graph, sub_mask)
    touched = set()
    for mask, _, _ in sub_table.values():
        touched |= sub_p ^ satisfied_edges(sub_graph, mask)
    safe_ids = [e.id for e in sub_edges if e.id not in touched]

    unmarked_in_l = sum(1 for e in sub_edges if e.id not in ti.marked)

    # contract uncut agreed edges, mark cut ones, kept as a matching by
    # contracting the outer endpoints of adjacent marked pairs
    sets = DisjointSets(range(n))
    find, union = sets.find, sets.union
    side = lambda v: (ti.a_mask >> v) & 1
    marked = set(ti.marked)
    by_id = {e.id: e for e in ti.graph.edges}
    for eid in safe_ids:
        e = by_id[eid]
        if find(e.u) == find(e.v):
            continue
        if side(e.u) == side(e.v):
            union(e.u, e.v)
        else:
            marked.add(eid)
        # restore the matching property under the current contraction
        while True:
            reps = {}
            conflict = None
            for mid in sorted(marked):
                me = by_id[mid]
                ends = frozenset((find(me.u), find(me.v)))
                for other_id, other_ends in reps.items():
                    if ends != other_ends and ends & other_ends:
                        conflict = (ends, other_ends)
                        break
                if conflict:
                    break
                reps[mid] = ends
            if not conflict:
                break
            shared = conflict[0] & conflict[1]
            outer = sorted((conflict[0] | conflict[1]) - shared)
            # both outer endpoints oppose the shared one, hence share a side
            assert len(outer) == 2 and side(outer[0]) == side(outer[1])
            union(outer[0], outer[1])

    # rebuild the reduced instance
    reps = sorted({find(v) for v in range(n)})
    new_index = {r: i for i, r in enumerate(reps)}
    new_edges = []
    value_offset = 0
    for e in ti.graph.edges:
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            assert e.id not in marked
            value_offset += e.etype == 0
            continue
        new_edges.append(CutEdge(e.id, new_index[ru], new_index[rv], e.etype))
    new_graph = CutGraph(len(reps), tuple(new_edges))
    new_mask = 0
    for r in reps:
        if side(r):
            new_mask |= 1 << new_index[r]
    term_map = {}
    for t in ti.terminals:
        term_map.setdefault(new_index[find(t)], []).append(t)
    new_terms = tuple(sorted(term_map))
    new_marked = frozenset(marked)
    reduced = TerminalInstance(new_graph, new_mask, ti.k_prime, new_terms, new_marked)

    ctx.stats.matching_checks += 1
    assert is_matching_with_parallels(new_graph, new_marked)

    unmarked_before = sum(1 for e in ti.graph.edges if e.id not in ti.marked)
    unmarked_after = sum(1 for e in new_edges if e.id not in new_marked)
    drop = unmarked_before - unmarked_after
    if ctx.q_literal:
        assert drop >= unmarked_in_l - ctx.q // 2
    if drop < 1:
        ctx.stats.stalls += 1
    log = LiftLog(
        tuple(new_index[find(v)] for v in range(n)), value_offset, drop < 1
    )
    return reduced, log


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
    """Terminal-problem dispatcher: recurse while a balanced cut exists."""
    if ctx.deadline is not None and ctx.deadline.expired():
        ctx.stats.timed_out = True
        table = {}
        fbits = _terminal_bits(ti.terminals, ti.a_mask)
        for k2 in range(0, ti.k_prime + 1):
            _table_update(
                table, (fbits, k2), ti.a_mask,
                len(satisfied_edges(ti.graph, ti.a_mask)), 0,
            )
        return table
    cut = find_kq_cut(ti.graph, ti.marked, ctx.k_global, ctx.q, ctx.mode, ctx.seed, ctx.delta)
    if cut is None:
        return solve_terminal_no_kqcut(ti, ctx)
    ctx.stats.kq_cuts_found += 1
    reduced, log = recurse_step(ti, cut, ctx)
    if log.stalled:
        # only reachable with an overridden balanced-cut threshold: the
        # sub-solutions touched every edge of the small side, so fall back
        # to the exact table instead of recursing without progress
        return solve_terminal_direct(ti, ctx)
    return lift_table(ti, solve_terminal(reduced, ctx), log)


def cut_improve(
    ci: CutInstance,
    mode: str = "exhaustive",
    seed: int | None = None,
    delta: float = DEFAULT_DELTA,
    q_override: int | None = None,
    deadline=None,
    force_mincsp: str | None = None,
):
    """Best partition for one connected cut-improvement instance.

    Returns (mask, value, stats).  On promise-satisfying inputs in
    exhaustive mode the mask maximizes the satisfied edge set.
    """
    stats = CutStats()
    core_edges = tuple(e for e in ci.graph.edges if e.u != e.v)
    if not core_edges:
        return 0, cut_value(ci.graph, 0), stats
    core = CutGraph(ci.graph.num_vertices, core_edges)
    core_ci = CutInstance(core, ci.p_ids & {e.id for e in core_edges}, ci.k)
    a_mask, k3 = edge_to_vertex_solution(core_ci, force_mincsp)
    k_glob = k3
    q = q_override if q_override is not None else literal_q(k_glob)
    ctx = _Ctx(
        k_global=k_glob,
        q=q,
        q_literal=q_override is None,
        mode=mode,
        seed=seed,
        delta=delta,
        deadline=deadline,
        stats=stats,
    )
    ti = TerminalInstance(core, a_mask, k3, (), frozenset())
    table = solve_terminal(ti, ctx)
    best_mask, best_value = a_mask, cut_value(ci.graph, a_mask)
    for (fbits, _), (mask, _, _) in table.items():
        value = cut_value(ci.graph, mask)
        if value > best_value or (value == best_value and mask < best_mask):
            best_mask, best_value = mask, value
    return best_mask, best_value, stats


def solve_2ae(
    instance: Instance,
    proposed: ProposedSolution,
    mode: str = "exhaustive",
    seed: int | None = None,
    delta: float = DEFAULT_DELTA,
    q_override: int | None = None,
    deadline=None,
):
    """Library entry point for homogeneous two-variable all-equal instances.

    Returns (assignment, per-component stats list).
    """
    components, _ = csp_to_cut(instance, proposed)
    solved = []
    stats = []
    for ci, verts in components:
        mask, _, st = cut_improve(ci, mode, seed, delta, q_override, deadline)
        solved.append((mask, verts))
        stats.append(st)
    return assemble_assignment(instance.num_vars, solved), stats
