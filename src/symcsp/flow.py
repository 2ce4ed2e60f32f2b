"""Integer max-flow/min-cut and the weighted-hypergraph selection solver.

The selection problem: given a hypergraph with integer vertex weights, pick
a vertex set V0 maximizing |E(H(V0))| - sum of w over V0.  As a
maximum-weight closure whose hyperedges all carry profit 1, it is a
capacitated assignment: each hyperedge goes to at most one of its
positive-weight vertices, and vertex v takes at most w(v) of them.
`closure_assignment`, the one routine for it, finds a maximum assignment
by augmenting paths and reads the optimum off the residual side reachable
from the unassigned hyperedges, the same for every maximum assignment, so
no search or hyperedge order changes the answer.  Its callers are
`solve_mis_vw` (a `WeightedHypergraph`) and the AND flip search, on more
than six groups of a key tied by shared gained clauses.

`max_flow_min_cut` serves the cut pipeline, which only asks whether a
minimum cut is within a budget and, if so, for its source side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import StructureError


@dataclass
class FlowNetwork:
    """Adjacency-list flow network with integer capacities."""

    num_nodes: int
    source: int
    sink: int
    to: list = field(default_factory=list)
    cap: list = field(default_factory=list)
    adj: list = field(default_factory=list)

    def __post_init__(self):
        if self.source == self.sink:
            raise StructureError("source and sink must differ")
        if not self.adj:
            self.adj = [[] for _ in range(self.num_nodes)]

    def add_arc(self, u: int, v: int, capacity: int) -> int:
        if capacity < 0:
            raise StructureError("capacities must be nonnegative")
        aid = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[u].append(aid)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(aid + 1)
        return aid


def max_flow_min_cut(net: FlowNetwork, bound: int) -> tuple:
    """(value, source side) of a minimum cut of at most `bound`, else
    (bound + 1, None): one unit along a shortest augmenting path at a time.

    The search that finds no path reaches the source side of the residual
    network, the inclusion-minimal minimum cut, the same for every maximum
    flow."""
    s, t = net.source, net.sink
    to, cap, adj = net.to, net.cap, net.adj
    total = 0
    while total <= bound:
        via = {s: -1}  # reached node -> the arc that reached it
        queue = [s]
        for u in queue:
            for aid in adj[u]:
                v = to[aid]
                if cap[aid] > 0 and v not in via:
                    via[v] = aid
                    queue.append(v)
            if t in via:
                break
        else:
            return total, frozenset(via)
        v = t
        while v != s:  # one unit back along the path
            aid = via[v]
            cap[aid] -= 1
            cap[aid ^ 1] += 1
            v = to[aid ^ 1]
        total += 1
    return total, None


@dataclass(frozen=True)
class WeightedHypergraph:
    """Each hyperedge is a nonempty sequence of vertex ids, repeats allowed."""

    num_vertices: int
    hyperedges: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.num_vertices:
            raise StructureError("one weight per vertex required")
        if not all(self.hyperedges):
            raise StructureError("hyperedges must be nonempty")
        vertices = frozenset().union(*self.hyperedges)
        if vertices:
            low, high = min(vertices), max(vertices)
            if low < 0 or high >= self.num_vertices:
                raise StructureError(f"hyperedge vertex {low if low < 0 else high} out of range")


def selection_objective(h: WeightedHypergraph, v0) -> int:
    v0 = set(v0)
    inside = sum(1 for e in h.hyperedges if set(e) <= v0)
    return inside - sum(h.weights[v] for v in v0)


def closure_assignment(caps, edges) -> tuple:
    """(dead, reached) of a maximum assignment of each hyperedge j to a
    vertex of `edges[j]`, vertex v taking at most `caps[v]` of them.

    A vertex of capacity at most 0 is dead from the start: nothing is
    placed on it or searched through it.  Hyperedges are placed in order.
    One with a vertex below its capacity goes directly to the first such
    vertex in list order, and one whose vertices are all dead stays
    unassigned: there a breadth-first search would stop with a path of one
    step, or visit nothing.  Any other is placed by a breadth-first search
    for an alternating path to a vertex below its capacity.  A failed search
    visits only full vertices whose hyperedges lead back among them or to
    earlier dead vertices, so no later path can pass there: they are marked
    dead for good.  Direct placement leaves the assignment the search would,
    and the marks it skips do not matter: full vertices stay full, and a
    mark set by search i reads the same as an older one to every later
    search.  `dead` is then those vertices and the ones reachable from the
    unassigned hyperedges, which every maximum assignment shares, and
    `reached` the hyperedges whose vertices are all dead; both ascend.
    """
    m = len(edges)
    owner = [-1] * m  # the vertex each hyperedge is assigned to
    held = [set() for _ in caps]
    free = list(caps)  # the capacity each vertex has left
    mark = [m if c <= 0 else -1 for c in caps]  # the last search to visit; m = dead
    for i, e in enumerate(edges):
        alive = False  # some vertex of e is not dead
        for u in e:
            if mark[u] < m:
                if free[u] > 0:  # direct placement
                    owner[i] = u
                    held[u].add(i)
                    free[u] -= 1
                    break
                alive = True
        if owner[i] >= 0 or not alive:
            continue
        parent = {}  # visited vertex -> the hyperedge that reached it
        queue = [i]
        end = -1
        for j in queue:
            for u in edges[j]:
                if mark[u] < i:
                    mark[u] = i
                    parent[u] = j
                    if free[u] > 0:
                        end = u
                        break
                    queue.extend(held[u])
            if end >= 0:
                break
        if end < 0:
            for v in parent:
                mark[v] = m
            continue
        free[end] -= 1
        v = end
        while v >= 0:  # shift each hyperedge on the path one step along it
            j = parent[v]
            held[v].add(j)
            v, owner[j] = owner[j], v
            if v >= 0:
                held[v].discard(j)
    dead = [v for v, seen in enumerate(mark) if seen == m]
    return dead, [j for j, holder in enumerate(owner) if holder < 0 or mark[holder] == m]


def solve_mis_vw(h: WeightedHypergraph) -> tuple:
    """Exact optimum of the selection problem; returns (vertex frozenset, value).

    Ties go to the inclusion-minimal optimum (also lexicographically smallest
    characteristic vector): V0 is the dead positive vertices, every negative
    vertex, and the zero-weight vertices of the reached hyperedges.
    """
    w = h.weights
    dead, reached = closure_assignment(w, h.hyperedges)
    v0 = {v for v in dead if w[v] > 0}.union(v for v, wv in enumerate(w) if wv < 0)
    zero = {v for v, wv in enumerate(w) if wv == 0}
    v0 |= zero.intersection(frozenset().union(*map(h.hyperedges.__getitem__, reached)))
    return frozenset(v0), len(reached) - sum(map(w.__getitem__, v0))
