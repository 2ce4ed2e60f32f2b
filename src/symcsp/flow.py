"""Integer max-flow/min-cut and the weighted-hypergraph selection solver.

The selection problem: given a hypergraph with integer vertex weights, pick
a vertex set V0 maximizing |E(H(V0))| - sum of w over V0.  It is solved
exactly as a maximum-weight closure: hyperedge nodes carry profit 1,
positive-weight vertex nodes carry their cost, and infinite-capacity
prerequisite arcs force a selected hyperedge to pull in its vertices.
Nonpositive-weight vertices are pre-selected (never hurts the objective).
"""

from __future__ import annotations

from collections import deque
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


def max_flow_min_cut(net: FlowNetwork) -> tuple:
    """Dinic max flow; returns (value, source-side vertex frozenset).

    The returned side is the set of nodes reachable from the source in the
    residual network, i.e. the canonical minimum cut.
    """
    n, s, t = net.num_nodes, net.source, net.sink
    to, cap, adj = net.to, net.cap, net.adj
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for aid in adj[u]:
                v = to[aid]
                if cap[aid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            break
        # blocking flow along current arcs; the path is an explicit stack of
        # arc ids, so long networks cannot exhaust the call stack
        it = [0] * n
        path = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[aid] for aid in path)
                for aid in path:
                    cap[aid] -= pushed
                    cap[aid ^ 1] += pushed
                total += pushed
                path.clear()
                u = s
            arcs, i, next_level = adj[u], it[u], level[u] + 1
            while i < len(arcs) and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == next_level):
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif not path:
                break
            else:  # dead end: retreat past the arc that led here
                u = to[path.pop() ^ 1]
                it[u] += 1

    side = set([s])
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for aid in adj[u]:
            v = to[aid]
            if cap[aid] > 0 and v not in side:
                side.add(v)
                queue.append(v)
    return total, frozenset(side)


@dataclass(frozen=True)
class WeightedHypergraph:
    num_vertices: int
    hyperedges: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.num_vertices:
            raise StructureError("one weight per vertex required")
        for e in self.hyperedges:
            if not e:
                raise StructureError("hyperedges must be nonempty")
            for v in e:
                if not (0 <= v < self.num_vertices):
                    raise StructureError(f"hyperedge vertex {v} out of range")


def selection_objective(h: WeightedHypergraph, v0) -> int:
    v0 = set(v0)
    inside = sum(1 for e in h.hyperedges if set(e) <= v0)
    return inside - sum(h.weights[v] for v in v0)


def solve_mis_vw(h: WeightedHypergraph) -> tuple:
    """Exact optimum of the selection problem; returns (vertex frozenset, value).

    Ties go to the inclusion-minimal optimum (also lexicographically smallest
    characteristic vector): the closure is read off the residual-reachable
    side of the min cut, nonpositive-weight isolated vertices join only when
    strictly profitable, and zero-weight vertices join only when an incident
    hyperedge is selected.
    """
    m = len(h.hyperedges)
    nv = h.num_vertices
    pos = [v for v in range(nv) if h.weights[v] > 0]
    pos_index = {v: i for i, v in enumerate(pos)}
    # node ids: 0 = source, 1..m = hyperedges, m+1.. = positive vertices, last = sink
    s = 0
    t = 1 + m + len(pos)
    net = FlowNetwork(t + 1, s, t)
    inf = sum(h.weights[v] for v in pos) + m + 1
    for i in range(m):
        net.add_arc(s, 1 + i, 1)
        for v in h.hyperedges[i]:
            if v in pos_index:
                net.add_arc(1 + i, 1 + m + pos_index[v], inf)
    for v in pos:
        net.add_arc(1 + m + pos_index[v], t, h.weights[v])

    _, side = max_flow_min_cut(net)
    selected_edges = {i for i in range(m) if (1 + i) in side}
    v0 = {v for v in pos if (1 + m + pos_index[v]) in side}
    v0.update(v for v in range(nv) if h.weights[v] < 0)
    for i in selected_edges:
        v0.update(v for v in h.hyperedges[i] if h.weights[v] == 0)
    value = selection_objective(h, v0)
    return frozenset(v0), value
