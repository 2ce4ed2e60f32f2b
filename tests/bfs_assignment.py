"""Test helper: the selection's assignment by breadth-first search alone.

`symcsp.flow.closure_assignment` places a hyperedge directly when one of
its vertices has capacity left, and skips one whose vertices are all dead,
before it searches; a vertex of capacity at most 0 starts dead.  The
routines here search for every hyperedge, over hyperedges cut down to their
positive-capacity vertices, as the program did before those shortcuts, and
are the reference it must match.
"""

from __future__ import annotations


def closure_assignment_bfs(caps, edges) -> tuple:
    """(dead, reached), with every hyperedge placed by a breadth-first
    search for an alternating path to a vertex below its capacity."""
    m = len(edges)
    owner = [-1] * m  # the vertex each hyperedge is assigned to
    held = [set() for _ in caps]
    mark = [-1] * len(caps)  # the last search that visited a vertex; m = dead
    for i in range(m):
        parent = {}  # visited vertex -> the hyperedge that reached it
        queue = [i]
        end = -1
        for j in queue:
            for u in edges[j]:
                if mark[u] < i:
                    mark[u] = i
                    parent[u] = j
                    if len(held[u]) < caps[u]:
                        end = u
                        break
                    queue.extend(held[u])
            if end >= 0:
                break
        if end < 0:
            for v in parent:
                mark[v] = m
            continue
        v = end
        while v >= 0:  # shift each hyperedge on the path one step along it
            j = parent[v]
            held[v].add(j)
            v, owner[j] = owner[j], v
            if v >= 0:
                held[v].discard(j)
    dead = [v for v, seen in enumerate(mark) if seen == m]
    return dead, [j for j, holder in enumerate(owner) if holder < 0 or mark[holder] == m]


def solve_mis_vw_bfs(h) -> tuple:
    """(V0, value) of the selection problem on a `WeightedHypergraph`, one
    generator per hyperedge and per reached hyperedge, over the search above."""
    w = h.weights
    dead, reached = closure_assignment_bfs(w, [[v for v in e if w[v] > 0] for e in h.hyperedges])
    v0 = set(dead).union(v for v, wv in enumerate(w) if wv < 0)
    for j in reached:
        v0.update(v for v in h.hyperedges[j] if w[v] == 0)
    return frozenset(v0), len(reached) - sum(w[v] for v in v0)
