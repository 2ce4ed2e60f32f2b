"""Test helper: Dinic's max flow, the generic reference for the flow layer.

`symcsp.flow.max_flow_min_cut` augments one shortest path at a time and
stops above a bound, which is all the cut pipeline needs.  Dinic computes
the full flow on any capacities by blocking flows on level graphs, fast
enough for the 10^4-hyperedge closure networks the selection tests build,
and its residual-reachable side is the same canonical minimum cut.
"""

from __future__ import annotations

from collections import deque

from symcsp.flow import FlowNetwork


def dinic(net: FlowNetwork) -> tuple:
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
