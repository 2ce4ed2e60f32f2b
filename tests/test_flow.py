import random
from itertools import combinations

import pytest

from symcsp.core import StructureError
from symcsp.flow import (
    FlowNetwork,
    WeightedHypergraph,
    max_flow_min_cut,
    selection_objective,
    solve_mis_vw,
)
from symcsp.oracle import brute_force_misvw


def test_single_arc():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 3)
    value, side = max_flow_min_cut(net)
    assert value == 3 and side == frozenset({0})


def test_two_disjoint_paths():
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 3, 1)
    net.add_arc(0, 2, 1)
    net.add_arc(2, 3, 1)
    value, side = max_flow_min_cut(net)
    assert value == 2 and 0 in side and 3 not in side


def test_zero_capacity_allowed():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 0)
    assert max_flow_min_cut(net)[0] == 0
    with pytest.raises(StructureError):
        net.add_arc(0, 1, -1)


def brute_cut_value(n, arcs, s, t):
    best = None
    for mask in range(1 << n):
        if (mask >> s) & 1 == 0 or (mask >> t) & 1:
            continue
        val = sum(c for u, v, c in arcs if (mask >> u) & 1 and not (mask >> v) & 1)
        best = val if best is None else min(best, val)
    return best


def test_max_flow_matches_cut_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 7)
        arcs = []
        net = FlowNetwork(n, 0, n - 1)
        for _ in range(rng.randint(1, 14)):
            u, v = rng.sample(range(n), 2)
            c = rng.randint(0, 5)
            arcs.append((u, v, c))
            net.add_arc(u, v, c)
        value, side = max_flow_min_cut(net)
        assert value == brute_cut_value(n, arcs, 0, n - 1)
        assert 0 in side and (n - 1) not in side
        # returned side is exactly the min cut it claims to be
        assert value == sum(
            c for u, v, c in arcs if u in side and v not in side
        )


def test_min_cut_sides_connected_on_connected_graphs():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(3, 8)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        chosen = pairs[: n - 1 + rng.randint(0, 4)]
        # spanning chain ensures connectivity
        chosen += [(i, i + 1) for i in range(n - 1)]
        net = FlowNetwork(n, 0, n - 1)
        und = []
        for u, v in chosen:
            c = rng.randint(1, 4)
            net.add_arc(u, v, c)
            net.add_arc(v, u, c)
            und.append((u, v))
        _, side = max_flow_min_cut(net)
        for part in (side, frozenset(range(n)) - side):
            assert part
            seen = {min(part)}
            stack = [min(part)]
            while stack:
                x = stack.pop()
                for u, v in und:
                    for a, b in ((u, v), (v, u)):
                        if a == x and b in part and b not in seen:
                            seen.add(b)
                            stack.append(b)
            assert seen == set(part)


def test_misvw_trivial_examples():
    h = WeightedHypergraph(3, (), (1, 1, 1))
    assert solve_mis_vw(h) == (frozenset(), 0)

    h = WeightedHypergraph(1, (frozenset({0}),), (0,))
    assert solve_mis_vw(h) == (frozenset({0}), 1)


def test_misvw_negative_and_zero_isolated():
    h = WeightedHypergraph(3, (), (-2, 0, 1))
    v0, value = solve_mis_vw(h)
    assert v0 == frozenset({0}) and value == 2


def test_misvw_objective_dominates_singletons():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = rng.randint(0, 10)
        edges = tuple(
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(m)
        )
        weights = tuple(rng.randint(-3, 3) for _ in range(n))
        h = WeightedHypergraph(n, edges, weights)
        _, value = solve_mis_vw(h)
        assert value >= selection_objective(h, frozenset())
        for v in range(n):
            assert value >= selection_objective(h, frozenset({v}))


def test_misvw_matches_brute_force():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 9)
        m = rng.randint(0, 12)
        edges = tuple(
            frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(m)
        )
        weights = tuple(rng.randint(-3, 3) for _ in range(n))
        h = WeightedHypergraph(n, edges, weights)
        v0, value = solve_mis_vw(h)
        bv0, bvalue = brute_force_misvw(h)
        assert value == bvalue
        assert selection_objective(h, v0) == value
        assert v0 == bv0  # lexicographically smallest optimum


def test_hypergraph_validation():
    with pytest.raises(StructureError):
        WeightedHypergraph(2, (frozenset(),), (0, 0))
    with pytest.raises(StructureError):
        WeightedHypergraph(2, (frozenset({5}),), (0, 0))
    with pytest.raises(StructureError):
        WeightedHypergraph(2, (), (0,))


def test_long_path_network():
    # one augmenting path through 5,000 nodes, well past the recursion
    # limit; the residual-reachable side stops at the first bottleneck
    n = 5000
    net = FlowNetwork(n, 0, n - 1)
    for u in range(n - 1):
        net.add_arc(u, u + 1, 2 if u in (1234, 3000) else 5)
    value, side = max_flow_min_cut(net)
    assert value == 2
    assert side == frozenset(range(1235))
