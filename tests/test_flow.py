import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcsp.core import StructureError
from symcsp.cut_solver import _mincut_between
from symcsp.flow import (
    FlowNetwork,
    WeightedHypergraph,
    closure_assignment,
    max_flow_min_cut,
    selection_objective,
    solve_mis_vw,
)
from symcsp.oracle import brute_force_misvw

from bfs_assignment import closure_assignment_bfs, solve_mis_vw_bfs
from dinic import dinic


def test_single_arc():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 3)
    value, side = max_flow_min_cut(net, 3)
    assert value == 3 and side == frozenset({0})


def test_two_disjoint_paths():
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 3, 1)
    net.add_arc(0, 2, 1)
    net.add_arc(2, 3, 1)
    value, side = max_flow_min_cut(net, 2)
    assert value == 2 and 0 in side and 3 not in side


def test_second_path_cancels_flow_of_the_first():
    # the shortest path 0-1-3-6 blocks both of the maximum flow's paths,
    # 0-1-4-5-6 and 0-2-3-6; the second search must undo the arc 1 -> 3
    net = FlowNetwork(7, 0, 6)
    for u, v in ((0, 1), (0, 2), (1, 3), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6)):
        net.add_arc(u, v, 1)
    assert max_flow_min_cut(net, 2) == (2, frozenset({0}))


def test_zero_capacity_allowed():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 0)
    assert max_flow_min_cut(net, 0)[0] == 0
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
        ref = FlowNetwork(n, 0, n - 1)
        for _ in range(rng.randint(1, 14)):
            u, v = rng.sample(range(n), 2)
            c = rng.randint(0, 5)
            arcs.append((u, v, c))
            net.add_arc(u, v, c)
            ref.add_arc(u, v, c)
        value, side = max_flow_min_cut(net, sum(c for _, _, c in arcs))
        assert value == brute_cut_value(n, arcs, 0, n - 1)
        assert (value, side) == dinic(ref)
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
        _, side = max_flow_min_cut(net, 4 * len(chosen))
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
    with pytest.raises(StructureError, match="vertex -1 out of range"):
        WeightedHypergraph(3, (frozenset({0, 2}), frozenset({-1, 5})), (0, 0, 0))
    with pytest.raises(StructureError, match="vertex 5 out of range"):
        WeightedHypergraph(3, (frozenset({0, 2}), frozenset({1, 5})), (0, 0, 0))


def test_long_path_network():
    # one augmenting path through 5,000 nodes, well past the recursion
    # limit; the residual-reachable side stops at the first bottleneck
    n = 5000
    net = FlowNetwork(n, 0, n - 1)
    for u in range(n - 1):
        net.add_arc(u, u + 1, 2 if u in (1234, 3000) else 5)
    value, side = max_flow_min_cut(net, 2)
    assert value == 2
    assert side == frozenset(range(1235))


@st.composite
def _unit_cut_cases(draw):
    """A unit multigraph (parallel edges, isolated vertices), disjoint
    source and sink sides (either may be empty) and a bound up to the edge
    count."""
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    arcs = draw(st.lists(pair, max_size=16)) if n > 1 else []
    if arcs:  # repeat some edges verbatim
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=4))
    label = draw(st.lists(st.sampled_from("ab-"), min_size=n, max_size=n))
    side_a = [v for v in range(n) if label[v] == "a"]
    side_b = [v for v in range(n) if label[v] == "b"]
    return n, arcs, side_a, side_b, draw(st.integers(0, len(arcs)))


def _dinic_between(n, arcs, side_a, side_b):
    """`_mincut_between` without a bound, solved by Dinic."""
    if not side_a:
        return 0, frozenset()
    if not side_b:
        return 0, frozenset(range(n))
    net = FlowNetwork(n + 2, n, n + 1)
    for u, v in arcs:
        net.add_arc(u, v, 1)
        net.add_arc(v, u, 1)
    for u in side_a:
        net.add_arc(n, u, len(arcs) + 1)
    for u in side_b:
        net.add_arc(u, n + 1, len(arcs) + 1)
    value, side = dinic(net)
    return value, frozenset(v for v in side if v < n)


@settings(max_examples=300, deadline=None)
@given(_unit_cut_cases())
@example((3, [(0, 1)] * 3 + [(1, 2)], [0], [2], 0))
@example((4, [(0, 1), (2, 3)], [0, 1], [], 0))
@example((4, [(0, 1), (2, 3)], [], [2], 0))
def test_bounded_min_cut_matches_dinic(case):
    n, arcs, side_a, side_b, bound = case
    value, side = _mincut_between(n, arcs, side_a, side_b, bound)
    ref_value, ref_side = _dinic_between(n, arcs, side_a, side_b)
    if ref_value <= bound:
        assert (value, side) == (ref_value, ref_side)
    else:
        assert (value, side) == (bound + 1, None)


def test_bounded_min_cut_stops_above_the_bound():
    # 50 parallel unit edges: three augmenting paths exceed the bound 2
    assert _mincut_between(2, [(0, 1)] * 50, [0], [1], 2) == (3, None)
    assert _mincut_between(2, [(0, 1)] * 50, [0], [1], 50) == (50, frozenset({0}))


def closure_reference(h):
    """The selection as a maximum-weight closure on a generic flow network:
    source -> hyperedge (capacity 1) -> each positive vertex (infinite) ->
    sink (its weight), solved by Dinic and read off the residual-reachable
    side."""
    m = len(h.hyperedges)
    pos = [v for v in range(h.num_vertices) if h.weights[v] > 0]
    pos_index = {v: i for i, v in enumerate(pos)}
    s, t = 0, 1 + m + len(pos)
    net = FlowNetwork(t + 1, s, t)
    inf = sum(h.weights[v] for v in pos) + m + 1
    for i, e in enumerate(h.hyperedges):
        net.add_arc(s, 1 + i, 1)
        for v in e:
            if v in pos_index:
                net.add_arc(1 + i, 1 + m + pos_index[v], inf)
    for v in pos:
        net.add_arc(1 + m + pos_index[v], t, h.weights[v])
    _, side = dinic(net)
    v0 = {v for v in pos if 1 + m + pos_index[v] in side}
    v0.update(v for v in range(h.num_vertices) if h.weights[v] < 0)
    for i, e in enumerate(h.hyperedges):
        if 1 + i in side:
            v0.update(v for v in e if h.weights[v] == 0)
    return frozenset(v0), selection_objective(h, v0)


@st.composite
def _hypergraphs(draw):
    n = draw(st.integers(1, 30))
    weight = st.one_of(st.integers(-3, 4), st.integers(-(10**12), 10**12))
    weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    edges = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=5), max_size=40
    ))
    if edges:  # repeat some hyperedges verbatim
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    return WeightedHypergraph(n, tuple(edges), weights)


@settings(max_examples=150, deadline=None)
@given(_hypergraphs())
@example(WeightedHypergraph(3, (), (1, 0, -2)))
@example(WeightedHypergraph(3, (frozenset({0, 1}),) * 3, (0, -1, 0)))
@example(WeightedHypergraph(2, (frozenset({0, 1}),) * 4, (10**12, 1)))
def test_misvw_matches_closure_reference(h):
    assert solve_mis_vw(h) == closure_reference(h)


@settings(max_examples=150, deadline=None)
@given(_hypergraphs())
def test_assignment_routine_matches_misvw_on_positive_capacities(h):
    # with every weight positive the selection is the dead set alone, the
    # reached hyperedges are those inside it, and hyperedge order is free
    caps = tuple(abs(w) + 1 for w in h.weights)
    edges = [sorted(e, reverse=True) for e in h.hyperedges][::-1]
    dead, reached = closure_assignment(caps, edges)
    v0, value = solve_mis_vw(WeightedHypergraph(h.num_vertices, h.hyperedges, caps))
    assert frozenset(dead) == v0 and dead == sorted(dead)
    assert reached == [j for j, e in enumerate(edges) if set(e) <= v0]
    assert len(reached) - sum(caps[v] for v in dead) == value


def _path_orders(n):
    edges = [frozenset({i, i + 1}) for i in range(n - 1)]
    yield edges[1:] + edges[:1]  # {0, 1} last: shifts the path when w(0) = 0
    yield edges[::2] + edges[1::2]
    yield edges[1::2] + edges[::2]


def test_misvw_long_augmenting_paths_match_reference():
    n = 300
    for edges in _path_orders(n):
        for weights in ((0,) + (1,) * (n - 1), (1,) * n, (1, 2) * (n // 2)):
            h = WeightedHypergraph(n, tuple(edges), weights)
            assert solve_mis_vw(h) == closure_reference(h)

    n = 40
    stairs = [frozenset(range(i + 1)) for i in range(n)]
    stairs += [frozenset(range(i, n)) for i in range(n)]
    for weights in ((1,) * n, (2,) * n, tuple(i % 3 for i in range(n))):
        h = WeightedHypergraph(n, tuple(stairs), weights)
        assert solve_mis_vw(h) == closure_reference(h)

    # hub 0 of weight k with lanes of length 1..k, each edge taken by its
    # lower end; each singleton hub edge then shifts a whole lane, and one
    # more finds every vertex full
    k = 25
    edges, nv = [], 1
    for length in range(1, k + 1):
        lane = [0] + list(range(nv, nv + length))
        edges += [frozenset(lane[i:i + 2]) for i in range(length)]
        nv += length
    weights = (k,) + (1,) * (nv - 1)
    for extra in (k, k + 1):
        h = WeightedHypergraph(nv, tuple(edges + [frozenset({0})] * extra), weights)
        assert solve_mis_vw(h) == closure_reference(h)


def test_misvw_bench_sized_instance_matches_reference():
    # the shape of the benchmark's largest selection input: 10^4 hyperedges
    # of 1-3 vertices over 1,250 vertices, weights in -2..6
    rng = random.Random(11)
    m, nv = 10_000, 1_250
    edges = tuple(frozenset(rng.sample(range(nv), rng.randint(1, 3))) for _ in range(m))
    h = WeightedHypergraph(nv, edges, tuple(rng.randint(-2, 6) for _ in range(nv)))
    assert solve_mis_vw(h) == closure_reference(h)


@st.composite
def _assignment_inputs(draw):
    """(caps, edges) as the selection and the AND flip search pass them:
    hyperedges may be empty or repeat a vertex, capacities are 1, small,
    large, zero or negative (raw selection weights), and an optional tail of
    copies of one hyperedge can outrun the capacity of its vertices, so
    every later search finds them dead."""
    n = draw(st.integers(1, 10))
    cap = st.one_of(st.just(1), st.integers(1, 3), st.integers(10**6, 10**12),
                    st.just(0), st.integers(-(10**12), -1))
    caps = draw(st.lists(cap, min_size=n, max_size=n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(vertex, max_size=5), max_size=40))
    tail = draw(st.lists(vertex, min_size=1, max_size=3))
    edges += [tail] * draw(st.integers(0, 8))
    edges += draw(st.lists(st.lists(vertex, max_size=3), max_size=5))
    return caps, edges


@settings(max_examples=300, deadline=None)
@given(_assignment_inputs())
@example(([1, 1], [[0, 1]] * 3 + [[0], [1, 1], [], [1, 0]]))
@example(([1, 10**12], [[0, 0], [0], [1, 0], [0, 0, 0], []]))
@example(([0, 1, -3], [[0, 1], [2, 0], [1], [1, 2, 2], [0]]))
def test_direct_placement_matches_the_search_alone(case):
    # a vertex of capacity at most 0 starts dead: the search over the
    # hyperedges without it reaches the same hyperedges and live vertices
    caps, edges = case
    dead, reached = closure_assignment(caps, edges)
    live = [[u for u in e if caps[u] > 0] for e in edges]
    ref_dead, ref_reached = closure_assignment_bfs(caps, live)
    assert reached == ref_reached
    assert [v for v in dead if caps[v] > 0] == ref_dead
    assert {v for v, c in enumerate(caps) if c <= 0} <= set(dead) and dead == sorted(dead)


@st.composite
def _hypergraphs_with_repeats(draw):
    """Hypergraphs whose hyperedges are frozensets, or tuples or lists (as
    `symcsp misvw` reads them) that may repeat a vertex, with zero,
    negative, small and large weights."""
    n = draw(st.integers(1, 12))
    weight = st.one_of(st.integers(-2, 3), st.just(0), st.integers(-(10**12), 10**12))
    weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5), max_size=30))
    form = draw(st.sampled_from((frozenset, tuple, list)))
    return WeightedHypergraph(n, tuple(map(form, rows)), weights)


@settings(max_examples=300, deadline=None)
@given(_hypergraphs_with_repeats())
@example(WeightedHypergraph(3, ((0, 0, 1), (1, 2, 2), (2,)), (0, 1, 0)))
@example(WeightedHypergraph(2, ((0, 1),) * 5, (1, -1)))
@example(WeightedHypergraph(4, ([2, 2, 1], [0, 3], [1, 1], [3]), (1, 0, 2, -1)))
def test_selection_matches_the_search_alone(h):
    assert solve_mis_vw(h) == solve_mis_vw_bfs(h)
