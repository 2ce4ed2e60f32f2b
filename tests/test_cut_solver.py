import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcsp.core import Instance, ProposedSolution, StructureError, SymmetricLanguage, Clause, DisjointSets, satisfied_set
from symcsp.cut_solver import (
    CutEdge,
    CutGraph,
    CutInstance,
    CutStats,
    TerminalInstance,
    _Ctx,
    assemble_assignment,
    crossing_edges,
    csp_to_cut,
    cut_improve,
    cut_value,
    edge_to_vertex_solution,
    find_kq_cut,
    find_kq_cut_colorcoding,
    find_kq_cut_enumeration,
    is_matching_with_parallels,
    kq_cut_conditions,
    literal_q,
    mincsp_2ae,
    mincsp_2ae_bruteforce,
    mincsp_2ae_compression,
    mincsp_2ae_minimum,
    satisfied_edges,
    solve_2ae,
    solve_terminal,
    solve_terminal_direct,
    solve_terminal_no_kqcut,
)
from symcsp.generators import (
    _dumbbell_graph,
    _random_connected_graph,
    cut_to_csp,
    gen_2ae_instance,
    gen_cut_instance,
)
from symcsp.oracle import brute_force_cut, brute_force_improve

EQ2 = SymmetricLanguage(2, frozenset({0, 2}))
NE2 = SymmetricLanguage(2, frozenset({1}))


def graph(n, rows):
    return CutGraph(n, tuple(CutEdge(i, u, v, t) for i, (u, v, t) in enumerate(rows)))


def oracle_of(g, p, k):
    return brute_force_cut(
        g.num_vertices,
        [(e.id, e.u, e.v) for e in g.edges],
        [e.etype for e in g.edges],
        p,
        k,
    )


def make_ctx(g, k, q, mode="exhaustive", seed=0):
    return _Ctx(
        k_global=k,
        q=q,
        q_literal=False,
        mode=mode,
        seed=seed,
        delta=2.0 ** -20,
        deadline=None,
        stats=CutStats(),
    )


def test_satisfied_edges_examples():
    g = graph(3, [(0, 1, 0), (1, 2, 0)])
    assert satisfied_edges(g, 0) == frozenset({0, 1})
    g2 = graph(2, [(0, 1, 1)])
    assert satisfied_edges(g2, 0b01) == frozenset({0})
    # loops: want-uncut is always satisfied, want-cut never
    g3 = graph(1, [(0, 0, 0), (0, 0, 1)])
    assert satisfied_edges(g3, 0) == frozenset({0})


def test_satisfied_edges_matches_predicate_loop():
    rng = random.Random(30)
    for _ in range(40):
        g = _random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 8))
        mask = rng.randrange(1 << g.num_vertices)
        expected = set()
        for e in g.edges:
            crossed = ((mask >> e.u) ^ (mask >> e.v)) & 1
            if (e.etype == 1 and crossed) or (e.etype == 0 and not crossed):
                expected.add(e.id)
        assert satisfied_edges(g, mask) == frozenset(expected)


def test_edge_set_identity():
    # symmetric difference of satisfied sets equals symmetric difference of
    # cut sets, for every type function
    rng = random.Random(31)
    for _ in range(60):
        g = _random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 8))
        m1 = rng.randrange(1 << g.num_vertices)
        m2 = rng.randrange(1 << g.num_vertices)
        lhs = satisfied_edges(g, m1) ^ satisfied_edges(g, m2)
        rhs = crossing_edges(g, m1) ^ crossing_edges(g, m2)
        assert lhs == rhs


def test_csp_to_cut_examples():
    inst = Instance(2, (Clause(0, (0, 0), (0, 1), EQ2),))
    comps, iso = csp_to_cut(inst, ProposedSolution(frozenset(), 0))
    assert len(comps) == 1 and iso == []
    ci, verts = comps[0]
    assert ci.graph.edges[0].etype == 0

    inst2 = Instance(
        3,
        (Clause(0, (0, 1), (0, 1), EQ2), Clause(1, (0, 1), (1, 2), EQ2)),
    )
    comps2, _ = csp_to_cut(inst2, ProposedSolution(frozenset(), 0))
    assert len(comps2) == 1
    assert all(e.etype == 1 for e in comps2[0][0].graph.edges)

    # inequality written through the odd-count relation maps to type 0/1 too
    inst3 = Instance(2, (Clause(0, (0, 0), (0, 1), NE2),))
    comps3, _ = csp_to_cut(inst3, ProposedSolution(frozenset(), 0))
    assert comps3[0][0].graph.edges[0].etype == 1

    with pytest.raises(StructureError):
        csp_to_cut(
            Instance(3, (Clause(0, (0, 0, 0), (0, 1, 2), SymmetricLanguage(3, frozenset({0, 3}))),)),
            ProposedSolution(frozenset(), 0),
        )


def test_csp_to_cut_value_identity():
    for seed in range(25):
        inst, prop = gen_2ae_instance(seed, max_vertices=8)
        comps, iso = csp_to_cut(inst, prop)
        solved = []
        rng = random.Random(seed)
        for ci, verts in comps:
            mask = rng.randrange(1 << ci.graph.num_vertices)
            solved.append((mask, verts))
            # satisfied edge ids equal satisfied clause ids on this component
        a = assemble_assignment(inst.num_vars, solved)
        total = sum(
            len(satisfied_edges(ci.graph, _mask_of(a, verts))) for ci, verts in comps
        )
        assert total == len(satisfied_set(inst, a))


def _mask_of(assignment, verts):
    mask = 0
    for i, v in enumerate(verts):
        if assignment[v]:
            mask |= 1 << i
    return mask


def test_mincsp_examples():
    even_cycle = graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    mask, cost = mincsp_2ae_minimum(even_cycle)
    assert cost == 0

    triangle = graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert mincsp_2ae_minimum(triangle)[1] == 1
    assert mincsp_2ae(triangle, 0) is None


def test_mincsp_compression_matches_bruteforce():
    rng = random.Random(32)
    for _ in range(100):
        g = _random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 7))
        k = rng.randint(0, 4)
        a = mincsp_2ae_bruteforce(g, k)
        b = mincsp_2ae_compression(g, k)
        # decision agreement; the compression certificate need not be minimum
        assert (a is None) == (b is None), (g, k)
        if b is not None:
            mask, cost = b
            assert len(g.edges) - cut_value(g, mask) == cost <= k


def test_mincsp_minimum_agrees_across_solvers():
    rng = random.Random(38)
    for _ in range(40):
        g = _random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 6))
        _, brute_min = mincsp_2ae_minimum(g, force="brute")
        _, comp_min = mincsp_2ae_minimum(g, force="compression")
        assert brute_min == comp_min


def test_edge_to_vertex_examples():
    # proposal already realizable: returned partition satisfies it exactly
    g = graph(3, [(0, 1, 1), (1, 2, 0)])
    ci = CutInstance(g, frozenset({0, 1}), 1)
    mask, k3 = edge_to_vertex_solution(ci)
    assert k3 == 3
    assert satisfied_edges(g, mask) >= ci.p_ids

    # all three edges of an odd want-cut triangle cannot be satisfied; the
    # returned partition satisfies two
    tri = graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    ci2 = CutInstance(tri, frozenset({0, 1, 2}), 1)
    mask2, _ = edge_to_vertex_solution(ci2)
    assert len(satisfied_edges(tri, mask2) & ci2.p_ids) == 2


def test_edge_to_vertex_within_3k_of_optimum():
    for seed in range(40):
        ci = gen_cut_instance(seed, max_vertices=8)
        mask, k3 = edge_to_vertex_solution(ci)
        rep = oracle_of(ci.graph, ci.p_ids, ci.k)
        got = satisfied_edges(ci.graph, mask)
        # some optimum within k of P must be 3k-close to the new proposal
        best_sets = []
        g = ci.graph
        for m in range(1 << g.num_vertices):
            s = satisfied_edges(g, m)
            if len(s) == rep.global_value and len(s ^ ci.p_ids) <= ci.k:
                best_sets.append(s)
        assert best_sets
        assert any(len(s ^ got) <= 3 * ci.k for s in best_sets)


def test_find_kq_cut_bridge():
    rng = random.Random(33)
    g = _dumbbell_graph(rng, 5, 5, 1)
    marked = frozenset()
    mask = find_kq_cut(g, marked, 2, 8)
    assert mask is not None
    assert kq_cut_conditions(g, marked, mask, 2, 8)


def test_find_kq_cut_none_on_clique():
    rows = [(u, v, 1) for u, v in combinations(range(5), 2)]
    g = graph(5, rows)
    assert find_kq_cut(g, frozenset(), 3, 1) is None


def test_find_kq_cut_single_edge():
    g = graph(2, [(0, 1, 0)])
    assert find_kq_cut(g, frozenset(), 1, 1) is None


def test_find_kq_cut_colorcoding_agrees_with_enumeration():
    rng = random.Random(34)
    found_some = 0
    for _ in range(8):
        g = _dumbbell_graph(rng, 4, 4, rng.randint(1, 2))
        k, q = 2, rng.randint(2, 6)
        enum = find_kq_cut_enumeration(g, frozenset(), k, q)
        color = find_kq_cut_colorcoding(
            g, frozenset(), k, q, mode="random", seed=1, delta=1e-6
        )
        assert (enum is None) == (color is None)
        if color is not None:
            found_some += 1
            assert kq_cut_conditions(g, frozenset(), color, k, q)
    assert found_some > 0


def test_terminal_instance_validation():
    g = graph(2, [(0, 1, 1), (0, 1, 1)])
    TerminalInstance(g, 0b01, 1, (), frozenset({0, 1}))  # parallel marked ok
    with pytest.raises(StructureError):
        TerminalInstance(g, 0b00, 1, (), frozenset({0}))  # marked not cut
    g2 = graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(StructureError):
        TerminalInstance(g2, 0b010, 1, (), frozenset({0, 1}))  # adjacent marks


def test_matching_with_parallels():
    g = graph(4, [(0, 1, 1), (0, 1, 0), (2, 3, 1), (1, 2, 1)])
    assert is_matching_with_parallels(g, {0, 1})
    assert is_matching_with_parallels(g, {0, 2})
    assert not is_matching_with_parallels(g, {0, 3})


def test_no_kqcut_table_baseline_entry():
    g = graph(3, [(0, 1, 0), (1, 2, 0)])
    ti = TerminalInstance(g, 0, 0, (), frozenset())
    table = solve_terminal_no_kqcut(ti, make_ctx(g, 0, 8))
    mask, value, delta = table[((), 0)]
    assert delta == 0 and value == 2


def test_no_kqcut_triangle_example():
    tri = graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    a_mask = 0b001  # proposal side {v0}
    ti = TerminalInstance(tri, a_mask, 2, (), frozenset())
    table = solve_terminal_no_kqcut(ti, make_ctx(tri, 2, 8))
    best = max(v for _, v, _ in table.values())
    assert best == 2
    # the improving entry appears at closeness 2
    assert table[((), 2)][1] == 2


def test_terminal_table_requirements():
    # every entry must respect the terminal labeling, keep marked edges cut,
    # and stay within its closeness bound
    rng = random.Random(35)
    for _ in range(30):
        g = _random_connected_graph(rng, rng.randint(3, 7), rng.randint(1, 6))
        masks = [m for m in range(1 << g.num_vertices)]
        a_mask = rng.choice(masks)
        crossing = crossing_edges(g, a_mask)
        marked = frozenset(
            eid for eid in rng.sample(sorted(crossing), min(1, len(crossing)))
        )
        if not is_matching_with_parallels(g, marked):
            marked = frozenset()
        terms = tuple(sorted(rng.sample(range(g.num_vertices), rng.randint(0, 2))))
        k_prime = rng.randint(0, 3)
        ti = TerminalInstance(g, a_mask, k_prime, terms, marked)
        table = solve_terminal_no_kqcut(ti, make_ctx(g, k_prime, 8))
        p = satisfied_edges(g, a_mask)
        for (fbits, k2), (mask, value, delta) in table.items():
            assert tuple((mask >> t) & 1 for t in terms) == fbits
            assert marked <= crossing_edges(g, mask)
            assert len(satisfied_edges(g, mask) ^ p) == delta <= k2
            assert value == cut_value(g, mask)
        # completeness: a best consistent partition exists for every entry key
        for m in range(1 << g.num_vertices):
            d = len(satisfied_edges(g, m) ^ p)
            if d > k_prime or not marked <= crossing_edges(g, m):
                continue
            key = (tuple((m >> t) & 1 for t in terms), d)
            assert key in table
            assert table[key][1] >= cut_value(g, m)


def test_randomized_no_kqcut_matches_direct_on_smalls():
    rng = random.Random(36)
    for trial in range(15):
        g = _random_connected_graph(rng, rng.randint(3, 6), rng.randint(1, 5))
        a_mask = rng.randrange(1 << g.num_vertices)
        k_prime = rng.randint(0, 2)
        ti = TerminalInstance(g, a_mask, k_prime, (), frozenset())
        direct = solve_terminal_direct(ti, make_ctx(g, k_prime, 8))
        rand = solve_terminal_no_kqcut(ti, make_ctx(g, k_prime, 8, mode="random", seed=trial))
        for key, (_, value, _) in direct.items():
            assert key in rand
            assert rand[key][1] == value, (trial, key)


def test_recursion_preserves_matching_and_matches_oracle():
    rng = random.Random(37)
    recursed = 0
    for trial in range(40):
        g = _dumbbell_graph(rng, rng.randint(4, 5), rng.randint(4, 5), rng.randint(1, 2))
        k = rng.randint(1, 3)
        rep0 = oracle_of(g, frozenset(), 10 ** 9)
        p = set(satisfied_edges(g, rep0.global_witness[0]))
        for eid in rng.sample([e.id for e in g.edges], rng.randint(0, k)):
            p ^= {eid}
        rep = oracle_of(g, frozenset(p), k)
        if not rep.promise_holds or rep.neighborhood_value != rep.global_value:
            continue
        ci = CutInstance(g, frozenset(p), k)
        mask, value, stats = cut_improve(ci, q_override=8)
        recursed += stats.recurse_steps
        assert value == rep.global_value
        assert stats.matching_checks == stats.recurse_steps
    assert recursed > 0


def test_recurse_step_surface():
    # one contraction step on a dumbbell: returns the reduced instance and a
    # log that lifts reduced partitions back, with the bridge-side structure
    # shrunk and the marked set still a matching
    rng = random.Random(39)
    from symcsp.cut_solver import is_matching_with_parallels, recurse_step, lift_table, solve_terminal

    done = 0
    for _ in range(20):
        g = _dumbbell_graph(rng, 4, 4, rng.randint(1, 2))
        k = 2
        rep0 = oracle_of(g, frozenset(), 10 ** 9)
        a_mask = rep0.global_witness[0]
        ti = TerminalInstance(g, a_mask, k, (), frozenset())
        ctx = make_ctx(g, k, 6)
        cut = find_kq_cut(g, frozenset(), k, 6)
        if cut is None:
            continue
        reduced, log = recurse_step(ti, cut, ctx)
        assert is_matching_with_parallels(reduced.graph, reduced.marked)
        assert len(log.vertex_to_reduced) == g.num_vertices
        if log.stalled:
            continue
        done += 1
        assert len(reduced.graph.edges) < len(g.edges) or len(reduced.marked) > len(ti.marked)
        unmarked_before = sum(1 for e in g.edges if e.id not in ti.marked)
        unmarked_after = sum(
            1 for e in reduced.graph.edges if e.id not in reduced.marked
        )
        assert unmarked_after < unmarked_before
        table = lift_table(ti, solve_terminal(reduced, ctx), log)
        p = satisfied_edges(g, a_mask)
        for (fbits, k2), (mask, value, delta) in table.items():
            assert value == cut_value(g, mask)
            assert len(satisfied_edges(g, mask) ^ p) == delta <= k2
    assert done > 0


def test_cut_improve_examples():
    g = graph(2, [(0, 1, 0)])
    ci = CutInstance(g, frozenset({0}), 0)
    mask, value, _ = cut_improve(ci)
    assert value == 1 and ((mask >> 0) & 1) == ((mask >> 1) & 1)

    c5 = graph(5, [(i, (i + 1) % 5, 1) for i in range(5)])
    rep = oracle_of(c5, frozenset(), 10 ** 9)
    p = satisfied_edges(c5, rep.global_witness[0])
    ci2 = CutInstance(c5, p, 2)
    _, value2, _ = cut_improve(ci2)
    assert value2 == 4


def test_cut_improve_matches_oracle_random():
    for seed in range(120):
        ci = gen_cut_instance(seed)
        rep = oracle_of(ci.graph, ci.p_ids, ci.k)
        _, value, _ = cut_improve(ci, q_override=8)
        assert value == rep.global_value, seed


def test_cut_improve_literal_q_matches_oracle():
    for seed in range(40):
        ci = gen_cut_instance(seed, max_vertices=8)
        rep = oracle_of(ci.graph, ci.p_ids, ci.k)
        _, value, stats = cut_improve(ci)  # literal q: no balanced cut fires
        assert value == rep.global_value
        assert stats.recurse_steps == 0
        assert literal_q(3 * ci.k) >= len(ci.graph.edges) or ci.k == 0


def test_solve_2ae_end_to_end():
    for seed in range(60):
        inst, prop = gen_2ae_instance(seed)
        rep = brute_force_improve(inst, prop.k, prop.clause_ids)
        assert rep.promise_holds
        a, _ = solve_2ae(inst, prop, q_override=8)
        assert len(satisfied_set(inst, a)) >= rep.neighborhood_value, seed


def test_solve_2ae_randomized_mode():
    for seed in range(20):
        inst, prop = gen_2ae_instance(seed, max_vertices=8)
        rep = brute_force_improve(inst, prop.k, prop.clause_ids)
        a, _ = solve_2ae(
            inst, prop, mode="random", seed=seed, delta=1e-6, q_override=8
        )
        assert len(satisfied_set(inst, a)) >= rep.neighborhood_value, seed


def test_cut_improve_with_forced_compression_preprocessing():
    for seed in range(25):
        ci = gen_cut_instance(seed, max_vertices=8)
        rep = oracle_of(ci.graph, ci.p_ids, ci.k)
        _, value, _ = cut_improve(ci, q_override=8, force_mincsp="compression")
        assert value == rep.global_value, seed


def test_loops_are_fixed_contributions():
    g = graph(2, [(0, 1, 1), (0, 0, 0), (1, 1, 1)])
    ci = CutInstance(g, frozenset({0, 1}), 1)
    mask, value, _ = cut_improve(ci)
    # the want-uncut loop always counts, the want-cut loop never does
    assert value == 2
    assert 1 in satisfied_edges(g, mask) and 2 not in satisfied_edges(g, mask)


@st.composite
def _multigraph_and_subset(draw):
    """Multigraph with self-loops, parallel edges and isolated vertices, plus
    an arbitrary vertex subset."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    g = CutGraph(n, tuple(CutEdge(i, u, v, i % 2) for i, (u, v) in enumerate(pairs)))
    return g, draw(st.lists(vertex, unique=True))


def _bfs_components(graph, vertices):
    inside = set(vertices)
    adj = {v: set() for v in inside}
    for e in graph.edges:
        if e.u in inside and e.v in inside:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
    seen, comps = set(), []
    for s in sorted(inside):
        if s in seen:
            continue
        seen.add(s)
        comp, frontier = [s], [s]
        while frontier:
            frontier = [v for u in frontier for v in adj[u] if v not in seen]
            seen.update(frontier)
            comp.extend(frontier)
        comps.append(sorted(set(comp)))
    return comps


@settings(max_examples=200, deadline=None)
@given(_multigraph_and_subset())
def test_components_match_bfs_reference(case):
    g, subset = case
    comps = g.components(subset)
    assert comps == _bfs_components(g, subset)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    assert all(c == sorted(c) for c in comps)

    sets = DisjointSets(range(g.num_vertices))
    for e in g.edges:
        sets.union(e.u, e.v)
    assert sets.groups() == _bfs_components(g, range(g.num_vertices))
    for comp in sets.groups():
        assert all(sets.find(v) == comp[0] for v in comp)
    assert g.is_connected() == (len(sets.groups()) <= 1)
