import json
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcsp.core import Deadline, GuardError, Instance, ProposedSolution, SolveContext, StructureError, SymmetricLanguage, Clause, DisjointSets, instance_to_json, satisfied_set
from symcsp import cli, cut_solver
from symcsp.cut_solver import (
    CutEdge,
    CutGraph,
    CutInstance,
    TerminalInstance,
    _Ctx,
    assemble_assignment,
    crossing_edges,
    csp_to_cut,
    cut_improve,
    cut_value,
    edge_to_vertex_solution,
    find_kq_cut,
    greedy_partition,
    kq_cut_conditions,
    literal_q,
    matching_conflict,
    mincsp_2ae,
    mincsp_2ae_bruteforce,
    mincsp_2ae_compression,
    mincsp_2ae_minimum,
    partition_blocks,
    recurse_step,
    satisfied_edges,
    solve_2ae,
    solve_terminal,
    solve_terminal_direct,
    solve_terminal_no_kqcut,
    split_components,
)
from symcsp.generators import (
    _dumbbell_graph,
    _random_connected_graph,
    cut_to_csp,
    gen_2ae_instance,
    gen_cut_instance,
)
from symcsp.oracle import brute_force_cut, brute_force_improve
from terminal_colorings import solve_terminal_colorings

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
        solve=SolveContext(mode=mode, seed=seed, delta=2.0 ** -20),
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
    mask, cost = mincsp_2ae_minimum(even_cycle, 4, SolveContext())
    assert cost == 0

    triangle = graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert mincsp_2ae_minimum(triangle, 3, SolveContext())[1] == 1
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
        _, brute_min = mincsp_2ae_minimum(g, len(g.edges), SolveContext())
        comp_min = next(k for k in range(len(g.edges) + 1) if mincsp_2ae_compression(g, k))
        assert brute_min == comp_min


def test_edge_to_vertex_examples():
    # proposal already realizable: returned partition satisfies it exactly
    g = graph(3, [(0, 1, 1), (1, 2, 0)])
    ci = CutInstance(g, frozenset({0, 1}), 1)
    mask, k3 = edge_to_vertex_solution(ci, SolveContext())
    assert k3 == 3
    assert satisfied_edges(g, mask) >= ci.p_ids

    # all three edges of an odd want-cut triangle cannot be satisfied; the
    # returned partition satisfies two
    tri = graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    ci2 = CutInstance(tri, frozenset({0, 1, 2}), 1)
    mask2, _ = edge_to_vertex_solution(ci2, SolveContext())
    assert len(satisfied_edges(tri, mask2) & ci2.p_ids) == 2


def test_edge_to_vertex_within_3k_of_optimum():
    for seed in range(40):
        ci = gen_cut_instance(seed, max_vertices=8)
        mask, k3 = edge_to_vertex_solution(ci, SolveContext())
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
    mask = find_kq_cut(g, marked, 2, 8, SolveContext())
    assert mask is not None
    assert kq_cut_conditions(g, marked, mask, 2, 8)


def test_find_kq_cut_none_on_clique():
    rows = [(u, v, 1) for u, v in combinations(range(5), 2)]
    g = graph(5, rows)
    assert find_kq_cut(g, frozenset(), 3, 1, SolveContext()) is None


def test_find_kq_cut_single_edge():
    g = graph(2, [(0, 1, 0)])
    assert find_kq_cut(g, frozenset(), 1, 1, SolveContext()) is None
    # no vertex at all: no mask to screen, even at q = 0
    assert find_kq_cut(graph(0, []), frozenset(), 1, 0, SolveContext()) is None


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
    ends = lambda marked: ((e.u, e.v) for e in g.edges if e.id in marked)
    assert matching_conflict(ends({0, 1})) is None
    assert matching_conflict(ends({0, 2})) is None
    assert matching_conflict(ends({0, 3})) == (frozenset({0, 1}), frozenset({1, 2}))


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
        if not _ref_is_matching_with_parallels(g, marked):
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
        rand = solve_terminal_colorings(ti, make_ctx(g, k_prime, 8, mode="random", seed=trial))
        for key, (_, value, _) in direct.items():
            assert key in rand
            assert rand[key][1] == value, (trial, key)


def test_random_mode_cut_matches_exhaustive_within_enumeration_guard():
    # random mode takes the exact terminal table up to its guard, so it
    # draws no coloring and gives the exhaustive answer; seed 9 is an
    # instance where the coloring procedure returned another optimum
    cases = [(gen_cut_instance(seed), q) for seed in range(40) for q in (None, 2, 8)]
    rng = random.Random(45)
    for n in (14, 17, 20, 26):
        g = _random_connected_graph(rng, n, n)
        cases.append((CutInstance(g, satisfied_edges(g, rng.randrange(1 << n)), 1), None))
    assert any(ci.graph.num_vertices == cut_solver.ENUM_VERTEX_GUARD for ci, _ in cases)
    for ci, q in cases:
        mask, value, run = cut_improve(ci, mode="random", seed=1, q_override=q)
        assert (mask, value) == cut_improve(ci, q_override=q)[:2], (ci.graph.num_vertices, q)
        assert run.colorings_tried == 0 and run.no_cut_solves > 0


def test_no_kqcut_is_the_direct_table_in_both_modes():
    # the table is exact, so random mode draws no family: the same table at
    # the guard, and the same GuardError above it
    def path(n):
        return graph(n, [(v, v + 1, v % 2) for v in range(n - 1)])

    guard = cut_solver.ENUM_VERTEX_GUARD
    small = TerminalInstance(path(12), 0b1010, 2, (3,), frozenset())
    at_guard = TerminalInstance(path(guard), 0, 1, (), frozenset())
    big = TerminalInstance(path(guard + 1), 0, 1, (), frozenset())
    for ti in (small, at_guard):
        direct = solve_terminal_direct(ti, make_ctx(ti.graph, ti.k_prime, 8))
        for mode in ("exhaustive", "random"):
            ctx = make_ctx(ti.graph, ti.k_prime, 8, mode=mode)
            assert solve_terminal_no_kqcut(ti, ctx) == direct
            assert ctx.solve.no_cut_solves == 1 and ctx.solve.colorings_tried == 0
    for mode in ("exhaustive", "random"):
        with pytest.raises(GuardError, match=f"guarded at {guard} vertices"):
            solve_terminal_no_kqcut(big, make_ctx(big.graph, 1, 8, mode=mode))


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
    assert recursed > 0


def test_recurse_step_surface():
    # one contraction step on a dumbbell: returns the reduced instance and a
    # log that lifts reduced partitions back, with the bridge-side structure
    # shrunk and the marked set still a matching
    rng = random.Random(39)
    from symcsp.cut_solver import lift_table

    done = 0
    for _ in range(20):
        g = _dumbbell_graph(rng, 4, 4, rng.randint(1, 2))
        k = 2
        rep0 = oracle_of(g, frozenset(), 10 ** 9)
        a_mask = rep0.global_witness[0]
        ti = TerminalInstance(g, a_mask, k, (), frozenset())
        ctx = make_ctx(g, k, 6)
        cut = find_kq_cut(g, frozenset(), k, 6, ctx.solve)
        if cut is None:
            continue
        reduced, log = recurse_step(ti, cut, ctx)
        assert _ref_is_matching_with_parallels(reduced.graph, reduced.marked)
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


def test_cut_improve_with_forced_compression_preprocessing(monkeypatch):
    # from 12 vertices on the minimum-cost pass takes the iterative
    # compression path by itself; brute force is made unreachable to show it
    def no_brute(graph, k):
        raise AssertionError("brute-force minimum-cost pass used")

    monkeypatch.setattr(cut_solver, "mincsp_2ae_bruteforce", no_brute)
    rng = random.Random(40)
    checked = 0
    for trial in range(10):
        if trial % 2:
            g = _dumbbell_graph(rng, 6, 6, rng.randint(1, 2))
        else:
            g = _random_connected_graph(rng, rng.randint(12, 13), rng.randint(0, 8))
        k = rng.randint(1, 3)
        rep0 = oracle_of(g, frozenset(), 10 ** 9)
        p = set(satisfied_edges(g, rep0.global_witness[0]))
        for eid in rng.sample([e.id for e in g.edges], rng.randint(0, k)):
            p ^= {eid}
        rep = oracle_of(g, frozenset(p), k)
        if not rep.promise_holds or rep.neighborhood_value != rep.global_value:
            continue
        _, value, _ = cut_improve(CutInstance(g, frozenset(p), k), q_override=8)
        assert value == rep.global_value, trial
        checked += 1
    assert checked >= 5


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


def _ref_split_components(graph, vertices, p_ids, k):
    """One scan of every edge per component."""
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


@settings(max_examples=200, deadline=None)
@given(_multigraph_and_subset(), st.sets(st.integers(0, 13)), st.integers(0, 3), st.booleans())
def test_split_components_matches_per_component_scan(case, p_ids, k, only_used):
    g = case[0]
    # the callers pass either every vertex or every edge endpoint
    vertices = {x for e in g.edges for x in (e.u, e.v)} if only_used else range(g.num_vertices)
    p_ids = frozenset(p_ids)
    assert split_components(g, vertices, p_ids, k) == _ref_split_components(g, vertices, p_ids, k)


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
    assert g.is_connected == (len(sets.groups()) <= 1)


def test_solve_2ae_random_mode_seed_none_means_zero():
    for seed in range(6):
        inst, prop = gen_2ae_instance(seed)
        a0, run0 = solve_2ae(inst, prop, mode="random", seed=0, q_override=2)
        a_none, run_none = solve_2ae(inst, prop, mode="random", seed=None, q_override=2)
        assert a_none == a0 and run_none == run0


def test_zero_deadline_marks_summed_context_timed_out():
    inst, prop = gen_2ae_instance(4)
    a, run = solve_2ae(inst, prop, deadline=Deadline(0))
    assert run.timed_out and len(a) == inst.num_vars


# ---------------------------------------------------------------------------
# The numpy partition kernel and the one-pass minimum-cost step against the
# per-mask loops they replace, kept here as the references
# ---------------------------------------------------------------------------


def _ref_terminal_direct(ti, masks=None):
    p = satisfied_edges(ti.graph, ti.a_mask)
    table = {}
    for mask in range(1 << ti.graph.num_vertices) if masks is None else masks:
        sat = satisfied_edges(ti.graph, mask)
        delta = len(sat ^ p)
        if delta > ti.k_prime or not ti.marked <= crossing_edges(ti.graph, mask):
            continue
        fbits = tuple((mask >> t) & 1 for t in ti.terminals)
        for k2 in range(delta, ti.k_prime + 1):
            cur = table.get((fbits, k2))
            if cur is None or len(sat) > cur[1] or (len(sat) == cur[1] and mask < cur[0]):
                table[(fbits, k2)] = (mask, len(sat), delta)
    return table


def _ref_first_kq_cut(g, marked, k, q):
    for mask in range(2, (1 << g.num_vertices) - 1, 2):
        if kq_cut_conditions(g, marked, mask, k, q):
            return mask
    return None


def _ref_bruteforce(g, k):
    best = None
    for mask in range(0, 1 << max(g.num_vertices - 1, 0)):
        cost = len(g.edges) - cut_value(g, mask)
        if best is None or cost < best[1]:
            best = (mask, cost)
    return best if best[1] <= k else None


def _ref_two_coloring(num_vertices, arcs):
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


def _ref_bipartization_compress(num_vertices, arcs, removed, k):
    """Every one of the 2^t terminal splits, each completed by the smallest
    cheapest set of non-terminal vertices to flip with it (found by trying
    them all); a later split wins only on a strictly smaller cost.  Arc i is
    deleted iff the flipped 2-coloring gives its endpoints one color."""
    keep = [arcs[i] for i in range(len(arcs)) if i not in removed]
    psi = _ref_two_coloring(num_vertices, keep)
    terminals = sorted({v for i in removed for v in arcs[i]})
    free = [v for v in range(num_vertices) if v not in terminals]
    best = None
    for bits in product((0, 1), repeat=len(terminals)):
        flipped = [v for v, b in zip(terminals, bits) if b]
        options = []
        for pick in product((0, 1), repeat=len(free)):
            flip = set(flipped) | {v for v, b in zip(free, pick) if b}
            color = [psi[v] ^ (v in flip) for v in range(num_vertices)]
            deleted = {i for i, (u, v) in enumerate(arcs) if color[u] == color[v]}
            options.append((len(deleted), sum(pick), deleted))
        cost, _, deleted = min(options, key=lambda o: o[:2])
        if cost <= k and (best is None or cost < best[0]):
            best = (cost, deleted)
    return None if best is None else best[1]


def _ref_edge_bipartization(num_vertices, arcs, k):
    removed = set()
    for i in range(len(arcs)):
        current = [arcs[j] for j in sorted(set(range(i + 1)) - removed)]
        if _ref_two_coloring(num_vertices, current) is not None:
            continue
        removed.add(i)
        if len(removed) > k:
            removed = _ref_bipartization_compress(num_vertices, arcs[: i + 1], removed, k)
            if removed is None:
                return None
    return removed


@st.composite
def _connected_multigraph(draw, max_n=9):
    """Connected multigraph (a random tree plus extra edges, self-loops and
    parallel edges included) and a partition mask."""
    n = draw(st.integers(1, max_n))
    rows = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    rows += draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    types = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    g = CutGraph(n, tuple(CutEdge(i, u, v, t) for i, ((u, v), t) in enumerate(zip(rows, types))))
    return g, draw(st.integers(0, (1 << n) - 1))


@st.composite
def _terminal_instance(draw):
    g, a_mask = draw(_connected_multigraph())
    crossing = sorted(crossing_edges(g, a_mask))
    picks = draw(st.lists(st.sampled_from(crossing), max_size=3)) if crossing else []
    marked, used = set(), set()
    for eid in picks:  # a matching among the edges a_mask cuts
        e = g.edges[eid]
        if not {e.u, e.v} & used:
            marked.add(eid)
            used |= {e.u, e.v}
    terms = set(draw(st.lists(st.integers(0, g.num_vertices - 1), unique=True, max_size=4)))
    if draw(st.booleans()):
        # the table scores only masks with vertex n-1 on side 0 and derives
        # the rest as complements, flipping this terminal's bit
        terms.add(g.num_vertices - 1)
    return TerminalInstance(g, a_mask, draw(st.integers(0, 5)), tuple(sorted(terms)), frozenset(marked))


@settings(max_examples=200, deadline=None)
@given(_terminal_instance())
# terminals 4 and 5 on side 0 in every mask of the first 16, so the code
# (0, 1) of a_mask itself comes only from a complement in a later block at
# block sizes 1, 4 and 16
@example(TerminalInstance(graph(6, [(0, 1, 1), (0, 2, 0), (2, 3, 1), (3, 4, 1), (3, 5, 1)]),
                          0b101111, 2, (4, 5), frozenset()))
def test_terminal_table_matches_per_mask_loop(ti):
    # small blocks merge slots across blocks
    ref = _ref_terminal_direct(ti)
    for block in (1, 4, 16, 1 << 14):
        with mock.patch.object(cut_solver, "KERNEL_BLOCK", block):
            table = solve_terminal_direct(ti, make_ctx(ti.graph, ti.k_prime, 8))
        assert table == ref, block
        assert all(type(x) is int for entry in table.values() for x in entry)
        assert all(type(b) is int for fbits, k2 in table for b in (*fbits, k2))


@settings(max_examples=200, deadline=None)
@given(_connected_multigraph(), st.integers(0, 3), st.sampled_from([0, 1, 2, 3, 5, 8]), st.booleans())
def test_first_kq_cut_matches_per_mask_loop(case, k, q, mark):
    g, a_mask = case
    crossing = sorted(crossing_edges(g, a_mask))
    marked = frozenset(crossing[:1]) if mark else frozenset()
    assert find_kq_cut(g, marked, k, q, SolveContext()) == _ref_first_kq_cut(g, marked, k, q)


def _per_mask_first_kq_cut(g, marked, k, q):
    """The (k, q)-cut search without the inside-edge count screen: every
    mask with at most k crossing edges goes to `kq_cut_conditions`."""
    n = g.num_vertices
    for masks, crossing, _, _, _ in partition_blocks(g, range(2, (1 << n) - 1, 2)):
        for mask in masks[crossing <= k].tolist():
            if kq_cut_conditions(g, marked, mask, k, q):
                return mask
    return None


def _unmarked_inside(g, marked, mask):
    """Unmarked edges inside side 1 and inside side 0 of `mask`, loops included."""
    sides = [((mask >> e.u) & 1, (mask >> e.v) & 1) for e in g.edges if e.id not in marked]
    return sides.count((1, 1)), sides.count((0, 0))


def _ref_kq_cut_conditions(g, marked, mask, k, q):
    sides = [[v for v in range(g.num_vertices) if (mask >> v) & 1 == s] for s in (0, 1)]
    if not all(sides) or len(crossing_edges(g, mask)) > k:
        return False
    if any(len(_bfs_components(g, side)) != 1 for side in sides):
        return False
    return min(_unmarked_inside(g, marked, mask)) >= q


@settings(max_examples=300, deadline=None)
@given(_connected_multigraph(max_n=10), st.integers(0, 3), st.integers(0, 8), st.data())
def test_kq_cut_screen_matches_per_mask_checks(case, k, q, data):
    g, _ = case
    ids = [e.id for e in g.edges]
    marked = frozenset(data.draw(st.sets(st.sampled_from(ids), max_size=4))) if ids else frozenset()
    seen = []

    def spy(graph_, marked_, mask, k_, q_):
        seen.append(mask)
        return kq_cut_conditions(graph_, marked_, mask, k_, q_)

    with mock.patch.object(cut_solver, "kq_cut_conditions", spy):
        found = find_kq_cut(g, marked, k, q, SolveContext())
    assert found == _per_mask_first_kq_cut(g, marked, k, q)
    # the screen hands on only masks with both inside counts at least q
    assert all(min(_unmarked_inside(g, marked, mask)) >= q for mask in seen)
    assert seen == sorted(seen) and (found is None or seen[-1] == found)


@settings(max_examples=200, deadline=None)
@given(_connected_multigraph(), st.integers(0, 6))
def test_bruteforce_minimum_matches_per_mask_loop(case, k):
    g, _ = case
    assert mincsp_2ae_bruteforce(g, k) == _ref_bruteforce(g, k)
    assert mincsp_2ae_minimum(g, len(g.edges), SolveContext()) == _ref_bruteforce(g, len(g.edges))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16),
    st.integers(0, 3),
)))
@example((5, [(0, 1), (1, 2), (0, 2), (3, 4)], 1))  # two components, arc 2 removed
def test_edge_bipartization_matches_quadratic_reference(case):
    n, arcs, k = case
    assert cut_solver._two_coloring(n, arcs) == _ref_two_coloring(n, arcs)
    removed = _ref_edge_bipartization(n, arcs, k)
    found = cut_solver.edge_bipartization(n, arcs, k)
    if removed is None:
        assert found is None
        return
    # the coloring is read from the union-find the kept arcs stay joined in
    kept = [a for i, a in enumerate(arcs) if i not in removed]
    assert found == (removed, _ref_two_coloring(n, kept))


def _ref_partition_blocks(g, masks, a_mask, marked):
    p = satisfied_edges(g, a_mask)
    return [
        list(masks),
        [len(crossing_edges(g, m)) for m in masks],
        [cut_value(g, m) for m in masks],
        [len(satisfied_edges(g, m) ^ p) for m in masks],
        [marked <= crossing_edges(g, m) for m in masks],
    ]


def _assert_blocks_match(g, masks, a_mask, marked):
    blocks = list(partition_blocks(g, masks, a_mask, marked))
    assert [b[0][0] for b in blocks] == list(masks[::cut_solver.KERNEL_BLOCK])
    got = [[x for b in blocks for x in b[i].tolist()] for i in range(5)]
    assert got == _ref_partition_blocks(g, masks, a_mask, marked)
    dtypes = (np.int64, np.int32, np.int32, np.int32, np.bool_)
    assert all(b[i].dtype == t for b in blocks for i, t in enumerate(dtypes))


@settings(max_examples=200, deadline=None)
@given(_connected_multigraph(), st.data())
def test_partition_blocks_match_per_mask_loop(case, data):
    # loops and parallel edges come from the strategy; marked edges need not
    # be cut by a_mask here, and small blocks split every range
    g, a_mask = case
    n = g.num_vertices
    ids = [e.id for e in g.edges]
    marked = frozenset(data.draw(st.sets(st.sampled_from(ids), max_size=3))) if ids else frozenset()
    masks = data.draw(st.sampled_from([
        range(1 << n),  # the full range
        range(1 << max(n - 1, 0)),  # the terminal table's half range
        range(2, (1 << n) - 1, 2),  # the (k, q)-cut enumeration
        range(1, 1 << n, 3),
    ]))
    with mock.patch.object(cut_solver, "KERNEL_BLOCK", data.draw(st.sampled_from([1, 4, 16, 1 << 14]))):
        _assert_blocks_match(g, masks, a_mask, marked)


@pytest.mark.parametrize("copies", [300, (1 << 15) + 3, (1 << 16) + 3])
def test_partition_blocks_counters_do_not_overflow(copies):
    # one class of parallel edges past the 8-bit, 16-bit signed and 16-bit
    # unsigned ranges, next to a marked edge and a loop
    rows = [(0, 1, 1)] * copies + [(1, 2, 0), (2, 2, 0)]
    g = graph(3, rows)
    _assert_blocks_match(g, range(8), 0b010, frozenset({copies}))
    _assert_blocks_match(g, range(4), 0b011, frozenset())


def _window_test_graph(n, seed):
    """A connected n-vertex multigraph with edges among the vertices from
    WINDOW_BITS on, loops, parallel edges, and three marked edges."""
    rng = random.Random(seed)
    rows = [(rng.randrange(v), v, rng.randint(0, 1)) for v in range(1, n)]
    rows += [(rng.randrange(n), rng.randrange(n), rng.randint(0, 1)) for _ in range(6)]
    rows += [(14, 15, 1), (15, 14, 0), (n - 1, n - 1, 0), (n - 1, n - 1, 1), (3, 3, 0), (2, 15, 1), (2, 15, 1)]
    return graph(n, rows), frozenset({1, n, len(rows) - 1})


@pytest.mark.parametrize("n, masks, block", [
    (16, range(1 << 16), 5000),  # four whole windows; every fourth block crosses
    (17, range((1 << 14) - 7, (1 << 14) + 9), 7),  # across the first window's end
    (17, range((1 << 16) + 5, (1 << 16) + 3000, 3), 5000),  # above the table, bit 16 set
])
def test_partition_blocks_past_the_window(n, masks, block):
    # the rows of vertices from WINDOW_BITS on are constants inside a
    # window and shifts across one; the patched block size gives both
    assert cut_solver.WINDOW_BITS == 14
    g, marked = _window_test_graph(n, n + masks.start)
    _assert_blocks_match(g, masks, 0b1010_0110_0101_1001, marked)
    with mock.patch.object(cut_solver, "KERNEL_BLOCK", block):
        _assert_blocks_match(g, masks, 0b1_0110_0110_0110_0110, marked)


def test_terminal_table_returns_blocks_done_when_deadline_passes():
    rng = random.Random(41)
    g = _random_connected_graph(rng, 16, 10)
    ti = TerminalInstance(g, rng.randrange(1 << 16), 4, (15,), frozenset())
    ctx = make_ctx(g, 4, 8)
    ctx.solve.deadline = Deadline(0)
    table = solve_terminal_direct(ti, ctx)
    assert ctx.solve.timed_out
    # only the first block of masks and their complements were scored
    first = range(cut_solver.KERNEL_BLOCK)
    assert table == _ref_terminal_direct(ti, masks=[*first, *(m ^ 0xFFFF for m in first)])
    assert {fbits for fbits, _ in table} == {(0,), (1,)}
    # one block: no poll, so the table is complete and the run not timed out
    small = TerminalInstance(_random_connected_graph(rng, 12, 6), 5, 3, (0,), frozenset())
    ctx12 = make_ctx(small.graph, 3, 8)
    ctx12.solve.deadline = Deadline(0)
    assert solve_terminal_direct(small, ctx12) == _ref_terminal_direct(small)
    assert not ctx12.solve.timed_out


class _ExpiresAfter:
    """A deadline that passes at its (polls + 1)-th poll."""

    def __init__(self, polls):
        self.polls = polls

    def expired(self):
        self.polls -= 1
        return self.polls < 0


def test_kq_cut_enumeration_stops_at_an_expired_deadline():
    # K8 on {0, 3..9} and K10 on {10..19} joined by one bridge, and pendants
    # 1 and 2 on vertex 0 with a loop each: 19 + 171 spanning-tree cuts at
    # k = 2.  With q = 2 the screen hands on mask {1, 2} (its sides are not
    # connected) and the bridge cut, in ascending order
    a, b = [0, *range(3, 10)], range(10, 20)
    rows = [(u, v, 0) for blob in (a, b) for u, v in combinations(blob, 2)]
    rows += [(3, 10, 1), (0, 1, 0), (0, 2, 1), (1, 1, 0), (2, 2, 0)]
    g = graph(20, rows)
    real = kq_cut_conditions
    cases = [
        (1 << 14, Deadline(0), 0xFFC00, [0b110, 0xFFC00]),  # one chunk: never polled
        (64, None, 0xFFC00, [0b110, 0xFFC00]),
        (64, Deadline(0), None, []),  # polled before the second of three chunks
        (1, _ExpiresAfter(189), None, [0b110]),  # 190 chunks, then the second check
    ]
    for block, deadline, found, checked in cases:
        seen = []

        def spy(graph_, marked_, mask, k_, q_):
            seen.append(mask)
            return real(graph_, marked_, mask, k_, q_)

        run = SolveContext(deadline=deadline)
        with mock.patch.object(cut_solver, "kq_cut_conditions", spy), \
                mock.patch.object(cut_solver, "KERNEL_BLOCK", block):
            assert find_kq_cut(g, frozenset(), 2, 2, run) == found
        assert seen == checked and run.timed_out == (found is None)


def _peak_bytes(ti):
    ctx = make_ctx(ti.graph, ti.k_prime, 8)
    table = solve_terminal_direct(ti, ctx)  # builds the cached window rows
    tracemalloc.start()
    try:
        assert solve_terminal_direct(ti, ctx) == table
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_terminal_table_memory_stays_below_dense_slots():
    # every vertex a terminal: one int64 slot per terminal code and distance
    # would take 2^18 * 10 * 8 bytes (21 MB); the table peaks near 1.4 MB,
    # mostly a block's arrays and the returned dict
    rng = random.Random(61)
    g = _random_connected_graph(rng, 18, 20)
    many = TerminalInstance(g, rng.randrange(1 << 18), 9, tuple(range(18)), frozenset())
    assert _peak_bytes(many) < (1 << 18) * 10 * 8
    # no terminals, k' = 3|E|: one int64 per mask and distance would take
    # 2^11 * (k' + 1) * 8 bytes (1.1 MB); the table peaks near 0.2 MB
    g = _random_connected_graph(rng, 12, 12)
    wide = TerminalInstance(g, rng.randrange(1 << 12), 3 * len(g.edges), (), frozenset())
    assert _peak_bytes(wide) < (1 << 11) * (wide.k_prime + 1) * 8


def test_terminal_table_guards_its_int64_scores(monkeypatch):
    # scores stay below (|E| + 1) * (k' + 1) * 2^n: 3 * 2 * 8 = 48 here
    ti = TerminalInstance(graph(3, [(0, 1, 1), (1, 2, 0)]), 0b001, 1, (1,), frozenset())
    monkeypatch.setattr(cut_solver, "TABLE_SCORE_GUARD", 48)
    assert solve_terminal_direct(ti, make_ctx(ti.graph, 1, 8)) == _ref_terminal_direct(ti)
    monkeypatch.setattr(cut_solver, "TABLE_SCORE_GUARD", 47)
    with pytest.raises(GuardError, match="exceed int64"):
        solve_terminal_direct(ti, make_ctx(ti.graph, 1, 8))
    # past the vertex guard the partition kernel's guard still fires first
    guard = cut_solver.ENUM_VERTEX_GUARD
    path = graph(guard + 1, [(v, v + 1, 0) for v in range(guard)])
    with pytest.raises(GuardError, match=f"guarded at {guard} vertices"):
        solve_terminal_direct(TerminalInstance(path, 0, 1, (), frozenset()), make_ctx(path, 1, 8))


def _no_mask_checks(monkeypatch):
    def fail(*args):
        raise AssertionError("a cut mask was checked")

    monkeypatch.setattr(cut_solver, "kq_cut_conditions", fail)


def test_find_kq_cut_exits_below_2q_unmarked_edges(monkeypatch):
    _no_mask_checks(monkeypatch)
    rng = random.Random(42)
    for n in (6, 14, 18):
        g = _dumbbell_graph(rng, n // 2, n - n // 2, 1)
        m = len(g.edges)
        assert find_kq_cut(g, frozenset(), 3, m // 2 + 1, SolveContext()) is None
        assert find_kq_cut(g, frozenset(), 3, literal_q(3), SolveContext()) is None
        # marked edges do not count towards the two sides' q
        marked = frozenset(e.id for e in g.edges[: m - 2 * (m // 4)])
        assert find_kq_cut(g, marked, 3, m // 4 + 1, SolveContext()) is None


def test_find_kq_cut_exits_for_k_zero_on_connected_graph(monkeypatch):
    _no_mask_checks(monkeypatch)
    rng = random.Random(43)
    for n in (5, 14, 17):
        g = _dumbbell_graph(rng, n // 2, n - n // 2, 1)
        assert find_kq_cut(g, frozenset(), 0, 1, SolveContext()) is None


def test_cut_improve_literal_q_matches_oracle_15_to_20_vertices():
    # the literal q never admits a balanced cut, so the terminal table runs
    # on the whole graph
    rng = random.Random(44)
    for n in range(15, 21):
        g = _random_connected_graph(rng, n, rng.randint(0, n))
        k = rng.randint(1, 3)
        rep0 = oracle_of(g, frozenset(), 10 ** 9)
        p = set(satisfied_edges(g, rep0.global_witness[0]))
        for eid in rng.sample([e.id for e in g.edges], k):
            p ^= {eid}
        rep = oracle_of(g, frozenset(p), k)
        assert rep.promise_holds
        _, value, stats = cut_improve(CutInstance(g, frozenset(p), k))
        assert value == rep.neighborhood_value == rep.global_value, n
        assert stats.recurse_steps == 0 and not stats.timed_out


def test_minimum_cost_pass_raises_verification_error(monkeypatch):
    from symcsp.core import VerificationError

    monkeypatch.setattr(cut_solver, "mincsp_2ae", lambda graph, k, run: None)
    # from 12 vertices on the minimum is the compression loop over k
    cycle = graph(12, [(v, (v + 1) % 12, 1) for v in range(12)])
    with pytest.raises(VerificationError):
        mincsp_2ae_minimum(cycle, 12, SolveContext())

    # a decision the deadline cut short is no evidence against the invariant
    def out_of_time_at_the_last(graph, k, run):
        run.timed_out = k == 12
        return None

    monkeypatch.setattr(cut_solver, "mincsp_2ae", out_of_time_at_the_last)
    assert mincsp_2ae_minimum(cycle, 12, SolveContext()) is None


def _complete_graph(n):
    return graph(n, [(u, v, 1) for u, v in combinations(range(n), 2)])


def test_minimum_cost_step_decides_only_up_to_the_bound():
    k12 = _complete_graph(12)  # minimum cost 30
    assert mincsp_2ae_minimum(k12, 2, SolveContext()) is None
    star = CutGraph(12, k12.edges[:13])  # the star at 0 and two triangles through it
    mask, cost = mincsp_2ae_minimum(star, 2, SolveContext())
    assert cost == 1 == 13 - cut_value(star, mask)
    # the deadline is polled between decisions; the first always runs
    run = SolveContext(deadline=Deadline(0))
    assert mincsp_2ae_minimum(k12, 5, run) is None and run.timed_out
    # below the compression threshold one brute-force pass finds the
    # minimum whatever the bound
    assert mincsp_2ae_minimum(_complete_graph(5), 0, SolveContext())[1] == 4


def test_deadline_stops_a_long_minimum_cost_decision():
    # the decision at k = 8 alone runs for seconds, so the deadline must be
    # polled inside it; the solve then starts from the greedy partition
    rng = random.Random(5)
    rows = []
    for _ in range(90):
        u, v = rng.sample(range(20), 2)
        rows.append((u, v, rng.randint(0, 1)))
    ci = CutInstance(graph(20, rows), frozenset(range(90)), 9)
    start = time.monotonic()
    _, _, run = cut_improve(ci, deadline=Deadline(1000))
    assert time.monotonic() - start < 1.5
    assert run.fallbacks == 1 and run.timed_out
    # a compression step polls before every terminal split, the first too
    k4 = list(combinations(range(4), 2))
    assert len(cut_solver._bipartization_compress(4, k4, {3, 4, 5}, 2)) == 2
    for step in (lambda run: cut_solver.edge_bipartization(4, k4, 2, run),
                 lambda run: cut_solver._bipartization_compress(4, k4, {3, 4, 5}, 2, run)):
        run = SolveContext(deadline=Deadline(0))
        assert step(run) is None and run.timed_out


@settings(max_examples=100, deadline=None)
@given(_connected_multigraph())
def test_greedy_partition_satisfies_every_realizable_proposal(case):
    # edges typed by a_mask, without type-1 loops, are all satisfiable: the
    # greedy pass keeps every arc and its partition satisfies every edge
    g, a_mask = case
    edges = tuple(CutEdge(e.id, e.u, e.v, ((a_mask >> e.u) ^ (a_mask >> e.v)) & 1) for e in g.edges)
    typed = CutGraph(g.num_vertices, edges)
    assert cut_value(typed, greedy_partition(typed)) == len(edges)


@pytest.mark.parametrize("loop", [False, True])
def test_cut_improve_does_not_recheck_a_built_instance(loop):
    # a built CutInstance is connected, and dropping its loops keeps it so;
    # the top-level terminal instance marks nothing, so no edge is checked
    rows = [(0, 1, 0), (1, 2, 1), (2, 0, 1), (2, 3, 0), (3, 4, 1), (4, 0, 0)]
    ci = CutInstance(graph(5, rows + [(2, 2, 1)] * loop), frozenset({0, 1, 3}), 1)
    expected = cut_improve(ci)
    calls = []
    components, crossing = CutGraph.components, cut_solver.crossing_edges
    with mock.patch.object(CutGraph, "components", lambda g, vs: calls.append(g) or components(g, vs)), \
            mock.patch.object(cut_solver, "crossing_edges", lambda g, m: calls.append(m) or crossing(g, m)):
        assert cut_improve(ci) == expected
    assert calls == []


def test_promise_violating_minimum_cost_step_falls_back(tmp_path, capsys):
    # K13 with every edge proposed as type 1 has minimum cost 36 > k = 1:
    # the minimum-cost step stops after deciding costs 0 and 1 and starts
    # from the greedy partition (vertex 0 against the rest), counted
    k13 = _complete_graph(13)
    mask, value, run = cut_improve(CutInstance(k13, frozenset(range(78)), 1))
    assert run.fallbacks == 1 and not run.timed_out
    assert greedy_partition(k13) == (1 << 13) - 2 and value == cut_value(k13, mask) >= 12
    rows = [{"u": e.u, "v": e.v, "type": 1, "in_P": True} for e in k13.edges]
    path = tmp_path / "k13.json"
    path.write_text(json.dumps({"num_vertices": 13, "k": 1, "edges": rows}))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "symcsp.cli", "solve", "--input", str(path), "--time-limit-ms", "1000"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert time.monotonic() - start < 30
    out = json.loads(proc.stdout)
    assert out["value"] == value and not out["timeout"]
    # the fallback shows on stderr only, for the graph and the CSP forms
    assert [line for line in proc.stderr.splitlines() if line.startswith("note:")] == [
        "note: the minimum-cost step gave up on 1 component(s) (promise violated "
        "or deadline passed); solved from the greedy partition"
    ]
    inst, prop = cut_to_csp(CutInstance(k13, frozenset(range(78)), 1))
    csp_path = tmp_path / "k13_csp.json"
    csp_path.write_text(json.dumps(instance_to_json(inst, prop)))
    assert cli.main(["solve", "--input", str(csp_path), "--algo", "cut"]) == 0
    assert capsys.readouterr().err.count("note:") == 1
    # a promise-holding solve prints no note
    path_rows = [{"u": v, "v": v + 1, "type": 1, "in_P": v > 0} for v in range(12)]
    path.write_text(json.dumps({"num_vertices": 13, "k": 1, "edges": path_rows}))
    assert cli.main(["solve", "--input", str(path)]) == 0
    assert "note:" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The one-batch contraction closure and the one-pass matching check against
# the per-edge restoration loop and the pairwise scan they replace, kept
# here as the references
# ---------------------------------------------------------------------------


def _ref_is_matching_with_parallels(graph, marked) -> bool:
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


def _ref_contract(ti, agreed):
    """Contract or mark one agreed edge at a time, rescanning every pair of
    marked edges after each one; returns (reduced instance, LiftLog)."""
    n = ti.graph.num_vertices
    sets = DisjointSets(range(n))
    find, union = sets.find, sets.union
    side = lambda v: (ti.a_mask >> v) & 1
    marked = set(ti.marked)
    by_id = {e.id: e for e in ti.graph.edges}
    for eid in [e.id for e in ti.graph.edges if e.id in agreed]:
        e = by_id[eid]
        if find(e.u) == find(e.v):
            continue
        if side(e.u) == side(e.v):
            union(e.u, e.v)
        else:
            marked.add(eid)
        while True:
            reps = {}
            conflict = None
            for mid in sorted(marked):
                me = by_id[mid]
                ends = frozenset((find(me.u), find(me.v)))
                for other_ends in reps.values():
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
            assert len(outer) == 2 and side(outer[0]) == side(outer[1])
            union(outer[0], outer[1])

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
    new_mask = 0
    for r in reps:
        if side(r):
            new_mask |= 1 << new_index[r]
    term_map = {}
    for t in ti.terminals:
        term_map.setdefault(new_index[find(t)], []).append(t)
    new_marked = frozenset(marked)
    reduced = TerminalInstance(
        CutGraph(len(reps), tuple(new_edges)), new_mask, ti.k_prime, tuple(sorted(term_map)), new_marked
    )
    unmarked_before = sum(1 for e in ti.graph.edges if e.id not in ti.marked)
    unmarked_after = sum(1 for e in new_edges if e.id not in new_marked)
    log = cut_solver.LiftLog(
        tuple(new_index[find(v)] for v in range(n)), value_offset, unmarked_before - unmarked_after < 1
    )
    return reduced, log


@st.composite
def _marked_multigraph(draw):
    """Multigraph with loops and parallel edges and a marked edge set that
    may or may not be a matching with parallels."""
    g, _ = draw(_connected_multigraph())
    ids = [e.id for e in g.edges]
    return g, frozenset(draw(st.lists(st.sampled_from(ids), max_size=6)) if ids else ())


@settings(max_examples=300, deadline=None)
@given(_marked_multigraph())
def test_matching_conflict_matches_pairwise_scan(case):
    g, marked = case
    conflict = matching_conflict((e.u, e.v) for e in g.edges if e.id in marked)
    assert (conflict is None) == _ref_is_matching_with_parallels(g, marked)
    if conflict is not None:
        a, b = conflict
        ends = {frozenset((e.u, e.v)) for e in g.edges if e.id in marked}
        assert a != b and a & b and {a, b} <= ends


@settings(max_examples=300, deadline=None)
@given(_marked_multigraph(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 511))
# sides {0} and {1}, each with a loop, the one on side 1 marked
@example((graph(2, [(0, 1, 0), (0, 0, 0), (1, 1, 0)]), frozenset({2})), 1, 1, 0b10)
def test_kq_cut_conditions_match_definition(case, k, q, mask):
    # the reference the search is diffed against reads the definition
    # straight: loops count inside their side, marked edges never
    g, marked = case
    mask %= 1 << g.num_vertices
    assert kq_cut_conditions(g, marked, mask, k, q) == _ref_kq_cut_conditions(g, marked, mask, k, q)


@st.composite
def _contraction_case(draw):
    """A loopless terminal instance, as every recursion level sees, whose
    marked edges are a matching among the edges its partition cuts, and a
    set of agreed edge ids."""
    g, a_mask = draw(_connected_multigraph(max_n=10))
    g = CutGraph(g.num_vertices, tuple(e for e in g.edges if e.u != e.v))
    crossing = crossing_edges(g, a_mask)
    marked, used = set(), set()
    for e in g.edges:
        if e.id in crossing and not {e.u, e.v} & used and draw(st.booleans()):
            marked.add(e.id)
            used |= {e.u, e.v}
    terms = draw(st.lists(st.integers(0, g.num_vertices - 1), unique=True, max_size=4))
    ti = TerminalInstance(g, a_mask, 2, tuple(sorted(terms)), frozenset(marked))
    agreed = draw(st.sets(st.sampled_from([e.id for e in g.edges]))) if g.edges else set()
    return ti, frozenset(agreed)


@settings(max_examples=400, deadline=None)
@given(_contraction_case())
def test_contraction_closure_matches_per_edge_loop(case):
    ti, agreed = case
    ref_reduced, ref_log = _ref_contract(ti, agreed)
    # the step stalls exactly when every agreed edge is already marked
    assert ref_log.stalled == (agreed <= ti.marked)
    if not ref_log.stalled:
        assert cut_solver._contract(ti, agreed) == (ref_reduced, ref_log)


def test_recursion_steps_with_terminals_match_oracle(monkeypatch):
    # steps below the top level solve instances whose terminals are the
    # boundary of an enclosing cut
    real = cut_solver.recurse_step
    with_terminals = []

    def spy(ti, cut_mask, ctx):
        with_terminals.append(bool(ti.terminals))
        return real(ti, cut_mask, ctx)

    monkeypatch.setattr(cut_solver, "recurse_step", spy)
    for seed in range(300):
        ci = gen_cut_instance(seed)
        rep = oracle_of(ci.graph, ci.p_ids, ci.k)
        for q in (1, 2, 3):
            _, value, _ = cut_improve(ci, q_override=q)
            assert value == rep.global_value, (seed, q)
    assert sum(with_terminals) > 0


def test_exhaustive_q_override_on_15_to_20_vertex_dumbbells():
    # the spanning-tree (k, q)-cut search takes any size its count guard
    # allows; the coloring search over the edges it replaced exceeded its
    # exhaustive cap here
    rng = random.Random(45)
    for i in range(12):
        n = 15 + i // 2
        g = _dumbbell_graph(rng, n // 2, n - n // 2, rng.randint(1, 2))
        k = rng.randint(1, 3)
        p = satisfied_edges(g, rng.randrange(1 << n))
        rep = oracle_of(g, p, k)
        _, value, run = cut_improve(CutInstance(g, p, k), q_override=8)
        assert value >= rep.neighborhood_value, n
        assert run.recurse_steps > 0


def test_budget_beyond_the_edge_count_is_clamped():
    import time

    g = graph(3, [(0, 1, 1), (1, 2, 1)])
    rep = oracle_of(g, frozenset(), 10 ** 12)
    start = time.perf_counter()
    mask, value, _ = cut_improve(CutInstance(g, frozenset(), 10 ** 12))
    assert time.perf_counter() - start < 0.1
    assert value == rep.neighborhood_value == rep.global_value == 2
    rng = random.Random(46)
    for _ in range(30):
        g = _random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 6))
        p = satisfied_edges(g, rng.randrange(1 << g.num_vertices))
        m = sum(e.u != e.v for e in g.edges)
        for q in (None, 1):
            same = cut_improve(CutInstance(g, p, m), q_override=q)
            assert cut_improve(CutInstance(g, p, m + 5), q_override=q)[:2] == same[:2]


# ---------------------------------------------------------------------------
# The spanning-tree (k, q)-cut search and the exact table past 20 vertices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, k, seed", [(16, 3, 0), (16, 9, 1), (20, 3, 2), (20, 6, 3), (20, 9, 4)])
def test_tree_cut_search_matches_per_mask_screen_to_20_vertices(n, k, seed):
    # the tree cuts hold every mask with at most k crossing edges: the same
    # cut, and the same masks checked, as screening all 2^(n-1) masks
    rng = random.Random(seed)
    g = _dumbbell_graph(rng, n // 2, n - n // 2, 2) if seed % 2 else _random_connected_graph(rng, n, n)
    marked = frozenset(rng.sample([e.id for e in g.edges], 3))
    for q in (1, 3, 6):
        seen = []

        def spy(graph_, marked_, mask, k_, q_):
            seen.append(mask)
            return kq_cut_conditions(graph_, marked_, mask, k_, q_)

        with mock.patch.object(cut_solver, "kq_cut_conditions", spy):
            found = find_kq_cut(g, marked, k, q, SolveContext())
        assert found == _per_mask_first_kq_cut(g, marked, k, q), q
        screened = []
        for masks, crossing, _, _, _ in partition_blocks(g, range(2, (1 << n) - 1, 2)):
            screened += [m for m in masks[crossing <= k].tolist() if min(_unmarked_inside(g, marked, m)) >= q]
        assert seen == screened[:screened.index(found) + 1 if found else None]


def test_tree_cut_search_screens_alike_in_float64(monkeypatch):
    # past KQ_FLOAT32_EDGES edges the screen's sums leave float32's exact range
    cases = [(_dumbbell_graph(random.Random(seed), 7, 7 + seed % 3, 2), 3 * (1 + seed % 3), 2 + seed % 4)
             for seed in range(12)]
    expected = [find_kq_cut(g, frozenset(), k, q, SolveContext()) for g, k, q in cases]
    assert any(expected)
    monkeypatch.setattr(cut_solver, "KQ_FLOAT32_EDGES", 0)
    assert [find_kq_cut(g, frozenset(), k, q, SolveContext()) for g, k, q in cases] == expected


def test_tree_cut_search_reads_masks_past_64_vertices():
    # ten K7 blobs on {7i..7i+6} in a row, joined by one bridge each: at k = 3
    # only a single bridge leaves both sides connected, and the smallest such
    # mask with q unmarked edges inside each side takes the last blobs,
    # across the first 64-bit word's end
    rows = [(u, v, 0) for i in range(10) for u, v in combinations(range(7 * i, 7 * i + 7), 2)]
    rows += [(7 * i + 6, 7 * i + 7, 1) for i in range(9)]
    g = graph(70, rows)
    full = (1 << 70) - 1
    for q, blobs in ((21, 1), (22, 2), (64, 3)):
        found = find_kq_cut(g, frozenset(), 3, q, SolveContext())
        assert found == full ^ ((1 << 7 * (10 - blobs)) - 1), q
        assert kq_cut_conditions(g, frozenset(), found, 3, q)
    # marking the last bridge and an edge inside blob 9 moves the cut one bridge left
    assert find_kq_cut(g, frozenset({len(rows) - 1, 21 * 9}), 3, 21, SolveContext()) == full ^ ((1 << 56) - 1)


def test_kq_cut_count_guard_fires_before_allocation(monkeypatch):
    # C(1500, 1) + C(1500, 2) + C(1500, 3) spanning-tree cuts at k = 3, and
    # at k = 1 the 2^15 - 1 cuts of a 2^15-vertex path, 512 words each
    cycle = graph(1501, [(v, (v + 1) % 1501, 1) for v in range(1501)])
    path = graph(1 << 15, [(v, v + 1, 0) for v in range((1 << 15) - 1)])
    for g, k in ((cycle, 3), (path, 1)):
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match=f"guarded at {cut_solver.KQ_CUT_CANDIDATES} candidate mask words"):
                find_kq_cut(g, frozenset(), k, 1, SolveContext())
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()
    # a 6-vertex path with a loop at each vertex has C(5, 1) + C(5, 2) = 15
    # tree cuts at k = 2; {4, 5} is the smallest side with 3 edges inside
    path = graph(6, [(v, v + 1, 0) for v in range(5)] + [(v, v, 0) for v in range(6)])
    monkeypatch.setattr(cut_solver, "KQ_CUT_CANDIDATES", 15)
    assert find_kq_cut(path, frozenset(), 2, 3, SolveContext()) == 0b110000
    monkeypatch.setattr(cut_solver, "KQ_CUT_CANDIDATES", 14)
    with pytest.raises(GuardError):
        find_kq_cut(path, frozenset(), 2, 3, SolveContext())


@pytest.mark.parametrize("n", [21, 22])
def test_literal_q_solve_past_20_vertices_matches_blocked_oracle_in_both_modes(n):
    rng = random.Random(47 + n)
    g = _random_connected_graph(rng, n, n)
    rep0 = oracle_of(g, frozenset(), 10 ** 9)
    p = set(satisfied_edges(g, rep0.global_witness[0]))
    for eid in rng.sample([e.id for e in g.edges], 1):
        p ^= {eid}
    rep = oracle_of(g, frozenset(p), 1)
    assert rep.promise_holds
    for mode in ("exhaustive", "random"):
        _, value, run = cut_improve(CutInstance(g, frozenset(p), 1), mode=mode, seed=1)
        assert value == rep.neighborhood_value == rep.global_value, mode
        assert run.no_cut_solves == 1 and run.colorings_tried == 0


def test_q_override_dumbbells_at_26_and_30_vertices_agree_across_modes(monkeypatch):
    # both modes take the one exact route; at the table's guard the value is
    # the literal-q table's, and past it a stalled first cut (seed 2 at 30
    # vertices, q = 2) gives way to the next cut instead of the table
    real, stalled_past_guard = cut_solver.recurse_step, []

    def spy(ti, cut_mask, ctx):
        out = real(ti, cut_mask, ctx)
        if out[1].stalled and ti.graph.num_vertices > cut_solver.ENUM_VERTEX_GUARD:
            stalled_past_guard.append(ti.graph.num_vertices)
        return out

    monkeypatch.setattr(cut_solver, "recurse_step", spy)
    for seed in range(3):
        for n in (26, 30):
            rng = random.Random(seed)
            g = _dumbbell_graph(rng, n // 2, n - n // 2, 1)
            ci = CutInstance(g, satisfied_edges(g, rng.randrange(1 << n)), 1)
            literal = cut_improve(ci)[1] if n <= cut_solver.ENUM_VERTEX_GUARD else None
            for q in (2, 4):
                mask, value, run = cut_improve(ci, q_override=q)
                assert cut_improve(ci, mode="random", seed=5, q_override=q)[:2] == (mask, value)
                assert run.recurse_steps > 0 and value == cut_value(g, mask)
                assert literal is None or value == literal, (seed, n, q)
    assert stalled_past_guard
