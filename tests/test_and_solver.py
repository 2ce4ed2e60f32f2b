import random
from itertools import product

import pytest

from symcsp.and_solver import (
    AndClause,
    AndInstance,
    and_instance_from,
    assign_value,
    branch_solve,
    build_flip_class_hypergraph,
    clause_satisfied,
    fallback_assignment,
    find_assignment_satisfying_p,
    find_branch_variable,
    instance_value,
    renormalize,
    satisfied_by_flipping,
    solve_and,
    solve_satisfiable_p,
)
from symcsp.core import (
    Clause,
    Deadline,
    Instance,
    ProposedSolution,
    SolveContext,
    StructureError,
    and_language,
    satisfied_set,
)
from symcsp.flow import selection_objective
from symcsp.generators import gen_and_instance
from symcsp.oracle import brute_force_improve, neighborhood_optima


def and_inst(num_vars, rows, p, k):
    """rows: (neg, scope) with neg bit 1 = negated literal."""
    clauses = tuple(
        Clause(i, tuple(neg), tuple(scope), and_language(len(scope)))
        for i, (neg, scope) in enumerate(rows)
    )
    inst = Instance(num_vars, clauses)
    return inst, ProposedSolution(frozenset(p), k)


def test_assign_value_kills_proposed_clause():
    # clause (x and y) proposed; fixing x := 0 kills it and pays budget
    inst, prop = and_inst(2, [((0, 0), (0, 1))], {0}, 2)
    ai = and_instance_from(inst, prop)
    out = assign_value(ai, 0, 0)
    assert out.clauses == () and out.k == 1


def test_assign_value_keeps_residual():
    # clause (not x and y) proposed; fixing x := 0 leaves residual (y)
    inst, prop = and_inst(2, [((1, 0), (0, 1))], {0}, 2)
    ai = and_instance_from(inst, prop)
    out = assign_value(ai, 0, 0)
    assert out.k == 2
    assert out.clauses == (AndClause(0, ((1, 1),), True),)


def test_assign_value_trivial_true_outside_proposal():
    # unproposed unit clause (x); fixing x := 1 satisfies it forever: the
    # proposal must drift by one
    inst, prop = and_inst(1, [((0,), (0,))], set(), 1)
    ai = and_instance_from(inst, prop)
    out = assign_value(ai, 0, 1)
    assert out.clauses == () and out.k == 0


def test_assign_value_can_go_negative():
    inst, prop = and_inst(1, [((0,), (0,))], {0}, 0)
    ai = and_instance_from(inst, prop)
    assert assign_value(ai, 0, 0).k == -1


def test_branch_variable_and_satisfier():
    inst, prop = and_inst(2, [((0, 1), (0, 1))], {0}, 1)
    ai = and_instance_from(inst, prop)
    assert find_branch_variable(ai) is None
    alpha = find_assignment_satisfying_p(ai)
    assert alpha == (1, 0)

    inst2, prop2 = and_inst(1, [((0,), (0,)), ((1,), (0,))], {0, 1}, 1)
    ai2 = and_instance_from(inst2, prop2)
    assert find_branch_variable(ai2) == 0
    with pytest.raises(StructureError):
        find_assignment_satisfying_p(ai2)


def test_satisfier_defaults_to_zero():
    inst, prop = and_inst(3, [((0, 0), (0, 1))], set(), 1)
    ai = and_instance_from(inst, prop)
    assert find_assignment_satisfying_p(ai) == (0, 0, 0)


def test_satisfier_satisfies_random_conflict_free_proposals():
    rng = random.Random(20)
    for _ in range(40):
        inst, prop = gen_and_instance(rng.randrange(10 ** 6))
        ai = and_instance_from(inst, prop)
        if find_branch_variable(ai) is not None:
            continue
        alpha = find_assignment_satisfying_p(ai)
        for c in ai.clauses:
            if c.in_p:
                assert clause_satisfied(c, alpha)


def test_renormalize_examples():
    inst, prop = and_inst(2, [((0, 0), (0, 1)), ((1, 0), (0, 1))], {0}, 2)
    ai = and_instance_from(inst, prop)
    # alpha satisfies exactly the proposal
    ren = renormalize(ai, (1, 1))
    assert ren.k == 2 and ren.p_ids() == frozenset({0})
    # alpha satisfying the proposal plus an extra clause grows k by 1
    inst2, prop2 = and_inst(2, [((0, 0), (0, 1)), ((0,), (0,))], {0}, 2)
    ai2 = and_instance_from(inst2, prop2)
    ren2 = renormalize(ai2, (1, 1))
    assert ren2.k == 3 and ren2.p_ids() == frozenset({0, 1})
    with pytest.raises(StructureError):
        renormalize(ai, (0, 0))


def test_renormalize_distance_identity():
    rng = random.Random(21)
    for _ in range(40):
        inst, prop = gen_and_instance(rng.randrange(10 ** 6))
        ai = and_instance_from(inst, prop)
        if find_branch_variable(ai) is not None:
            continue
        alpha = find_assignment_satisfying_p(ai)
        ren = renormalize(ai, alpha)
        assert len(ren.p_ids() ^ ai.p_ids()) == ren.k - ai.k


def test_assign_value_cost_shift_is_assignment_independent():
    rng = random.Random(22)
    for _ in range(30):
        inst, prop = gen_and_instance(rng.randrange(10 ** 6), max_vars=6, max_clauses=7)
        ai = and_instance_from(inst, prop)
        v = rng.randrange(inst.num_vars)
        for a in (0, 1):
            child = assign_value(ai, v, a)
            shifts = set()
            for bits in product((0, 1), repeat=inst.num_vars):
                if bits[v] != a:
                    continue
                cost_parent = len(ai.clauses) - instance_value(ai, bits)
                cost_child = len(child.clauses) - instance_value(child, bits)
                shifts.add(cost_parent - cost_child)
            assert len(shifts) == 1


def test_flip_hypergraph_weights_and_edges():
    # proposal {(x and y)}, extra clause (not x) outside it
    inst, prop = and_inst(2, [((0, 0), (0, 1)), ((1,), (0,))], {0}, 1)
    ai = and_instance_from(inst, prop)
    alpha = (1, 1)
    ren = renormalize(ai, alpha)
    fch = build_flip_class_hypergraph(ren, alpha, [0, 1])
    assert fch.class_map == (frozenset({0, 1}),)
    assert fch.hypergraph.weights == (1,)
    assert fch.hypergraph.hyperedges == (frozenset({0}),)


def test_flip_improvement_never_below_objective():
    # flipping a class set improves the value by at least the selection
    # objective; equality for the whole class set of a disagreement coloring
    rng = random.Random(23)
    for _ in range(60):
        inst, prop = gen_and_instance(rng.randrange(10 ** 6), max_vars=7, max_clauses=8)
        ai = and_instance_from(inst, prop)
        if find_branch_variable(ai) is not None:
            continue
        alpha = find_assignment_satisfying_p(ai)
        ren = renormalize(ai, alpha)
        target = tuple(rng.randint(0, 1) for _ in range(inst.num_vars))
        l1 = [v for v in range(inst.num_vars) if target[v] != alpha[v]]
        if not l1:
            continue
        fch = build_flip_class_hypergraph(ren, alpha, l1)
        for mask in range(1 << len(fch.class_map)):
            chosen = [i for i in range(len(fch.class_map)) if (mask >> i) & 1]
            cand = list(alpha)
            for ci in chosen:
                for v in fch.class_map[ci]:
                    cand[v] = 1 - cand[v]
            improvement = instance_value(ren, cand) - instance_value(ren, alpha)
            assert improvement >= selection_objective(fch.hypergraph, chosen)
        full = list(range(len(fch.class_map)))
        assert instance_value(ren, target) - instance_value(ren, alpha) == (
            selection_objective(fch.hypergraph, full)
        )


def test_satisfied_by_flipping():
    c = AndClause(0, ((0, 1), (1, 0)), False)  # x0 and not x1
    assert satisfied_by_flipping(c, (0, 0), {0})
    assert not satisfied_by_flipping(c, (0, 0), {1})


def test_branch_solve_trivial_examples():
    inst, prop = and_inst(1, [((0,), (0,))], set(), 0)
    out, _ = solve_and(inst, prop)
    assert len(satisfied_set(inst, out)) >= 1

    inst2, prop2 = and_inst(1, [((0,), (0,)), ((1,), (0,))], {0, 1}, 1)
    out2, _ = solve_and(inst2, prop2)
    assert len(satisfied_set(inst2, out2)) == 1


def test_flip_tradeoff_keeps_satisfier():
    # proposal {(x and y)} plus (not x) outside it: flipping x trades one
    # clause for another, so the satisfier's value 1 is already optimal
    inst, prop = and_inst(2, [((0, 0), (0, 1)), ((1,), (0,))], {0}, 1)
    rep = brute_force_improve(inst, prop.k, prop.clause_ids)
    assert rep.neighborhood_value == 1
    out, _ = solve_and(inst, prop)
    assert out == (1, 1) and len(satisfied_set(inst, out)) == 1


def test_branch_depth_bounded():
    rng = random.Random(24)
    for _ in range(40):
        inst, prop = gen_and_instance(rng.randrange(10 ** 6))
        stats = SolveContext()
        ai = and_instance_from(inst, prop)
        branch_solve(ai, stats)
        assert stats.max_depth <= prop.k + 1


def test_solver_matches_oracle_on_random_instances():
    for seed in range(250):
        inst, prop = gen_and_instance(seed, max_vars=8, max_clauses=10)
        rep = brute_force_improve(inst, prop.k, prop.clause_ids)
        assert rep.promise_holds
        out, _ = solve_and(inst, prop)
        assert len(satisfied_set(inst, out)) >= rep.neighborhood_value, seed


def test_solver_handles_promise_violation_gracefully():
    # contradictory proposal at k=0: must still terminate deterministically
    inst, prop = and_inst(1, [((0,), (0,)), ((1,), (0,))], {0, 1}, 0)
    out, stats = solve_and(inst, prop)
    assert out == (0,) and stats.fallbacks >= 1


def test_randomized_mode_matches_on_small_instances():
    for seed in range(25):
        inst, prop = gen_and_instance(seed, max_vars=6, max_clauses=8)
        rep = brute_force_improve(inst, prop.k, prop.clause_ids)
        out, _ = solve_and(inst, prop, mode="random", seed=seed, delta=1e-6)
        assert len(satisfied_set(inst, out)) >= rep.neighborhood_value


def test_small_hamming_claim_has_counterexample():
    # 4-cycle of implication-like clauses (2 copies each) plus one anchor:
    # the only neighborhood-optimal assignment is all-ones, four flips from
    # the proposal satisfier; the solver still beats it from afar
    rows = [((0, 0), (0, 1))]
    for i in range(4):
        rows += [((1, 0), (i, (i + 1) % 4))] * 2
    inst, prop = and_inst(4, rows, set(), 1)
    rep = brute_force_improve(inst, prop.k, prop.clause_ids)
    assert rep.promise_holds and rep.neighborhood_value == 1
    optima = neighborhood_optima(inst, prop.k, prop.clause_ids)
    assert optima == [(1, 1, 1, 1)]
    alpha = (0, 0, 0, 0)  # the canonical proposal satisfier (empty proposal)
    r = 2
    assert all(
        sum(1 for v in range(4) if beta[v] != alpha[v]) > r * prop.k
        for beta in optima
    )
    out, _ = solve_and(inst, prop)
    assert len(satisfied_set(inst, out)) >= 1


def test_repeated_conflicting_literals_rejected():
    clauses = (Clause(0, (0, 1), (0, 0), and_language(2)),)
    inst = Instance(1, clauses)
    with pytest.raises(StructureError):
        and_instance_from(inst, ProposedSolution(frozenset(), 0))


def test_fallback_assignment_respects_fixed_values():
    inst, prop = and_inst(3, [((0, 0), (0, 1))], {0}, 1)
    ai = and_instance_from(inst, prop)
    child = assign_value(ai, 1, 1)
    assert fallback_assignment(child) == (0, 1, 0)


def test_random_mode_seed_none_means_zero():
    for seed in range(12):
        inst, prop = gen_and_instance(seed)
        out0, run0 = solve_and(inst, prop, mode="random", seed=0)
        out_none, run_none = solve_and(inst, prop, mode="random", seed=None)
        assert run_none.seed == 0
        assert (out_none, run_none.colorings_tried) == (out0, run0.colorings_tried)


def test_zero_deadline_marks_context_timed_out():
    inst, prop = gen_and_instance(4)
    out, run = solve_and(inst, prop, deadline=Deadline(0))
    assert run.timed_out and run.fallbacks >= 1 and len(out) == inst.num_vars
