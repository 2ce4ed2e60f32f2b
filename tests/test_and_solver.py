import random
import sys
from contextlib import ExitStack
from itertools import product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symcsp import and_solver
from symcsp.and_solver import (
    AndClause,
    AndInstance,
    and_instance_from,
    assign_value,
    branch_solve,
    build_flip_class_hypergraph,
    find_assignment_satisfying_p,
    find_branch_variable,
    flip_table,
    instance_value,
    renormalize,
    select_flip,
    solve_and,
    solve_satisfiable_p,
)
from symcsp.coloring import build_coloring_family
from symcsp.core import (
    Clause,
    Deadline,
    DisjointSets,
    GuardError,
    Instance,
    ProposedSolution,
    SolveContext,
    StructureError,
    and_language,
    satisfied_set,
)
from symcsp.flow import (
    WeightedHypergraph, closure_assignment, selection_objective, solve_mis_vw,
)
from symcsp.generators import gen_and_instance
from symcsp.oracle import brute_force_improve

from oracle_helpers import neighborhood_optima


def and_inst(num_vars, rows, p, k):
    """rows: (neg, scope) with neg bit 1 = negated literal."""
    clauses = tuple(
        Clause(i, tuple(neg), tuple(scope), and_language(len(scope)))
        for i, (neg, scope) in enumerate(rows)
    )
    inst = Instance(num_vars, clauses)
    return inst, ProposedSolution(frozenset(p), k)


def _bits(assignment) -> int:
    """The solver's int form of a 0/1 tuple: bit v is variable v."""
    return sum(b << v for v, b in enumerate(assignment))


def _vars_of(mask) -> frozenset:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _mask_of(variables) -> int:
    return sum(1 << v for v in set(variables))


def _p_ids(inst) -> frozenset:
    return frozenset(c.id for c in inst.clauses if c.in_p)


def test_precedes_matches_tuple_order():
    # the int tie-break is tuple `<` on the bits in variable order
    for n in range(6):
        tuples = list(product((0, 1), repeat=n))
        for a in tuples:
            for b in tuples:
                assert and_solver._precedes(_bits(a), _bits(b)) == (a < b), (a, b)


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
    assert out.clauses == (AndClause(0, 0b10, 0b10, True),)


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
    assert alpha == _bits((1, 0))

    inst2, prop2 = and_inst(1, [((0,), (0,)), ((1,), (0,))], {0, 1}, 1)
    ai2 = and_instance_from(inst2, prop2)
    assert find_branch_variable(ai2) == 0
    with pytest.raises(StructureError):
        find_assignment_satisfying_p(ai2)


def test_satisfier_defaults_to_zero():
    inst, prop = and_inst(3, [((0, 0), (0, 1))], set(), 1)
    ai = and_instance_from(inst, prop)
    assert find_assignment_satisfying_p(ai) == _bits((0, 0, 0))


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
                assert alpha & c.care == c.want


def test_renormalize_examples():
    inst, prop = and_inst(2, [((0, 0), (0, 1)), ((1, 0), (0, 1))], {0}, 2)
    ai = and_instance_from(inst, prop)
    # alpha satisfies exactly the proposal
    ren = renormalize(ai, _bits((1, 1)))
    assert ren.k == 2 and _p_ids(ren) == frozenset({0})
    # alpha satisfying the proposal plus an extra clause grows k by 1
    inst2, prop2 = and_inst(2, [((0, 0), (0, 1)), ((0,), (0,))], {0}, 2)
    ai2 = and_instance_from(inst2, prop2)
    ren2 = renormalize(ai2, _bits((1, 1)))
    assert ren2.k == 3 and _p_ids(ren2) == frozenset({0, 1})
    with pytest.raises(StructureError):
        renormalize(ai, _bits((0, 0)))


def test_renormalize_distance_identity():
    rng = random.Random(21)
    for _ in range(40):
        inst, prop = gen_and_instance(rng.randrange(10 ** 6))
        ai = and_instance_from(inst, prop)
        if find_branch_variable(ai) is not None:
            continue
        alpha = find_assignment_satisfying_p(ai)
        ren = renormalize(ai, alpha)
        assert len(_p_ids(ren) ^ _p_ids(ai)) == ren.k - ai.k


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
                cost_parent = len(ai.clauses) - instance_value(ai, _bits(bits))
                cost_child = len(child.clauses) - instance_value(child, _bits(bits))
                shifts.add(cost_parent - cost_child)
            assert len(shifts) == 1


def test_flip_hypergraph_weights_and_edges():
    # proposal {(x and y)}, extra clause (not x) outside it
    inst, prop = and_inst(2, [((0, 0), (0, 1)), ((1,), (0,))], {0}, 1)
    ai = and_instance_from(inst, prop)
    alpha = _bits((1, 1))
    ren = renormalize(ai, alpha)
    table = flip_table(ren, alpha)
    groups, caps, edges, gained = _edges_and_gained(
        table, build_flip_class_hypergraph(table, _mask_of({0, 1}), 1))
    assert tuple(_vars_of(m) for m in groups) == (frozenset({0, 1}),)
    assert caps == [1]
    assert edges == [[0]]
    assert gained == [_mask_of({0})]


def _edges_and_gained(table, sub):
    """A build's (groups, caps, meets, hits) as (groups, caps, edges, gained):
    gained[j] is N_c of the j-th gained clause in clause order and edges[j]
    the groups whose `meets` hold it, ascending."""
    groups, caps, meets, hits = sub
    clauses = [j for j, _ in enumerate(table.outside) if hits >> j & 1]
    edges = [[i for i, m in enumerate(meets) if m >> j & 1] for j in clauses]
    return groups, caps, edges, [table.outside[j][1] for j in clauses]


def _class_hypergraph(key, sub):
    """(hypergraph, classes) of a subproblem with each loose bit made a
    weight-0 singleton class after the groups: the selection instance the
    flip search solves, in `WeightedHypergraph` form."""
    groups, caps, edges, gained = sub
    loose = [1 << v for v in sorted(_vars_of(key & ~sum(groups)))]
    classes = tuple(groups) + tuple(loose)
    hyperedges = tuple(
        tuple(e) + tuple(len(groups) + i for i, b in enumerate(loose) if b & n)
        for e, n in zip(edges, gained)
    )
    return WeightedHypergraph(len(classes), hyperedges, tuple(caps) + (0,) * len(loose)), classes


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
        target = _bits(rng.randint(0, 1) for _ in range(inst.num_vars))
        l1 = target ^ alpha
        if not l1:
            continue
        table = flip_table(ren, alpha)
        hg, classes = _class_hypergraph(
            l1, _edges_and_gained(table, build_flip_class_hypergraph(table, l1, 0)))
        for mask in range(1 << len(classes)):
            chosen = [i for i in range(len(classes)) if (mask >> i) & 1]
            cand = alpha
            for ci in chosen:
                cand ^= classes[ci]
            improvement = instance_value(ren, cand) - instance_value(ren, alpha)
            assert improvement >= selection_objective(hg, chosen)
        full = list(range(len(classes)))
        assert instance_value(ren, target) - instance_value(ren, alpha) == (
            selection_objective(hg, full)
        )


def test_flip_hypergraph_rejects_unrenormalized_instance():
    # (x1) lies outside the proposal although alpha satisfies it: flipping
    # only x0 would "satisfy" it by flipping nothing
    inst, prop = and_inst(2, [((0,), (0,)), ((0,), (1,))], {0}, 1)
    ai = and_instance_from(inst, prop)
    alpha = (1, 1)
    table = flip_table(ai, _bits(alpha))
    with pytest.raises(StructureError, match="flipping nothing"):
        build_flip_class_hypergraph(table, _mask_of({0}), 1)
    with pytest.raises(StructureError, match="flipping nothing"):
        _ref_build_flip_class_hypergraph(ai, alpha, [0])
    # the check runs before the gained count is compared with `need`
    with pytest.raises(StructureError, match="flipping nothing"):
        build_flip_class_hypergraph(table, _mask_of({0}), 5)


# The flip search as it was before the bitmask table: one tuple-of-literals
# pass per coloring over the whole family, on tuple assignments, with each
# clause's masks expanded into (var, bit) pairs.  The differential test
# below pins the table-driven search to it.

def _req(c: AndClause) -> list:
    return [(v, c.want >> v & 1) for v in sorted(_vars_of(c.care))]


def _ref_value(inst: AndInstance, a) -> int:
    return sum(1 for c in inst.clauses if all(a[v] == bit for v, bit in _req(c)))


def _ref_satisfied_by_flipping(c: AndClause, alpha, l1) -> bool:
    for v, bit in _req(c):
        val = alpha[v]
        if v in l1:
            val = 1 - val
        if val != bit:
            return False
    return True


def _ref_build_flip_class_hypergraph(inst: AndInstance, alpha, l1):
    l1 = frozenset(l1)
    sets = DisjointSets(l1)
    for c in inst.clauses:
        if not c.in_p:
            continue
        members = [v for v, _ in _req(c) if v in l1]
        for u in members[1:]:
            sets.union(members[0], u)

    classes = sets.groups()
    index = {v: i for i, cls in enumerate(classes) for v in cls}

    weights = [0] * len(classes)
    for c in inst.clauses:
        if not c.in_p:
            continue
        members = [v for v, _ in _req(c) if v in l1]
        if members:
            weights[index[members[0]]] += 1

    edges = []
    for c in inst.clauses:
        if c.in_p:
            continue
        if _ref_satisfied_by_flipping(c, alpha, l1):
            touched = frozenset(index[v] for v, _ in _req(c) if v in l1)
            if not touched:
                raise StructureError(
                    "clause outside the proposal satisfied by flipping nothing; "
                    "instance was not renormalized"
                )
            edges.append(touched)

    hg = WeightedHypergraph(len(classes), tuple(edges), tuple(weights))
    return hg, tuple(frozenset(c) for c in classes)


def _ref_solve_satisfiable_p(inst: AndInstance, alpha_bits: int, ctx: SolveContext) -> int:
    alpha = tuple(alpha_bits >> v & 1 for v in range(inst.num_vars))
    free = sorted(set(range(inst.num_vars)) - _vars_of(inst.fixed))
    pos = {v: i for i, v in enumerate(free)}
    relevant_mask = 0
    for c in inst.clauses:
        for v, _ in _req(c):
            relevant_mask |= 1 << pos[v]

    r = max((len(_req(c)) for c in inst.clauses), default=1)
    budget = min(len(free), max(0, r * inst.k))
    family = build_coloring_family(
        len(free), budget, budget, ctx.mode, ctx.seed, ctx.delta
    )

    base_value = _ref_value(inst, alpha)
    best_value = base_value
    best = alpha
    seen = set()
    poll = ctx.deadline is not None
    for mask in family.colorings:
        if poll and ctx.expired():
            break
        key = mask & relevant_mask
        if key in seen:
            continue
        seen.add(key)
        l1 = [v for v in free if (mask >> pos[v]) & 1]
        if not l1:
            continue
        hg, class_map = _ref_build_flip_class_hypergraph(inst, alpha, l1)
        ctx.colorings_tried += 1
        if len(hg.hyperedges) == 0:
            continue
        if base_value + len(hg.hyperedges) < best_value:
            continue
        v0, _ = solve_mis_vw(hg)
        cand = list(alpha)
        for ci in v0:
            for v in class_map[ci]:
                cand[v] = 1 - cand[v]
        cand = tuple(cand)
        value = _ref_value(inst, cand)
        if value > best_value or (value == best_value and cand < best):
            best_value, best = value, cand
    return _bits(best)


@st.composite
def _and_solve_case(draw):
    """A conjunction instance (some variables in no clause, proposals that
    may conflict so that branching fixes variables) and a solve setting."""
    n = draw(st.integers(1, 9))
    used = draw(st.integers(1, n))
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        scope = draw(st.lists(st.integers(0, used - 1), min_size=1, max_size=3, unique=True))
        neg = draw(st.lists(st.integers(0, 1), min_size=len(scope), max_size=len(scope)))
        rows.append((tuple(neg), tuple(scope)))
    p = draw(st.sets(st.integers(0, len(rows) - 1)))
    k = draw(st.integers(0, 4))
    mode, seed = draw(st.one_of(
        st.just(("exhaustive", None)),
        st.tuples(st.just("random"), st.integers(0, 50)),
    ))
    return n, rows, p, k, (mode, seed, draw(st.sampled_from([None, None, None, 0])))


def _solve_both(n, rows, p, k, setting):
    """(assignment, SolveContext fields, label-1 clause variables of every
    hypergraph in visiting order) of the table-driven and the reference
    flip search."""
    mode, seed, deadline_ms = setting
    inst, prop = and_inst(n, rows, p, k)
    runs = []
    for new in (True, False):
        visited = []
        if new:
            def build(table, key, *args, _real=build_flip_class_hypergraph):
                visited.append(_vars_of(key))
                return _real(table, key, *args)
            patches = (mock.patch.object(and_solver, "build_flip_class_hypergraph", build),)
        else:
            def build(ai, alpha, l1, _real=_ref_build_flip_class_hypergraph):
                visited.append(frozenset(l1) & {v for c in ai.clauses for v, _ in _req(c)})
                return _real(ai, alpha, l1)
            patches = (mock.patch.object(and_solver, "solve_satisfiable_p", _ref_solve_satisfiable_p),
                       mock.patch.object(sys.modules[__name__], "_ref_build_flip_class_hypergraph", build))
        deadline = None if deadline_ms is None else Deadline(deadline_ms)
        with ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            out, run = solve_and(inst, prop, mode=mode, seed=seed, deadline=deadline)
        runs.append((out, dict(vars(run), deadline=None), visited))
    return runs


@settings(max_examples=400, deadline=None)
@given(_and_solve_case())
# random families whose first mask with some key carries irrelevant bits:
# variables 5-8 are in no clause
@example((9, [((0,), (0,)), ((1, 0), (1, 2)), ((0, 1), (3, 4))], {0}, 1, ("random", 3, None)))
@example((9, [((0, 0), (0, 1)), ((1,), (2,)), ((0,), (3,))], set(), 2, ("random", 7, None)))
# conflicting proposal: the flip search runs below fixed variables
@example((6, [((0,), (0,)), ((1,), (0,)), ((0, 1), (1, 2)), ((1,), (3,))], {0, 1, 2}, 3,
          ("exhaustive", None, None)))
# a random family below fixed variable 0: family bit i is variable i + 1
@example((8, [((0, 1), (0, 1)), ((1, 0), (0, 1)), ((0,), (1,))], {0, 1}, 2, ("random", 33, None)))
def test_flip_search_matches_reference(case):
    new, ref = _solve_both(*case)
    assert new == ref


def test_flip_search_reference_cases_reach_their_branches():
    # the @example inputs above exercise what they claim: irrelevant bits in
    # a random key's first mask, and flip searches below fixed variables, one
    # of them with a random family
    inst, prop = and_inst(9, [((0,), (0,)), ((1, 0), (1, 2)), ((0, 1), (3, 4))], {0}, 1)
    ai = and_instance_from(inst, prop)
    alpha = find_assignment_satisfying_p(ai)
    ren = renormalize(ai, alpha)
    table = flip_table(ren, alpha)
    assert not ren.fixed  # family bit i is variable i
    budget = min(ren.num_vars, ren.max_arity() * ren.k)
    family = build_coloring_family(ren.num_vars, budget, budget, "random", 3)
    assert family.mode == "random"
    firsts = {}
    for mask in family.colorings:
        firsts.setdefault(mask & table.relevant, mask)
    assert any(mask != key for key, mask in firsts.items())

    seen = []
    real = and_solver.solve_satisfiable_p

    def spy(inst, alpha, ctx):
        seen.append(inst.fixed)
        return real(inst, alpha, ctx)

    inst2, prop2 = and_inst(6, [((0,), (0,)), ((1,), (0,)), ((0, 1), (1, 2)), ((1,), (3,))],
                            {0, 1, 2}, 3)
    with mock.patch.object(and_solver, "solve_satisfiable_p", spy):
        solve_and(inst2, prop2)
    assert seen and all(seen)

    modes = []
    real_family = and_solver.build_coloring_family

    def family_spy(*args):
        family = real_family(*args)
        modes.append(family.mode)
        return family

    inst3, prop3 = and_inst(8, [((0, 1), (0, 1)), ((1, 0), (0, 1)), ((0,), (1,))], {0, 1}, 2)
    seen.clear()
    with mock.patch.object(and_solver, "solve_satisfiable_p", spy), \
            mock.patch.object(and_solver, "build_coloring_family", family_spy):
        solve_and(inst3, prop3, mode="random", seed=33)
    assert "random" in modes and all(fixed & 1 for fixed in seen)


def _sparse_inst(num_vars, used, seed):
    """A conjunction instance over num_vars variables whose clauses use
    exactly `used`, with the proposal all zeros satisfies and k = 1, so the
    satisfier is all zeros and the flip search runs on every variable of
    `used` (nothing branches, nothing overshoots)."""
    rng = random.Random(seed)
    rows = [((rng.randint(0, 1),), (v,)) for v in used]
    for j in range(len(used)):
        scope = tuple(rng.sample(used, 2 + j % 2))
        rows.append((tuple(rng.randint(0, 1) for _ in scope), scope))
    p = {i for i, (neg, _) in enumerate(rows) if all(neg)}
    return and_inst(num_vars, rows, p, 1)


def _family_sizes(inst, prop, **kw):
    """(n of every coloring family built, solve result or GuardError)."""
    sizes = []
    real = and_solver.build_coloring_family

    def spy(n, *args):
        sizes.append(n)
        return real(n, *args)

    with mock.patch.object(and_solver, "build_coloring_family", spy):
        try:
            return sizes, solve_and(inst, prop, **kw)
        except GuardError as e:
            return sizes, e


def test_exhaustive_family_counts_relevant_variables():
    # 24 free variables, 12 of them in clauses: the walk visits the 2^12 - 1
    # nonempty submasks, and the family is sized by those 12, not by all 24
    inst, prop = _sparse_inst(24, list(range(0, 24, 2)), 1)
    sizes, (out, run) = _family_sizes(inst, prop)
    assert sizes == [12] and run.colorings_tried == (1 << 12) - 1
    rep = brute_force_improve(inst, prop.k, prop.clause_ids)
    assert len(satisfied_set(inst, out)) >= rep.neighborhood_value


def test_exhaustive_guard_fires_before_any_key():
    inst, prop = _sparse_inst(20, list(range(17)), 2)
    walked = []
    with mock.patch.object(and_solver, "build_flip_class_hypergraph",
                           lambda *args: walked.append(args)):
        sizes, err = _family_sizes(inst, prop)
    assert sizes == [17] and isinstance(err, GuardError) and not walked
    assert "2^17" in str(err)


def test_random_family_counts_free_variables():
    # random masks span every free variable, so random mode keeps sizing its
    # family by all 24 of them
    inst, prop = _sparse_inst(24, list(range(0, 24, 2)), 1)
    sizes, (out, run) = _family_sizes(inst, prop, mode="random", seed=5)
    assert sizes == [24] and 0 < run.colorings_tried < (1 << 12)
    rep = brute_force_improve(inst, prop.k, prop.clause_ids)
    assert len(satisfied_set(inst, out)) >= rep.neighborhood_value


def test_branch_solve_trivial_examples():
    inst, prop = and_inst(1, [((0,), (0,))], set(), 0)
    out, _ = solve_and(inst, prop)
    assert len(satisfied_set(inst, out)) >= 1

    inst2, prop2 = and_inst(1, [((0,), (0,)), ((1,), (0,))], {0, 1}, 1)
    out2, _ = solve_and(inst2, prop2)
    assert len(satisfied_set(inst2, out2)) == 1

    # no variables: the empty assignment
    assert solve_and(*and_inst(0, [], set(), 0))[0] == ()


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
    # the fallback keeps the values branching fixed and zeroes the rest
    inst, prop = and_inst(3, [((0, 0), (0, 1))], {0}, 1)
    ai = and_instance_from(inst, prop)
    child = assign_value(ai, 1, 1)
    ctx = SolveContext(deadline=Deadline(0))
    assert branch_solve(child, ctx) == _bits((0, 1, 0)) and ctx.fallbacks == 1


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


@st.composite
def _flip_case(draw):
    """A conflict-free conjunction instance (its proposal is satisfied by a
    drawn assignment) and a label-1 key over its variables."""
    n = draw(st.integers(1, 8))
    planted = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    rows, p = [], set()
    for i in range(draw(st.integers(1, 10))):
        scope = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        neg = draw(st.lists(st.integers(0, 1), min_size=len(scope), max_size=len(scope)))
        rows.append((tuple(neg), tuple(scope)))
        if all(planted[v] ^ b for v, b in zip(scope, neg)) and draw(st.booleans()):
            p.add(i)
    return n, rows, p, draw(st.integers(1, (1 << n) - 1))


@settings(max_examples=300, deadline=None)
@given(_flip_case())
# a solo group of cap 2 whose two gained clauses tie with its cap: it stays
# alive, and so does a cap-1 solo group with one
@example((2, [((0,), (0,)), ((0, 0), (0, 1)), ((1,), (0,)), ((1,), (1,))], {0, 1}, 0b11))
@example((1, [((0,), (0,)), ((1,), (0,))], {0}, 0b1))
# groups {x0}, {x1}, {x2} chained by shared clauses (all three die
# together), next to solo group {x3} over its cap, whose reached clauses
# also flip loose x4
@example((5, [((0,), (0,)), ((0,), (1,)), ((0,), (2,)), ((0,), (3,)),
              ((1, 1), (0, 1)), ((1, 1), (0, 1)), ((1, 1), (1, 2)), ((1,), (2,)),
              ((1,), (3,)), ((1, 0), (3, 4))], {0, 1, 2, 3}, 0b11111))
# gained clauses over loose x1 and x2 meet no group; group {x0} ties
@example((3, [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((0, 0), (1, 2))], {0}, 0b111))
# every group solo: {x0} over its cap, {x1} at it, {x2} with no gained clause
@example((3, [((0,), (0,)), ((0,), (1,)), ((0,), (2,)), ((1,), (0,)), ((1,), (0,)),
              ((1,), (1,))], {0, 1, 2}, 0b111))
# a tied pair, {x0} of cap 1 meeting two clauses of its own and {x1} of cap
# 2 meeting only the shared one: only {x0} dies
@example((2, [((0,), (0,)), ((0,), (1,)), ((0,), (1,)), ((1,), (0,)), ((1,), (0,)),
              ((1, 1), (0, 1))], {0, 1, 2}, 0b11))
# a tied pair of cap 1 each with three shared clauses: each alone is worth
# -1, both together 1, so both die
@example((2, [((0,), (0,)), ((0,), (1,)), ((1, 1), (0, 1)), ((1, 1), (0, 1)),
              ((1, 1), (0, 1))], {0, 1}, 0b11))
# the same pair with two shared clauses: both together tie with neither, so
# both stay alive
@example((2, [((0,), (0,)), ((0,), (1,)), ((1, 1), (0, 1)), ((1, 1), (0, 1))], {0, 1}, 0b11))
# {x0} with two clauses of its own ties with the pair: only {x0} dies
@example((2, [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (0,)), ((1, 1), (0, 1))],
          {0, 1}, 0b11))
def test_flip_matches_reference_selection(case):
    # the flip of one key is the union of the V0 classes that solve_mis_vw
    # picks on the reference hypergraph, and its value is the formula the
    # search uses
    n, rows, p, key = case
    inst, prop = and_inst(n, rows, p, 1)
    ai = and_instance_from(inst, prop)
    alpha = find_assignment_satisfying_p(ai)  # no conflict: the planted one satisfies p
    ren = renormalize(ai, alpha)
    table = flip_table(ren, alpha)
    key &= table.relevant
    assume(key)
    flip, lost = select_flip(table, key, build_flip_class_hypergraph(table, key, 0))

    alpha_tuple = tuple(alpha >> v & 1 for v in range(n))
    hg, classes = _ref_build_flip_class_hypergraph(ren, alpha_tuple, _vars_of(key))
    v0, _ = solve_mis_vw(hg)
    assert flip == _mask_of(v for ci in v0 for v in classes[ci])
    gained_value = sum(1 for v, nb in table.outside if flip & v == nb)
    assert instance_value(ren, alpha ^ flip) == len(table.proposed) - lost + gained_value


@st.composite
def _tied_sub(draw):
    """A synthetic (groups, caps, meets, hits) with t = 2..8 tied groups,
    each sharing a gained clause with another, next to up to three solo
    groups, and the outside clauses' N_c.  Group g is variable bit g;
    clause c's N_c is one bit above every group, so a flip shows both which
    groups died and which clauses were reached.  Each gained clause meets a
    set of groups: a link from every tied group to another, then any sets
    of tied groups (the empty one included) and single solo groups."""
    t = draw(st.integers(2, 8))
    solo = draw(st.integers(0, 3))
    num_groups = t + solo
    kinds = [{g, draw(st.sampled_from([h for h in range(t) if h != g]))} for g in range(t)]
    kinds += draw(st.lists(st.sets(st.integers(0, t - 1)), max_size=8))
    if solo:
        kinds += draw(st.lists(st.integers(t, num_groups - 1).map(lambda g: {g}), max_size=4))
    m = len(kinds) + draw(st.integers(0, 3))  # some outside clauses not gained
    place = draw(st.permutations(range(num_groups)))  # the slot of each group
    slot = draw(st.permutations(range(m)))  # the bit of each clause
    caps = draw(st.lists(st.integers(1, 4), min_size=num_groups, max_size=num_groups))
    meets = [0] * num_groups
    for c, kind in enumerate(kinds):
        for g in kind:
            meets[place[g]] |= 1 << slot[c]
    groups = [1 << g for g in range(num_groups)]
    outside = [(0, 1 << (num_groups + c)) for c in range(m)]
    hits = sum(1 << slot[c] for c in range(len(kinds)))
    return (groups, caps, meets, hits), outside, t


@settings(max_examples=500, deadline=None)
@given(_tied_sub())
# three tied groups of cap 1: {0, 1} meets two clauses of its own, so it
# ties with the empty set and every group stays alive
@example((([1, 2, 4], [1, 1, 1], [0b011, 0b111, 0b100], 0b111),
          [(0, 1 << 3), (0, 1 << 4), (0, 1 << 5)], 3))
def test_tied_groups_match_the_closure_assignment(case):
    # up to six tied groups are decided by their dead sets, without a flow,
    # and more go to closure_assignment: either way (flip, lost) is that of
    # closure_assignment run on every group and every gained clause
    sub, outside, t = case
    groups, caps, meets, hits = sub
    gained = [c for c in range(len(outside)) if hits >> c & 1]
    dead, reached = closure_assignment(
        caps, [[g for g, m in enumerate(meets) if m >> c & 1] for c in gained]
    )
    want = (sum(groups[g] for g in dead) | sum(outside[gained[j]][1] for j in reached),
            sum(caps[g] for g in dead))
    with mock.patch.object(and_solver, "closure_assignment", wraps=closure_assignment) as flow:
        assert select_flip(SimpleNamespace(outside=outside), 0, sub) == want
    assert flow.called == (t > 6)


def test_flip_search_sends_seven_tied_groups_to_the_flow():
    # seven unit clauses wanting x0..x6 at 0 make seven groups of cap 1, and
    # two copies of x_i = x_{i+1} = 1 for each i < 6 tie them in a chain:
    # only the key of all seven reaches closure_assignment, and flipping
    # everything gains 12 clauses for 7
    rows = [((1,), (v,)) for v in range(7)]
    rows += [((0, 0), (v, v + 1)) for v in range(6) for _ in range(2)]
    inst, prop = and_inst(7, rows, set(range(7)), 19)
    calls = []

    def spy(caps, edges):
        calls.append(len(caps))
        return closure_assignment(caps, edges)

    with mock.patch.object(and_solver, "closure_assignment", spy):
        out, run = solve_and(inst, prop)
    assert calls == [7] and run.colorings_tried == (1 << 7) - 1
    assert out == (1,) * 7 and len(satisfied_set(inst, out)) == 12


def _ref_groups(table, key):
    """(groups, caps) of a key rebuilt from nothing: the label-1 parts of the
    proposed clauses, each merged with every earlier group it meets.  This
    is the per-key merge the flip search ran before it carried its groups
    from key to key."""
    groups, caps = [], []
    for vbits, _ in table.proposed:
        part = vbits & key
        if not part:
            continue
        weight = 1
        for i in range(len(groups) - 1, -1, -1):
            if groups[i] & part:
                part |= groups.pop(i)
                weight += caps.pop(i)
        groups.append(part)
        caps.append(weight)
    return groups, caps


@settings(max_examples=200, deadline=None)
@given(_flip_case(), st.randoms(use_true_random=False))
def test_carried_groups_match_the_per_key_merge(case, rng):
    # keys in ascending order (exhaustive mode) and shuffled (random mode's
    # order): the groups carried on the table's stack are the per-key
    # merge's, up to their order, with the same caps, gained clauses and
    # edges; the stack never holds more than R + 1 entries
    n, rows, p, _ = case
    inst, prop = and_inst(n, rows, p, 1)
    ai = and_instance_from(inst, prop)
    alpha = find_assignment_satisfying_p(ai)
    ren = renormalize(ai, alpha)
    relevant = flip_table(ren, alpha).relevant
    ascending = sorted(_submasks(relevant))[1:]
    shuffled = ascending[:]
    rng.shuffle(shuffled)
    for keys in (ascending, shuffled):
        table = flip_table(ren, alpha)  # a fresh stack for each order
        for key in keys:
            groups, caps, edges, gained = _edges_and_gained(
                table, build_flip_class_hypergraph(table, key, 0))
            ref_groups, ref_caps = _ref_groups(table, key)
            assert sorted(zip(groups, caps)) == sorted(zip(ref_groups, ref_caps))
            assert gained == [n for v, n in table.outside if key & v == n]
            assert [sorted(groups[i] for i in e) for e in edges] == [
                sorted(g for g in ref_groups if g & n) for n in gained
            ]
            assert len(table.stack) <= relevant.bit_count() + 1


@pytest.mark.parametrize("polls", [0, 1, 40])
def test_deadline_stopped_walk_counts_every_built_key(polls):
    # a deadline that passes before the walk, at its first key or in its
    # middle: colorings_tried is still one per build call
    inst, prop = _sparse_inst(10, list(range(8)), 3)
    calls = []
    real_build = and_solver.build_flip_class_hypergraph

    def build(*args):
        calls.append(args)
        return real_build(*args)

    class Polls:
        """Expires at poll number `polls` (0 = the first)."""

        def __init__(self):
            self.left = polls

        def expired(self):
            self.left -= 1
            return self.left < 0

    ren = renormalize(and_instance_from(inst, prop), 0)  # all zeros satisfies the proposal
    for deadline in (Deadline(0), Polls()):
        calls.clear()
        ctx = SolveContext(deadline=deadline)
        with mock.patch.object(and_solver, "build_flip_class_hypergraph", build):
            solve_satisfiable_p(ren, 0, ctx)
        assert ctx.timed_out and ctx.colorings_tried == len(calls)
    assert len(calls) == polls < (1 << 8) - 1


def test_pruned_keys_count_but_run_no_selection():
    # a key with fewer gained clauses than the best improvement so far is
    # still walked and counted, but never reaches the selection
    inst, prop = _sparse_inst(10, list(range(8)), 3)
    needs, subs, selections = [], [], []
    real_build = and_solver.build_flip_class_hypergraph
    real_select = and_solver.select_flip

    def build(table, key, need):
        needs.append(need)
        subs.append(real_build(table, key, need))
        return subs[-1]

    def select(*args):
        selections.append(args)
        return real_select(*args)

    with mock.patch.object(and_solver, "build_flip_class_hypergraph", build), \
            mock.patch.object(and_solver, "select_flip", select):
        _, run = solve_and(inst, prop)
    pruned = sum(sub is None for sub in subs)
    assert run.colorings_tried == len(subs) == (1 << 8) - 1
    assert pruned and len(selections) == len(subs) - pruned
    # the bound rises once a flip improves on the satisfier
    assert max(needs) > 1


def _submasks(mask):
    """Every submask of mask, 0 included."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@st.composite
def _half_table_case(draw):
    """R relevant variables at scattered positions and outside clauses
    (V_c, N_c) over them: some wholly inside the low or the high half, some
    repeated, some with N_c = 0."""
    r = draw(st.integers(0, 7))
    variables = sorted(draw(st.sets(st.integers(0, 40), min_size=r, max_size=r)))
    pools = [pool for pool in (variables[:(r + 1) // 2], variables[(r + 1) // 2:], variables)
             if pool]
    outside = []
    for _ in range(draw(st.integers(0, 8)) if pools else 0):
        scope = draw(st.sets(st.sampled_from(draw(st.sampled_from(pools))), min_size=1))
        flipped = draw(st.sets(st.sampled_from(sorted(scope))))
        outside.append((_mask_of(scope), _mask_of(flipped)))
    if outside:
        outside += draw(st.lists(st.sampled_from(outside), max_size=3))
    return variables, draw(st.permutations(outside))


@settings(max_examples=300, deadline=None)
@given(_half_table_case())
@example(([], []))  # R = 0
@example(([5], [(1 << 5, 1 << 5), (1 << 5, 0)]))  # R = 1, one clause flipping nothing
# odd R: a clause in each half, a repeated one, one across the halves
@example(([0, 3, 9], [(1, 1), (1 << 9, 0), (1 << 3 | 1 << 9, 1 << 9),
                      (1 << 3 | 1 << 9, 1 << 9), (1 | 1 << 9, 1 << 9)]))
def test_half_tables_match_the_direct_scan(case):
    # the two half-table lookups give exactly the outside clauses the direct
    # ``key & V_c == N_c`` scan gives, for every key over the relevant
    # variables; the build raises on a clause flipping nothing whatever
    # `need` is, and otherwise prunes at exactly `need`
    variables, outside = case
    relevant = _mask_of(variables)
    # a proposed clause over every variable makes them all relevant; with
    # alpha = 0 each clause's N_c is its `want`
    clauses = [AndClause(0, relevant, 0, True)]
    clauses += [AndClause(j + 1, v, n, False) for j, (v, n) in enumerate(outside)]
    table = flip_table(AndInstance(41, tuple(clauses), 1), 0)
    assert table.relevant == relevant and table.outside == tuple(outside)
    assert table.low.mask == _mask_of(variables[:(len(variables) + 1) // 2])
    assert table.high.mask == relevant ^ table.low.mask
    for key in _submasks(relevant):
        direct = [j for j, (v, n) in enumerate(outside) if key & v == n]
        low, high = table.low, table.high
        assert low[key & low.mask] & high[key & high.mask] == sum(1 << j for j in direct)
        gained = [outside[j][1] for j in direct]
        if 0 in gained:
            for need in (0, len(gained) + 1):
                with pytest.raises(StructureError, match="flipping nothing"):
                    build_flip_class_hypergraph(table, key, need)
            continue
        assert build_flip_class_hypergraph(table, key, len(gained) + 1) is None
        sub = build_flip_class_hypergraph(table, key, len(gained))
        assert _edges_and_gained(table, sub)[3] == gained


def test_random_mode_fills_half_tables_only_for_lookups():
    # 40 relevant variables at k = 1 in random mode: eager half tables would
    # hold 2^20 entries each.  Filled on demand, each holds at most one entry
    # per walked key and one per selected flip (the value recount)
    inst, prop = _sparse_inst(40, list(range(40)), 1)
    tables, selections = [], []
    real_table, real_select = and_solver.flip_table, and_solver.select_flip

    def table_spy(*args):
        tables.append(real_table(*args))
        return tables[-1]

    def select_spy(*args):
        selections.append(args)
        return real_select(*args)

    with mock.patch.object(and_solver, "flip_table", table_spy), \
            mock.patch.object(and_solver, "select_flip", select_spy):
        _, run = solve_and(inst, prop, mode="random", seed=1)
    (table,) = tables
    assert table.relevant.bit_count() == 40 and 0 < run.colorings_tried < 1 << 12
    for half in (table.low, table.high):
        assert 0 < len(half) <= run.colorings_tried + len(selections)


def test_need_follows_the_best_value():
    # each key is built with need = max(1, best value so far - base value),
    # the best value recounted here by the direct scan from every selected
    # flip, and a new flip search starts again from need 1
    cases = [(gen_and_instance(seed), mode) for seed in range(40)
             for mode in ("exhaustive", "random")]
    cases.append((_sparse_inst(10, list(range(8)), 3), "exhaustive"))
    raised = 0
    for (inst, prop), mode in cases:
        log = []
        real_build, real_select = and_solver.build_flip_class_hypergraph, and_solver.select_flip

        def build(table, key, need):
            log.append(("build", table, need))
            return real_build(table, key, need)

        def select(table, key, sub):
            log.append(("select",) + real_select(table, key, sub))
            return log[-1][1:]

        with mock.patch.object(and_solver, "build_flip_class_hypergraph", build), \
                mock.patch.object(and_solver, "select_flip", select):
            solve_and(inst, prop, mode=mode, seed=2)
        table = None
        for kind, a, b in log:
            if kind == "select":
                flip, lost = a, b
                best = max(best, base - lost + sum(1 for v, n in table.outside if flip & v == n))
                continue
            if a is not table:
                table, base = a, len(a.proposed)
                best = base
            assert b == max(1, best - base)
            raised += b > 1
    assert raised
