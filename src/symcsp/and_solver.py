"""Solver for improving a proposed solution over conjunction-family clauses.

Pipeline: branch on variables whose literals conflict inside the proposed
clause set (each branch fixes a value and pays budget for clauses it kills),
until the proposed set is conflict-free; satisfy it outright; renormalize
the proposal to the satisfier's full satisfied set; then search flip sets
around the satisfier.  The flip search runs one weighted-hypergraph
selection per coloring in a separating family: label-1 variables are
grouped into classes joined by shared proposed clauses, a class costs the
proposed clauses it touches, and a hyperedge worth 1 appears for every
non-proposed clause that flipping the label-1 set would satisfy.

On inputs violating the distance promise the solver still terminates and
returns a deterministic fallback (all zeros on the free variables).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_DELTA, DisjointSets, Instance, ProposedSolution, SolveContext, StructureError,
)
from .coloring import build_coloring_family
from .flow import WeightedHypergraph, solve_mis_vw


@dataclass(frozen=True)
class AndClause:
    """Conjunction clause: every (var, bit) in req must hold."""

    id: int
    req: tuple
    in_p: bool


@dataclass(frozen=True)
class AndInstance:
    num_vars: int
    clauses: tuple
    k: int
    fixed: tuple = ()

    def p_ids(self) -> frozenset:
        return frozenset(c.id for c in self.clauses if c.in_p)

    def max_arity(self) -> int:
        return max((len(c.req) for c in self.clauses), default=1)


def and_instance_from(instance: Instance, proposed: ProposedSolution) -> AndInstance:
    """Normalize a conjunction-family CSP instance for the solver."""
    if not instance.is_and_family():
        raise StructureError("solver requires conjunction-family clauses only")
    proposed.validate_against(instance)
    clauses = []
    for c in instance.clauses:
        if c.language.counts == frozenset({c.language.arity}):
            wanted = [(v, 1 - b) for v, b in zip(c.scope, c.neg)]
        else:
            wanted = [(v, b) for v, b in zip(c.scope, c.neg)]
        req = {}
        for v, bit in wanted:
            if req.get(v, bit) != bit:
                raise StructureError(
                    f"clause {c.id}: repeated variable with conflicting literals"
                )
            req[v] = bit
        clauses.append(
            AndClause(c.id, tuple(sorted(req.items())), c.id in proposed.clause_ids)
        )
    return AndInstance(instance.num_vars, tuple(clauses), proposed.k)


def assign_value(inst: AndInstance, v: int, a: int) -> AndInstance:
    """Fix v := a; restrict clauses, pay budget for killed proposed clauses
    and for non-proposed clauses that became always-true.  k may go negative."""
    new_clauses = []
    k = inst.k
    for c in inst.clauses:
        hits = [bit for var, bit in c.req if var == v]
        if not hits:
            new_clauses.append(c)
            continue
        if any(bit != a for bit in hits):
            if c.in_p:
                k -= 1
            continue
        rest = tuple(item for item in c.req if item[0] != v)
        if not rest:
            if not c.in_p:
                k -= 1
            continue
        new_clauses.append(AndClause(c.id, rest, c.in_p))
    return AndInstance(inst.num_vars, tuple(new_clauses), k, inst.fixed + ((v, a),))


def find_branch_variable(inst: AndInstance):
    """Smallest variable appearing with both polarities in proposed clauses."""
    polarity = {}
    conflicts = set()
    for c in inst.clauses:
        if not c.in_p:
            continue
        for v, bit in c.req:
            if polarity.setdefault(v, bit) != bit:
                conflicts.add(v)
    return min(conflicts) if conflicts else None


def fallback_assignment(inst: AndInstance) -> tuple:
    a = [0] * inst.num_vars
    for v, bit in inst.fixed:
        a[v] = bit
    return tuple(a)


def find_assignment_satisfying_p(inst: AndInstance) -> tuple:
    """Assignment satisfying every proposed clause; free variables get 0.

    Precondition (guaranteed after branching): no variable occurs in the
    proposed set with both polarities.  A conflict here is a caller bug.
    """
    forced = {}
    for c in inst.clauses:
        if not c.in_p:
            continue
        for v, bit in c.req:
            if forced.setdefault(v, bit) != bit:
                raise StructureError("proposed clauses conflict; branch first")
    a = [0] * inst.num_vars
    for v, bit in inst.fixed:
        a[v] = bit
    for v, bit in forced.items():
        a[v] = bit
    return tuple(a)


def clause_satisfied(c: AndClause, a) -> bool:
    return all(a[v] == bit for v, bit in c.req)


def instance_value(inst: AndInstance, a) -> int:
    return sum(1 for c in inst.clauses if clause_satisfied(c, a))


def renormalize(inst: AndInstance, alpha) -> AndInstance:
    """Reset the proposal to the clauses alpha satisfies, growing the budget
    by the symmetric difference.  alpha must satisfy every proposed clause."""
    moved = 0
    new_clauses = []
    for c in inst.clauses:
        s = clause_satisfied(c, alpha)
        if c.in_p and not s:
            raise StructureError("alpha must satisfy the proposed set")
        if s != c.in_p:
            moved += 1
        new_clauses.append(AndClause(c.id, c.req, s))
    return AndInstance(inst.num_vars, tuple(new_clauses), inst.k + moved, inst.fixed)


def satisfied_by_flipping(c: AndClause, alpha, l1) -> bool:
    """Would flipping the label-1 variables of alpha satisfy this clause?"""
    for v, bit in c.req:
        val = alpha[v]
        if v in l1:
            val = 1 - val
        if val != bit:
            return False
    return True


@dataclass(frozen=True)
class FlipClassHypergraph:
    """Selection subproblem for one coloring: classes partition the label-1
    variables; weights count incident proposed clauses; hyperedges are the
    non-proposed clauses a full label-1 flip would satisfy."""

    hypergraph: WeightedHypergraph
    class_map: tuple


def build_flip_class_hypergraph(inst: AndInstance, alpha, l1) -> FlipClassHypergraph:
    l1 = frozenset(l1)
    sets = DisjointSets(l1)
    for c in inst.clauses:
        if not c.in_p:
            continue
        members = [v for v, _ in c.req if v in l1]
        for u in members[1:]:
            sets.union(members[0], u)

    classes = sets.groups()
    index = {v: i for i, cls in enumerate(classes) for v in cls}

    weights = [0] * len(classes)
    for c in inst.clauses:
        if not c.in_p:
            continue
        members = [v for v, _ in c.req if v in l1]
        if members:
            weights[index[members[0]]] += 1

    edges = []
    for c in inst.clauses:
        if c.in_p:
            continue
        if satisfied_by_flipping(c, alpha, l1):
            touched = frozenset(index[v] for v, _ in c.req if v in l1)
            if not touched:
                raise StructureError(
                    "clause outside the proposal satisfied by flipping nothing; "
                    "instance was not renormalized"
                )
            edges.append(touched)

    hg = WeightedHypergraph(len(classes), tuple(edges), tuple(weights))
    return FlipClassHypergraph(hg, tuple(frozenset(c) for c in classes))


def solve_satisfiable_p(inst: AndInstance, alpha, ctx: SolveContext) -> tuple:
    """Best flip of alpha found across the coloring family.

    Requires alpha to satisfy the proposed set and the instance to be
    renormalized (proposal == satisfied set of alpha).
    """
    free = sorted(set(range(inst.num_vars)) - {v for v, _ in inst.fixed})
    pos = {v: i for i, v in enumerate(free)}
    relevant_mask = 0
    for c in inst.clauses:
        for v, _ in c.req:
            relevant_mask |= 1 << pos[v]

    r = inst.max_arity()
    budget = min(len(free), max(0, r * inst.k))
    family = build_coloring_family(
        len(free), budget, budget, ctx.mode, ctx.seed, ctx.delta
    )

    base_value = instance_value(inst, alpha)
    best_value = base_value
    best = tuple(alpha)
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
        fch = build_flip_class_hypergraph(inst, alpha, l1)
        ctx.colorings_tried += 1
        if len(fch.hypergraph.hyperedges) == 0:
            continue
        if base_value + len(fch.hypergraph.hyperedges) < best_value:
            continue
        v0, _ = solve_mis_vw(fch.hypergraph)
        cand = list(alpha)
        for ci in v0:
            for v in fch.class_map[ci]:
                cand[v] = 1 - cand[v]
        cand = tuple(cand)
        value = instance_value(inst, cand)
        if value > best_value or (value == best_value and cand < best):
            best_value, best = value, cand
    return best


def branch_solve(inst: AndInstance, ctx: SolveContext, _depth: int = 0) -> tuple:
    """Full solve of a conjunction-family improvement instance.

    On promise-satisfying inputs (in exhaustive mode) the output satisfies
    at least as many clauses as any assignment whose satisfied set is within
    k of the proposal.
    """
    ctx.max_depth = max(ctx.max_depth, _depth)
    if ctx.expired() or inst.k < 0:
        ctx.fallbacks += 1
        return fallback_assignment(inst)
    v = find_branch_variable(inst)
    if v is not None:
        if inst.k == 0:
            ctx.fallbacks += 1
            return fallback_assignment(inst)
        best = None
        best_value = -1
        for a in (0, 1):
            cand = branch_solve(assign_value(inst, v, a), ctx, _depth + 1)
            value = instance_value(inst, cand)
            if value > best_value or (value == best_value and cand < best):
                best_value, best = value, cand
        return best
    alpha = find_assignment_satisfying_p(inst)
    renorm = renormalize(inst, alpha)
    if renorm.k > 2 * inst.k:
        # The proposal-satisfier overshoots the proposal by more than k, so it
        # already beats every assignment whose satisfied set is within k of
        # the proposal; return it rather than an arbitrary fallback.
        ctx.fallbacks += 1
        return alpha
    return solve_satisfiable_p(renorm, alpha, ctx)


def solve_and(
    instance: Instance,
    proposed: ProposedSolution,
    mode: str = "exhaustive",
    seed: int | None = None,
    delta: float = DEFAULT_DELTA,
    deadline=None,
):
    """Library entry point; returns (assignment, SolveContext)."""
    ctx = SolveContext(mode, seed, delta, deadline)
    return branch_solve(and_instance_from(instance, proposed), ctx), ctx
