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
    DEFAULT_DELTA, Instance, ProposedSolution, SolveContext, StructureError,
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


@dataclass(frozen=True)
class FlipTable:
    """A renormalized instance and its satisfier alpha as bitmasks over the
    free variables: bit i stands for ``free[i]``.  For clause c, V_c holds
    the bits of its variables and N_c the bits where alpha disagrees with c,
    so flipping the bits of F satisfies c iff ``F & V_c == N_c``."""

    free: tuple
    alpha: tuple
    proposed: tuple  # (V_c, N_c) of every proposed clause
    outside: tuple  # (V_c, N_c) of every other clause
    relevant: int

    def value(self, flip: int) -> int:
        """instance_value of alpha with the bits of flip flipped."""
        return sum(1 for v, n in self.proposed if flip & v == n) + sum(
            1 for v, n in self.outside if flip & v == n
        )

    def flipped(self, flip: int) -> tuple:
        out = list(self.alpha)
        for i, v in enumerate(self.free):
            if (flip >> i) & 1:
                out[v] = 1 - out[v]
        return tuple(out)


def flip_table(inst: AndInstance, alpha) -> FlipTable:
    """The bitmask table of a renormalized instance around alpha."""
    fixed = {v for v, _ in inst.fixed}
    free = tuple(v for v in range(inst.num_vars) if v not in fixed)
    pos = {v: i for i, v in enumerate(free)}
    proposed, outside = [], []
    relevant = 0
    for c in inst.clauses:
        vbits = nbits = 0
        for v, bit in c.req:
            vbits |= 1 << pos[v]
            if alpha[v] != bit:
                nbits |= 1 << pos[v]
        relevant |= vbits
        (proposed if c.in_p else outside).append((vbits, nbits))
    return FlipTable(free, tuple(alpha), tuple(proposed), tuple(outside), relevant)


def build_flip_class_hypergraph(table: FlipTable, key: int) -> tuple:
    """(hypergraph, classes): the selection subproblem for the coloring whose
    label-1 bits are `key`.  The classes partition the label-1 variables:
    the merged label-1 parts of the proposed clauses plus singletons, each a
    bitmask over the table's free variables, in order of lowest bit.  Class
    weights count incident proposed clauses; hyperedges are the non-proposed
    clauses a full label-1 flip would satisfy."""
    groups = []  # (class mask, weight), masks pairwise disjoint
    for vbits, _ in table.proposed:
        part = vbits & key
        if not part:
            continue
        weight, rest = 1, []
        for mask, w in groups:
            if mask & part:
                part |= mask
                weight += w
            else:
                rest.append((mask, w))
        rest.append((part, weight))
        groups = rest
    loose = key
    for mask, _ in groups:
        loose &= ~mask
    while loose:
        low = loose & -loose
        groups.append((low, 0))
        loose ^= low
    groups.sort(key=lambda g: g[0] & -g[0])
    classes = tuple(mask for mask, _ in groups)

    edges = []
    for vbits, nbits in table.outside:
        if key & vbits != nbits:
            continue
        if not nbits:
            raise StructureError(
                "clause outside the proposal satisfied by flipping nothing; "
                "instance was not renormalized"
            )
        edges.append(frozenset(i for i, cls in enumerate(classes) if cls & nbits))

    hg = WeightedHypergraph(len(classes), tuple(edges), tuple(w for _, w in groups))
    return hg, classes


def _coloring_keys(family, relevant: int):
    """Label-1 sets restricted to the relevant bits, each once, in the order
    the family first shows them; the empty coloring is skipped."""
    if family.mode == "exhaustive":
        # the first mask of range(2^n) with a given key is the key itself,
        # so the keys are the submasks of `relevant` in ascending order
        sub = relevant & -relevant
        while sub:
            yield sub
            sub = (sub - relevant) & relevant
        return
    seen = set()
    for mask in family.colorings:
        key = mask & relevant
        if key not in seen:
            seen.add(key)
            if mask:
                yield key


def solve_satisfiable_p(inst: AndInstance, alpha, ctx: SolveContext) -> tuple:
    """Best flip of alpha found across the coloring family.

    Requires alpha to satisfy the proposed set and the instance to be
    renormalized (proposal == satisfied set of alpha).
    """
    table = flip_table(inst, alpha)
    r = inst.max_arity()
    budget = min(len(table.free), max(0, r * inst.k))
    family = build_coloring_family(
        len(table.free), budget, budget, ctx.mode, ctx.seed, ctx.delta
    )

    base_value = table.value(0)
    best_value = base_value
    best = table.alpha
    poll = ctx.deadline is not None
    for key in _coloring_keys(family, table.relevant):
        if poll and ctx.expired():
            break
        hg, classes = build_flip_class_hypergraph(table, key)
        ctx.colorings_tried += 1
        if not hg.hyperedges or base_value + len(hg.hyperedges) < best_value:
            continue
        v0, _ = solve_mis_vw(hg)
        flip = 0
        for ci in v0:
            flip |= classes[ci]
        value = table.value(flip)
        if value < best_value:
            continue
        cand = table.flipped(flip)
        if value > best_value or cand < best:
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
