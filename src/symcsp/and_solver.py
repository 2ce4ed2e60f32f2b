"""Solver for improving a proposed solution over conjunction-family clauses.

Pipeline: branch on variables whose literals conflict inside the proposed
clause set (each branch fixes a value and pays budget for clauses it kills),
until the proposed set is conflict-free; satisfy it outright; renormalize
the proposal to the satisfier's full satisfied set; then search flip sets
around the satisfier.  For each coloring of a separating family that gains
enough non-proposed clauses, the label-1 parts of the proposed clauses
merge into groups, each costing its proposed clauses; each gained clause,
worth 1, needs the groups it meets.  A group sharing no gained clause with
another is kept or dropped by a count, up to six groups sharing them by
the values of all their dead sets, and more by a closure selection.

Clauses, variable sets and assignments are bitmasks over the variables
(bit v stands for variable v) from normalization on; only `solve_and`
turns the answer back into a tuple.

On inputs violating the distance promise the solver still terminates and
returns a deterministic fallback (all zeros on the free variables).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_DELTA, GuardError, Instance, ProposedSolution, SolveContext, StructureError,
)
from .coloring import build_coloring_family
from .flow import closure_assignment

# Each clause's masks are as wide as its highest variable, so normalization
# allocates about this many bits per mask set at most.
CLAUSE_MASK_GUARD_BITS = 1 << 27


@dataclass(frozen=True)
class AndClause:
    """Conjunction clause: the variables in `care` must take the bits of
    `want` (a submask of care)."""

    id: int
    care: int
    want: int
    in_p: bool


@dataclass(frozen=True)
class AndInstance:
    """`fixed` holds the variables branching has set, `fixed_bits` their
    values; no clause mentions a fixed variable."""

    num_vars: int
    clauses: tuple
    k: int
    fixed: int = 0
    fixed_bits: int = 0

    def max_arity(self) -> int:
        return max((c.care.bit_count() for c in self.clauses), default=1)


def and_instance_from(instance: Instance, proposed: ProposedSolution) -> AndInstance:
    """Normalize a conjunction-family CSP instance for the solver."""
    if not instance.is_and_family():
        raise StructureError("solver requires conjunction-family clauses only")
    proposed.validate_against(instance)
    width = sum(max(c.scope) + 1 for c in instance.clauses)
    if width > CLAUSE_MASK_GUARD_BITS:
        raise GuardError(
            f"clause masks of {width} bits exceed guard {CLAUSE_MASK_GUARD_BITS}"
        )
    clauses = []
    for c in instance.clauses:
        # the all-true language wants each literal true, the all-false one false
        positive = int(c.language.counts == frozenset({c.language.arity}))
        care = want = 0
        for v, b in zip(c.scope, c.neg):
            bit = b ^ positive
            if care >> v & 1 and want >> v & 1 != bit:
                raise StructureError(
                    f"clause {c.id}: repeated variable with conflicting literals"
                )
            care |= 1 << v
            want |= bit << v
        clauses.append(AndClause(c.id, care, want, c.id in proposed.clause_ids))
    return AndInstance(instance.num_vars, tuple(clauses), proposed.k)


def assign_value(inst: AndInstance, v: int, a: int) -> AndInstance:
    """Fix v := a; restrict clauses, pay budget for killed proposed clauses
    and for non-proposed clauses that became always-true.  k may go negative."""
    bit = 1 << v
    new_clauses = []
    k = inst.k
    for c in inst.clauses:
        if not c.care & bit:
            new_clauses.append(c)
        elif c.want >> v & 1 != a:
            if c.in_p:
                k -= 1
        elif c.care == bit:
            if not c.in_p:
                k -= 1
        else:
            new_clauses.append(AndClause(c.id, c.care ^ bit, c.want & ~bit, c.in_p))
    return AndInstance(
        inst.num_vars, tuple(new_clauses), k, inst.fixed | bit, inst.fixed_bits | a << v
    )


def _proposed_literals(inst: AndInstance) -> tuple:
    """(ones, zeros): the variables some proposed clause wants at 1, at 0."""
    ones = zeros = 0
    for c in inst.clauses:
        if c.in_p:
            ones |= c.want
            zeros |= c.care ^ c.want
    return ones, zeros


def find_branch_variable(inst: AndInstance):
    """Smallest variable appearing with both polarities in proposed clauses."""
    ones, zeros = _proposed_literals(inst)
    both = ones & zeros
    return (both & -both).bit_length() - 1 if both else None


def find_assignment_satisfying_p(inst: AndInstance) -> int:
    """Assignment satisfying every proposed clause; free variables get 0.

    Precondition (guaranteed after branching): no variable occurs in the
    proposed set with both polarities.  A conflict here is a caller bug.
    """
    ones, zeros = _proposed_literals(inst)
    if ones & zeros:
        raise StructureError("proposed clauses conflict; branch first")
    return inst.fixed_bits | ones


def instance_value(inst: AndInstance, a: int) -> int:
    return sum(1 for c in inst.clauses if a & c.care == c.want)


def renormalize(inst: AndInstance, alpha: int) -> AndInstance:
    """Reset the proposal to the clauses alpha satisfies, growing the budget
    by the symmetric difference.  alpha must satisfy every proposed clause."""
    moved = 0
    new_clauses = []
    for c in inst.clauses:
        s = alpha & c.care == c.want
        if c.in_p and not s:
            raise StructureError("alpha must satisfy the proposed set")
        moved += s != c.in_p
        new_clauses.append(c if s == c.in_p else AndClause(c.id, c.care, c.want, s))
    return AndInstance(
        inst.num_vars, tuple(new_clauses), inst.k + moved, inst.fixed, inst.fixed_bits
    )


class _HalfTable(dict):
    """Outside-clause matches on one half of the relevant variables, each
    entry filled on its first lookup: entry h (a submask of `mask`) is the
    bitset of the outside clauses c with ``h & V_c == N_c & mask``, bit j
    standing for the j-th."""

    __slots__ = ("mask", "rows")

    def __init__(self, mask: int, outside: tuple):
        super().__init__()
        self.mask = mask
        self.rows = [(v & mask, n & mask, 1 << j) for j, (v, n) in enumerate(outside)]

    def __missing__(self, h: int) -> int:
        hits = self[h] = sum([bit for v, n, bit in self.rows if h & v == n])
        return hits


@dataclass(frozen=True)
class FlipTable:
    """A renormalized instance around its satisfier alpha.  For clause c,
    V_c is its variables and N_c = (alpha ^ want) & V_c the variables where
    alpha disagrees with c, so flipping F satisfies c iff ``F & V_c == N_c``.

    That test splits over the two halves of the relevant variables, so the
    outside clauses a flip F (a submask of `relevant`) satisfies are
    ``low[F & low.mask] & high[F & high.mask]``: two lookups in tables
    filled on demand, so building them costs O(min(2^ceil(R/2), flips
    looked up) * |outside|) for R relevant variables.  `nothing` is the
    bitset of the outside clauses with N_c = 0, which a renormalized
    instance has none of.

    `through[b]` is the bitset of the proposed clauses through the variable
    bit b (bit j standing for the j-th), `touching[b]` that of the outside
    clauses whose N_c holds b, and `spanned` the variables of the proposed
    clauses.  `stack` carries the proposed-clause groups from key to key:
    entry i holds the top i set bits of the last key built (restricted to
    `spanned`), their groups as four parallel lists (the variable masks, the
    caps, and the proposed-clause and `touching` bitsets, each the OR over
    the group's bits; a cap is a popcount) and the OR of the clause bitsets.
    It never holds more than R + 1 entries."""

    proposed: tuple  # (V_c, N_c) of every proposed clause
    outside: tuple  # (V_c, N_c) of every other clause
    relevant: int
    low: _HalfTable
    high: _HalfTable
    nothing: int
    through: dict
    touching: dict
    spanned: int
    stack: list


def flip_table(inst: AndInstance, alpha: int) -> FlipTable:
    """The bitmask table of a renormalized instance around alpha."""
    proposed, outside = [], []
    relevant = 0
    for c in inst.clauses:
        relevant |= c.care
        (proposed if c.in_p else outside).append((c.care, (alpha & c.care) ^ c.want))
    high = relevant
    for _ in range((relevant.bit_count() + 1) // 2):
        high &= high - 1  # the low half takes the lowest relevant variable
    outside = tuple(outside)
    nothing = sum(1 << j for j, (_, n) in enumerate(outside) if not n)
    through = _bit_index(v for v, _ in proposed)
    return FlipTable(
        tuple(proposed), outside, relevant,
        _HalfTable(relevant ^ high, outside), _HalfTable(high, outside), nothing,
        through, _bit_index(n for _, n in outside), sum(through), [(0, [], [], [], [], 0)],
    )


def _bit_index(masks) -> dict:
    """Each variable bit b -> the bitset of the j whose j-th mask holds b."""
    index = {}
    for j, mask in enumerate(masks):
        while mask:
            b = mask & -mask
            index[b] = index.get(b, 0) | 1 << j
            mask ^= b
    return index


def build_flip_class_hypergraph(table: FlipTable, key: int, need: int):
    """(groups, caps, meets, hits) for the label-1 set `key` (a submask of
    the relevant variables), or None if it gains fewer than `need` clauses;
    a rejected key costs two table lookups and a popcount.  `hits` is the
    bitset of the key's gained clauses; `groups` are the label-1 parts of
    the proposed clauses merged where they meet (disjoint), `caps[i]` the
    proposed clauses in group i and `meets[i]` the gained clauses whose N_c
    meets it.  Loose bits, outside every group, touch no proposed clause.

    The groups are carried over from the last key built (union-find with
    rollback, Westbrook-Tarjan 1989): the table's stack keeps the entries
    of the high bits the two keys share and pushes one merge per remaining
    bit, from high to low: the bit fuses with every group whose proposed
    clauses pass through it, ORing their `touching` bitsets, and when no
    group's do, it opens a group of its own without scanning them."""
    low, high = table.low, table.high
    hits = low[key & low.mask] & high[key & high.mask]
    if hits & table.nothing:
        raise StructureError(
            "clause outside the proposal satisfied by flipping nothing; "
            "instance was not renormalized"
        )
    if hits.bit_count() < need:
        return None
    stack = table.stack
    key &= table.spanned
    entry = stack[-1]
    if key != entry[0]:
        top = (key ^ entry[0]).bit_length()  # the bits from `top` up are shared
        del stack[(entry[0] >> top).bit_count() + 1:]
        prefix, groups, caps, clauses, touches, covered = stack[-1]
        rest = key & ((1 << top) - 1)
        through, touching = table.through, table.touching
        while rest:
            bit = 1 << (rest.bit_length() - 1)
            rest ^= bit
            prefix |= bit
            meets = through[bit]
            part, joined, touch = bit, meets, touching.get(bit, 0)
            if meets & covered:
                kept, kept_caps, kept_clauses, kept_touches = [], [], [], []
                for g, n, c, t in zip(groups, caps, clauses, touches):
                    if c & meets:
                        part |= g
                        joined |= c
                        touch |= t
                    else:
                        kept.append(g)
                        kept_caps.append(n)
                        kept_clauses.append(c)
                        kept_touches.append(t)
                groups, caps, clauses, touches = kept, kept_caps, kept_clauses, kept_touches
            else:  # no group to merge: copy the lists, as the new entry's own
                groups, caps, clauses, touches = groups[:], caps[:], clauses[:], touches[:]
            groups.append(part)
            caps.append(joined.bit_count())
            clauses.append(joined)
            touches.append(touch)
            covered |= meets
            stack.append((prefix, groups, caps, clauses, touches, covered))
        entry = stack[-1]
    return entry[1], entry[2], [t & hits for t in entry[4]], hits


def select_flip(table: FlipTable, key: int, sub) -> tuple:
    """(flip, lost) for the subproblem `sub` of `key`: the dead groups plus
    the N_c of the reached gained clauses (met by no live group), and the
    proposed clauses of the dead groups.  The dead groups are those in
    every optimum (the optima form a lattice, Picard-Queyranne 1980), and
    they split over the parts of the clause-group incidence: a solo group,
    meeting no gained clause another group meets, is dead iff it meets more
    than its cap (a tie stays alive).  Of up to six tied groups, the dead
    are those in every set d of them of the largest value (the empty set's
    is 0): the gained clauses meeting d and no other tied group, less the
    caps in d.  More tied groups go to `closure_assignment`."""
    groups, caps, meets, hits = sub
    seen = shared = 0
    for m in meets:
        shared |= seen & m
        seen |= m
    dead = ()
    if shared:
        tied = [i for i, m in enumerate(meets) if m & shared]
        if len(tied) <= 6:
            ors, cost = [0], [0]  # per dead set d (bit t for tied[t]): OR of meets, sum of caps
            for i in tied:
                m, c = meets[i], caps[i]
                for d in range(len(ors)):
                    ors.append(ors[d] | m)
                    cost.append(cost[d] + c)
            top = both = 0  # the best value so far, and the AND of its dead sets
            for d, c in enumerate(cost):
                value = (ors[d] & ~ors[-1 - d]).bit_count() - c
                if value == top:
                    both &= d
                elif value > top:
                    top, both = value, d
            dead = [i for t, i in enumerate(tied) if both >> t & 1]
        else:
            rest = seen ^ sum(m for m in meets if not m & shared)
            edges = [[t for t, i in enumerate(tied) if meets[i] >> c & 1]
                     for c in range(rest.bit_length()) if rest >> c & 1]
            dead = {tied[t] for t in closure_assignment([caps[i] for i in tied], edges)[0]}
    flip = lost = live = 0
    for i, m in enumerate(meets):
        if i in dead if m & shared else m.bit_count() > caps[i]:
            flip |= groups[i]
            lost += caps[i]
        else:
            live |= m
    reached = hits & ~live
    while reached:
        bit = reached & -reached
        reached ^= bit
        flip |= table.outside[bit.bit_length() - 1][1]
    return flip, lost


def _coloring_keys(family, relevant: int, fixed: int, ctx: SolveContext):
    """Label-1 sets restricted to the relevant variables, each once, in the
    order the family first shows them; the empty coloring is skipped.
    Family bit i stands for the i-th variable outside `fixed`, or for the
    i-th relevant variable when the solve sized the family by them.  The
    deadline is polled before every coloring, a repeated random draw too,
    and not at all without one."""
    poll = ctx.deadline is not None
    if family.mode == "exhaustive":
        # either way bit i maps to a variable in ascending order and the
        # first mask of range(2^n) with a given key is the key itself, so the
        # keys are the submasks of `relevant` in ascending order
        sub = relevant & -relevant
        while sub:
            if poll and ctx.expired():
                return
            yield sub
            sub = (sub - relevant) & relevant
        return
    bits = []  # (family bit, variable bit) of each relevant variable
    rest = relevant
    while rest:
        low = rest & -rest
        # its family bit counts the unfixed variables below it
        bits.append((1 << ((low - 1) & ~fixed).bit_count(), low))
        rest ^= low
    relevant_bits = sum(b for b, _ in bits)
    seen = set()
    for mask in family.colorings:
        if poll and ctx.expired():
            return
        key = mask & relevant_bits
        if key not in seen:
            seen.add(key)
            if mask:
                yield sum(vb for b, vb in bits if key & b)


def _precedes(a: int, b: int) -> bool:
    """a < b as tuples of bits in variable order: at the lowest bit where
    they differ, b has the 1."""
    d = a ^ b
    return bool(b & d & -d)


def solve_satisfiable_p(inst: AndInstance, alpha: int, ctx: SolveContext) -> int:
    """Best flip of alpha found across the coloring family.

    The family is sized by the variables its keys range over: in exhaustive
    mode the relevant variables (the walk visits only their submasks), in
    random mode every free variable (each random mask spans them all).  So
    the exhaustive cap bounds the keys actually walked, and it fires before
    the first one.

    Every key is walked and counted in `colorings_tried`; one that gains
    fewer than max(1, best improvement so far) clauses is rejected by two
    lookups in the table's half tables, and only the rest run a selection.
    The walk ends early once the deadline has passed.

    Requires alpha to satisfy the proposed set and the instance to be
    renormalized (proposal == satisfied set of alpha).
    """
    table = flip_table(inst, alpha)
    if ctx.mode == "exhaustive":
        n = table.relevant.bit_count()
    else:
        n = inst.num_vars - inst.fixed.bit_count()
    budget = min(n, max(0, inst.max_arity() * inst.k))
    family = build_coloring_family(n, budget, budget, ctx.mode, ctx.seed, ctx.delta)

    # renormalized: alpha satisfies exactly the proposed clauses
    base_value = len(table.proposed)
    low, high = table.low, table.high
    best_value = base_value
    best = alpha
    need = 1  # a key must gain at least max(1, best_value - base_value)
    tried = 0
    for tried, key in enumerate(_coloring_keys(family, table.relevant, inst.fixed, ctx), 1):
        sub = build_flip_class_hypergraph(table, key, need)
        if sub is None:
            continue
        flip, lost = select_flip(table, key, sub)
        # flip is within key; the half tables give the clauses it satisfies
        value = base_value - lost + (low[flip & low.mask] & high[flip & high.mask]).bit_count()
        if value < best_value:
            continue
        cand = alpha ^ flip
        if value > best_value:
            best_value, best = value, cand
            need = max(1, value - base_value)
        elif _precedes(cand, best):
            best = cand
    ctx.colorings_tried += tried
    return best


def branch_solve(inst: AndInstance, ctx: SolveContext, _depth: int = 0) -> int:
    """Full solve of a conjunction-family improvement instance.

    On promise-satisfying inputs (in exhaustive mode) the output satisfies
    at least as many clauses as any assignment whose satisfied set is within
    k of the proposal.
    """
    ctx.max_depth = max(ctx.max_depth, _depth)
    if ctx.expired() or inst.k < 0:
        ctx.fallbacks += 1
        return inst.fixed_bits
    v = find_branch_variable(inst)
    if v is not None:
        if inst.k == 0:
            ctx.fallbacks += 1
            return inst.fixed_bits
        best = None
        best_value = -1
        for a in (0, 1):
            cand = branch_solve(assign_value(inst, v, a), ctx, _depth + 1)
            value = instance_value(inst, cand)
            if value > best_value or (value == best_value and _precedes(cand, best)):
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
    bits = branch_solve(and_instance_from(instance, proposed), ctx)
    n = instance.num_vars
    # the binary digits, lowest bit (variable 0) first; [:n] drops the "0"
    # that formatting 0 leaves when n == 0
    return tuple(map(int, f"{bits:0{n}b}"[::-1][:n])), ctx
