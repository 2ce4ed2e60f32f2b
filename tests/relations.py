"""Test helper: the generic relation-theoretic reference for the classifier.

`symcsp.classifier.classify` is a closed-form table over the canonical count
set.  These checks derive the same answers from the truth tables: the
minimum-cost test is bijunctive with a 2K2-free Gaifman graph, or
implicative-hitting-set bounded with a 2K2-free arrow graph, language-wide
(the Boolean MinCSP dichotomy of Kim, Kratsch, Pilipczuk and Wahlström,
SODA 2023).  The test suite compares the two on every count set of arity
1..6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from symcsp.core import StructureError


@dataclass(frozen=True)
class RelationTable:
    """Explicit truth table of a Boolean relation."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity:
                raise StructureError("tuple length must equal arity")


def sym_relation(r: int, counts, b=None) -> RelationTable:
    """Truth table of the count relation shifted by negation vector b."""
    counts = frozenset(counts)
    if b is None:
        b = (0,) * r
    rows = []
    for t in product((0, 1), repeat=r):
        if sum(x ^ y for x, y in zip(t, b)) in counts:
            rows.append(t)
    return RelationTable(r, frozenset(rows))


def shift_relation(rel: RelationTable, b) -> RelationTable:
    return RelationTable(
        rel.arity, frozenset(tuple(x ^ y for x, y in zip(t, b)) for t in rel.tuples)
    )


def language_members(r: int, counts) -> frozenset:
    """All negation-shifted copies, as a set of truth tables."""
    base = sym_relation(r, counts)
    return frozenset(
        shift_relation(base, b).tuples for b in product((0, 1), repeat=r)
    )


def gaifman_graph(rel: RelationTable) -> frozenset:
    """Undirected edges {i, j} where some value pair (a_i, a_j) never occurs."""
    r = rel.arity
    edges = set()
    for i, j in combinations(range(r), 2):
        seen = {(t[i], t[j]) for t in rel.tuples}
        if len(seen) < 4:
            edges.add(frozenset((i, j)))
    return frozenset(edges)


def arrow_graph(rel: RelationTable) -> frozenset:
    """Directed edges i->j: (1,0) never occurs but (0,0) and (1,1) both do."""
    r = rel.arity
    edges = set()
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            pairs = {(t[i], t[j]) for t in rel.tuples}
            if (1, 0) not in pairs and (0, 0) in pairs and (1, 1) in pairs:
                edges.add((i, j))
    return frozenset(edges)


def _undirected(edges) -> frozenset:
    out = set()
    for e in edges:
        if isinstance(e, frozenset):
            out.add(e)
        else:
            i, j = e
            out.add(frozenset((i, j)))
    return frozenset(out)


def is_2k2_free(num_vertices: int, edges) -> bool:
    """No 4 vertices may induce exactly two disjoint edges."""
    und = _undirected(edges)
    for quad in combinations(range(num_vertices), 4):
        induced = [e for e in und if set(e) <= set(quad)]
        if len(induced) == 2:
            e1, e2 = induced
            if not (e1 & e2):
                return False
    return True


def graphs_isomorphic(n: int, edges_a, edges_b) -> bool:
    ea, eb = _undirected(edges_a), _undirected(edges_b)
    if len(ea) != len(eb):
        return False
    for perm in permutations(range(n)):
        if frozenset(frozenset(perm[v] for v in e) for e in ea) == eb:
            return True
    return False


def is_bijunctive(rel: RelationTable) -> bool:
    """2-decomposability: the relation equals the conjunction of all its
    pairwise (and unary) projections."""
    r = rel.arity
    if not rel.tuples:
        return True
    if r == 1:
        return True
    pair_proj = {}
    for i, j in combinations(range(r), 2):
        pair_proj[(i, j)] = {(t[i], t[j]) for t in rel.tuples}
    candidates = set()
    for t in product((0, 1), repeat=r):
        if all((t[i], t[j]) in pair_proj[(i, j)] for i, j in combinations(range(r), 2)):
            candidates.add(t)
    return candidates == set(rel.tuples)


def _ihsb_atoms(r: int, sign: str):
    """Atomic constraints of the implicative-hitting-set family at arity r.

    Minus: negative clauses of any width, positive unit clauses, implications.
    Plus is the dual.  Each atom is returned as a predicate on tuples.
    """
    atoms = []
    wide_value = 0 if sign == "minus" else 1
    unit_value = 1 if sign == "minus" else 0
    for width in range(1, r + 1):
        for subset in combinations(range(r), width):
            atoms.append(
                ("clause", subset, lambda t, s=subset, w=wide_value: any(t[i] == w for i in s))
            )
    for i in range(r):
        atoms.append(("unit", (i,), lambda t, i=i, u=unit_value: t[i] == u))
    for i in range(r):
        for j in range(r):
            if i != j:
                atoms.append(
                    ("impl", (i, j), lambda t, i=i, j=j: not (t[i] == 1 and t[j] == 0))
                )
    return atoms


def is_ihsb(rel: RelationTable, sign: str) -> bool:
    """Definability by the implicative-hitting-set clause family (closure test):
    conjoin every atom satisfied by all tuples and compare solution sets."""
    if sign not in ("plus", "minus"):
        raise StructureError("sign must be 'plus' or 'minus'")
    r = rel.arity
    implied = [
        pred
        for _, _, pred in _ihsb_atoms(r, sign)
        if all(pred(t) for t in rel.tuples)
    ]
    candidates = {
        t for t in product((0, 1), repeat=r) if all(pred(t) for pred in implied)
    }
    return candidates == set(rel.tuples)


def language_bijunctive(r: int, counts) -> bool:
    return all(
        is_bijunctive(RelationTable(r, tuples)) for tuples in language_members(r, counts)
    )


def language_ihsb(r: int, counts) -> bool:
    members = [RelationTable(r, tuples) for tuples in language_members(r, counts)]
    return all(is_ihsb(m, "minus") for m in members) or all(
        is_ihsb(m, "plus") for m in members
    )


def mincsp_fpt_generic(r: int, counts) -> bool:
    """Generic minimum-cost tractability test: (bijunctive and Gaifman
    2K2-free) or (implicative family and arrow 2K2-free), language-wide."""
    members = language_members(r, counts)
    if language_bijunctive(r, counts):
        if all(
            is_2k2_free(r, gaifman_graph(RelationTable(r, t))) for t in members
        ):
            return True
    if language_ihsb(r, counts):
        if all(is_2k2_free(r, arrow_graph(RelationTable(r, t))) for t in members):
            return True
    return False
