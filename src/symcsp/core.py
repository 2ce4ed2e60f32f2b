"""Domain model for symmetric Boolean CSPs with negation patterns.

A symmetric relation of arity ``r`` accepts a tuple iff its number of ones
lies in an accepted-count set ``S``.  A clause applies such a relation to a
variable scope through a negation bit vector ``b``: the clause is satisfied
by assignment ``a`` iff ``sum_i(a[scope_i] XOR b_i)`` lies in ``S``.

Instances carry an ordered clause multiset with stable positional ids; a
proposed solution is a set of clause ids plus a budget ``k`` measured in
symmetric difference of satisfied-clause sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

Assignment = tuple | list  # bit vector indexed by variable


class SymCSPError(Exception):
    pass


class StructureError(SymCSPError):
    """Malformed domain objects: bad scopes, arity mismatches, bad S."""


class SchemaError(SymCSPError):
    """Malformed JSON input."""


class GuardError(SymCSPError):
    """Size/capacity guard tripped."""


class VerificationError(SymCSPError):
    """A solver-vs-oracle or decoder validation mismatch."""


def _char_vector(r: int, counts: Iterable[int]) -> tuple:
    s = set(counts)
    return tuple(1 if i in s else 0 for i in range(r + 1))


@dataclass(frozen=True)
class SymmetricLanguage:
    """Accepted-count relation family: arity ``arity``, count set ``counts``.

    The language it generates contains all negation-shifted copies of the
    relation, so ``counts`` and its reflection ``{arity - x}`` generate the
    same family.
    """

    arity: int
    counts: frozenset

    def __post_init__(self):
        if self.arity < 1:
            raise StructureError(f"arity must be >= 1, got {self.arity}")
        if not isinstance(self.counts, frozenset):
            object.__setattr__(self, "counts", frozenset(self.counts))
        bad = [x for x in self.counts if not (0 <= x <= self.arity)]
        if bad:
            raise StructureError(f"counts {bad} outside 0..{self.arity}")

    def trivial(self) -> bool:
        return len(self.counts) == 0 or len(self.counts) == self.arity + 1

    def reflected_counts(self) -> frozenset:
        return frozenset(self.arity - x for x in self.counts)

    def is_and_family(self) -> bool:
        return self.counts == frozenset({0}) or self.counts == frozenset({self.arity})

    def is_ae_family(self) -> bool:
        return self.counts == frozenset({0, self.arity})


def normalize_language(r: int, counts: Iterable[int]) -> SymmetricLanguage:
    """Canonical representative of the pair {S, {r-x | x in S}}.

    The representative is the set whose characteristic vector over 0..r is
    lexicographically smallest; both generate the same negation-closed
    language.
    """
    s = frozenset(counts)
    lang = SymmetricLanguage(r, s)
    refl = lang.reflected_counts()
    if _char_vector(r, refl) < _char_vector(r, s):
        return SymmetricLanguage(r, refl)
    return lang


def and_language(arity: int) -> SymmetricLanguage:
    """AND family of the given arity; neg bit 1 marks a negated literal."""
    return SymmetricLanguage(arity, frozenset({arity}))


def ae_language(arity: int) -> SymmetricLanguage:
    return SymmetricLanguage(arity, frozenset({0, arity}))


def sat_language(arity: int) -> SymmetricLanguage:
    return SymmetricLanguage(arity, frozenset(range(1, arity + 1)))


def le1_language(arity: int) -> SymmetricLanguage:
    """At-most-one-false-literal family."""
    return SymmetricLanguage(arity, frozenset({arity - 1, arity}))


@dataclass(frozen=True)
class Clause:
    """One constraint: relation ``language`` shifted by ``neg`` on ``scope``.

    Ids are unique within an instance; parallel copies get distinct ids and
    proposed-solution membership is tracked by id.
    """

    id: int
    neg: tuple
    scope: tuple
    language: SymmetricLanguage

    def __post_init__(self):
        if len(self.neg) != len(self.scope) or len(self.neg) != self.language.arity:
            raise StructureError(
                f"clause {self.id}: neg/scope length must equal arity "
                f"{self.language.arity}"
            )
        if any(b not in (0, 1) for b in self.neg):
            raise StructureError(f"clause {self.id}: neg must be bits")


@dataclass(frozen=True)
class Instance:
    """Variable count plus an ordered clause multiset with unique ids."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        seen = set()
        for c in self.clauses:
            if c.id in seen:
                raise StructureError(f"duplicate clause id {c.id}")
            seen.add(c.id)
            for v in c.scope:
                if not (0 <= v < self.num_vars):
                    raise StructureError(
                        f"clause {c.id}: scope var {v} out of range 0..{self.num_vars - 1}"
                    )

    @property
    def size(self) -> int:
        return max(self.num_vars, len(self.clauses))

    def homogeneous_language(self):
        """The shared language if all clauses agree, else None."""
        langs = {c.language for c in self.clauses}
        if len(langs) == 1:
            return next(iter(langs))
        return None

    def is_and_family(self) -> bool:
        return all(c.language.is_and_family() for c in self.clauses)

    def is_ae_family(self) -> bool:
        return all(c.language.is_ae_family() for c in self.clauses)


@dataclass(frozen=True)
class ProposedSolution:
    """Proposed satisfied-clause id set plus improvement budget k."""

    clause_ids: frozenset
    k: int

    def __post_init__(self):
        if not isinstance(self.clause_ids, frozenset):
            object.__setattr__(self, "clause_ids", frozenset(self.clause_ids))
        if self.k < 0:
            raise StructureError("k must be nonnegative at construction")

    def validate_against(self, instance: Instance) -> None:
        ids = {c.id for c in instance.clauses}
        extra = self.clause_ids - ids
        if extra:
            raise StructureError(f"proposed ids not in instance: {sorted(extra)}")


def eval_clause(clause: Clause, lang: SymmetricLanguage, a: Assignment) -> bool:
    """True iff sum_i(a[scope_i] XOR neg_i) lies in the accepted counts."""
    total = 0
    for v, b in zip(clause.scope, clause.neg):
        try:
            total += a[v] ^ b
        except IndexError:
            raise StructureError(f"clause {clause.id}: scope var {v} out of range")
    return total in lang.counts


def satisfied_set(instance: Instance, a: Assignment) -> frozenset:
    return frozenset(
        c.id for c in instance.clauses if eval_clause(c, c.language, a)
    )


def cost(instance: Instance, a: Assignment) -> int:
    return len(instance.clauses) - len(satisfied_set(instance, a))


def neighborhood_distance(a_ids: Iterable, b_ids: Iterable) -> int:
    return len(frozenset(a_ids) ^ frozenset(b_ids))


def is_good(instance: Instance, a: Assignment, reference_value: int) -> bool:
    return len(satisfied_set(instance, a)) >= reference_value


# ---------------------------------------------------------------------------
# JSON instance schema.
#
#   {"mode": "sym"|"and"|"multi", "r": int, "S": [ints], "num_vars": int,
#    "k": int, "clauses": [{"neg": [...], "scope": [...], "in_P": bool,
#                           "S": [...]  # multi mode only
#                          }]}
#
# Clause id = array position.  "sym" is homogeneous in (r, S); "and" gives
# per-clause AND relations of arity len(scope); "multi" carries a per-clause
# count set (needed for mixed-arity all-equal instances emitted by the
# hardness reductions).
# ---------------------------------------------------------------------------


def instance_from_json(obj) -> tuple:
    """Parse the instance schema; returns (Instance, ProposedSolution)."""
    if not isinstance(obj, dict):
        raise SchemaError("instance JSON must be an object")
    try:
        mode = obj["mode"]
        num_vars = int(obj["num_vars"])
        k = int(obj["k"])
        raw_clauses = obj["clauses"]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad instance object: {e}")
    if mode not in ("sym", "and", "multi"):
        raise SchemaError(f"unknown mode {mode!r}")
    if k < 0:
        raise SchemaError("k must be nonnegative")

    lang = None
    if mode == "sym":
        try:
            lang = SymmetricLanguage(int(obj["r"]), frozenset(int(x) for x in obj["S"]))
        except (KeyError, TypeError, ValueError, StructureError) as e:
            raise SchemaError(f"bad (r, S): {e}")

    clauses = []
    p_ids = set()
    for i, rc in enumerate(raw_clauses):
        try:
            neg = tuple(int(x) for x in rc["neg"])
            scope = tuple(int(x) for x in rc["scope"])
            in_p = bool(rc["in_P"])
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad clause {i}: {e}")
        if mode == "sym":
            clang = lang
        elif mode == "and":
            clang = and_language(len(scope))
        else:
            try:
                clang = SymmetricLanguage(
                    len(scope), frozenset(int(x) for x in rc["S"])
                )
            except (KeyError, TypeError, ValueError, StructureError) as e:
                raise SchemaError(f"bad clause {i} count set: {e}")
        try:
            clauses.append(Clause(i, neg, scope, clang))
        except StructureError as e:
            raise SchemaError(str(e))
        if in_p:
            p_ids.add(i)

    try:
        inst = Instance(num_vars, tuple(clauses))
    except StructureError as e:
        raise SchemaError(str(e))
    return inst, ProposedSolution(frozenset(p_ids), k)


def instance_to_json(instance: Instance, proposed: ProposedSolution) -> dict:
    langs = {c.language for c in instance.clauses}
    if len(langs) == 1:
        lang = next(iter(langs))
        mode = "sym"
    elif instance.is_and_family():
        mode = "and"
        lang = None
    else:
        mode = "multi"
        lang = None

    out = {"mode": mode, "num_vars": instance.num_vars, "k": proposed.k}
    if mode == "sym":
        out["r"] = lang.arity
        out["S"] = sorted(lang.counts)
    rows = []
    for c in instance.clauses:
        row = {
            "neg": list(c.neg),
            "scope": list(c.scope),
            "in_P": c.id in proposed.clause_ids,
        }
        if mode == "multi":
            row["S"] = sorted(c.language.counts)
        rows.append(row)
    out["clauses"] = rows
    return out


def dumps_canonical(obj) -> str:
    """Deterministic JSON used by the CLI: sorted keys, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": ")) + "\n"


class DisjointSets:
    """Union-find over comparable elements, with path halving.

    The root of every set is its smallest member, so ``find`` names a set by
    its minimum and ``groups`` lists the sets in order of smallest member.
    Solvers rely on that order for deterministic output.
    """

    def __init__(self, elements: Iterable = ()):
        self._parent = {x: x for x in elements}

    def find(self, x):
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self._parent[max(rx, ry)] = min(rx, ry)

    def groups(self) -> list:
        """Every set as a sorted list, in order of smallest member."""
        out = {}
        for x in sorted(self._parent):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


class Deadline:
    """Cooperative time limit; solvers poll it in their outer loops."""

    def __init__(self, limit_ms: float | None):
        import time

        self._clock = time.monotonic
        self._expires = None if limit_ms is None else self._clock() + limit_ms / 1000.0

    def expired(self) -> bool:
        return self._expires is not None and self._clock() >= self._expires

