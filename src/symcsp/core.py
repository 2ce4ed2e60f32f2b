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
DEFAULT_DELTA = 2.0 ** -20  # failure probability of a Monte-Carlo coloring family


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
    language.  The two vectors first differ at min(S ^ R), so S's vector is
    the larger one exactly when that count lies in S: O(|S|), not O(r).
    """
    lang = SymmetricLanguage(r, frozenset(counts))
    refl = lang.reflected_counts()
    differ = lang.counts ^ refl
    if differ and min(differ) in lang.counts:
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
        if self.num_vars < 0:
            raise StructureError(f"num_vars must be nonnegative, got {self.num_vars}")
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


def require_ints(xs) -> None:
    """Raise TypeError at the first item of the iterable `xs` that is not a
    JSON integer: a bool, float or string is not truncated or converted."""
    for x in xs:
        if type(x) is not int:
            raise TypeError(f"{x!r} is not an integer")


def json_int(x) -> int:
    """`x`, checked by `require_ints`."""
    require_ints((x,))
    return x


def json_bool(x) -> bool:
    """`x` if it is a JSON boolean; any other value raises TypeError."""
    if type(x) is not bool:
        raise TypeError(f"{x!r} is not a boolean")
    return x


def json_ints(xs) -> tuple:
    """The items of the JSON list `xs` as a tuple, checked by `require_ints`."""
    xs = tuple(xs)
    require_ints(xs)
    return xs


def instance_from_json(obj) -> tuple:
    """Parse the instance schema; returns (Instance, ProposedSolution)."""
    if not isinstance(obj, dict):
        raise SchemaError("instance JSON must be an object")
    try:
        mode = obj["mode"]
        num_vars = json_int(obj["num_vars"])
        k = json_int(obj["k"])
        raw_clauses = obj["clauses"]
        if type(raw_clauses) is not list:
            raise TypeError(f"clauses {raw_clauses!r} is not a list")
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad instance object: {e}")
    if mode not in ("sym", "and", "multi"):
        raise SchemaError(f"unknown mode {mode!r}")
    if k < 0:
        raise SchemaError("k must be nonnegative")

    lang = None
    if mode == "sym":
        try:
            lang = SymmetricLanguage(json_int(obj["r"]), frozenset(json_ints(obj["S"])))
        except (KeyError, TypeError, ValueError, StructureError) as e:
            raise SchemaError(f"bad (r, S): {e}")

    clauses = []
    p_ids = set()
    for i, rc in enumerate(raw_clauses):
        try:
            neg = json_ints(rc["neg"])
            scope = json_ints(rc["scope"])
            in_p = json_bool(rc["in_P"])
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad clause {i}: {e}")
        if mode == "sym":
            clang = lang
        elif mode == "and":
            clang = and_language(len(scope))
        else:
            try:
                clang = SymmetricLanguage(len(scope), frozenset(json_ints(rc["S"])))
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
        # the smaller root stays; with one root this sets its own parent again
        if rx < ry:
            self._parent[ry] = rx
        else:
            self._parent[rx] = ry

    def groups(self) -> list:
        """Every set as a sorted list, in order of smallest member."""
        out = {}
        for x in sorted(self._parent):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


class Deadline:
    """Cooperative time limit; solvers poll it through SolveContext.expired."""

    def __init__(self, limit_ms: float | None):
        import time

        self._clock = time.monotonic
        self._expires = None if limit_ms is None else self._clock() + limit_ms / 1000.0

    def expired(self) -> bool:
        return self._expires is not None and self._clock() >= self._expires


@dataclass
class SolveContext:
    """Settings and counters of one solve, shared by both pipelines.

    ``mode``, ``seed`` (None means 0) and ``delta`` select the AND flip
    search's coloring families; the exact cut pipeline takes none of them,
    and ``cut_improve`` only records the ``mode`` it is given.
    ``expired`` is the one deadline poll.
    """

    mode: str = "exhaustive"
    seed: int | None = 0
    delta: float = DEFAULT_DELTA
    deadline: Deadline | None = None
    colorings_tried: int = 0
    fallbacks: int = 0
    max_depth: int = 0
    recurse_steps: int = 0
    kq_cuts_found: int = 0
    no_cut_solves: int = 0
    timed_out: bool = False

    def __post_init__(self):
        if self.seed is None:
            self.seed = 0

    def expired(self) -> bool:
        """Poll the deadline; once it has passed, the solve is timed out."""
        if self.deadline is not None and self.deadline.expired():
            self.timed_out = True
        return self.timed_out

    def add(self, other: SolveContext) -> None:
        """Fold in the counters of a solve on another component."""
        for name in ("colorings_tried", "fallbacks", "recurse_steps",
                     "kq_cuts_found", "no_cut_solves"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_depth = max(self.max_depth, other.max_depth)
        self.timed_out = self.timed_out or other.timed_out
