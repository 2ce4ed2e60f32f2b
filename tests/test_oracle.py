import random
import time
import tracemalloc
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcsp import oracle
from symcsp.core import (
    Clause,
    GuardError,
    Instance,
    SymmetricLanguage,
    VerificationError,
    and_language,
    sat_language,
    satisfied_set,
)
from symcsp.flow import WeightedHypergraph
from symcsp.oracle import (
    IMPROVE_GUARD_VARS,
    OracleReport,
    brute_force_cut,
    brute_force_improve,
    brute_force_misvw,
)

from oracle_helpers import brute_force_mincsp, neighborhood_optima

EQ2 = SymmetricLanguage(2, frozenset({0, 2}))
NE2 = SymmetricLanguage(2, frozenset({1}))


def random_instance(rng, max_vars=6, max_clauses=8):
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for i in range(m):
        r = rng.randint(1, min(3, n))
        scope = tuple(rng.sample(range(n), r))
        neg = tuple(rng.randint(0, 1) for _ in range(r))
        counts = frozenset(
            x for x in range(r + 1) if rng.random() < 0.5
        ) or frozenset({rng.randint(0, r)})
        clauses.append(Clause(i, neg, scope, SymmetricLanguage(r, counts)))
    return Instance(n, tuple(clauses))


def test_empty_instance():
    rep = brute_force_improve(Instance(1, ()), 0, frozenset())
    assert rep.global_value == 0 and rep.promise_holds
    assert rep.neighborhood_value == 0


def test_single_positive_unit():
    inst = Instance(1, (Clause(0, (0,), (0,), and_language(1)),))
    rep = brute_force_improve(inst, 0, frozenset({0}))
    assert rep.promise_holds
    assert rep.neighborhood_value == 1 and rep.neighborhood_witness == (1,)


def test_promise_flag():
    inst = Instance(
        1,
        (
            Clause(0, (0,), (0,), and_language(1)),
            Clause(1, (1,), (0,), and_language(1)),
        ),
    )
    # cannot satisfy both x and not-x, so distance 0 from {0,1} is impossible
    rep = brute_force_improve(inst, 0, frozenset({0, 1}))
    assert not rep.promise_holds and rep.neighborhood_value is None
    rep2 = brute_force_improve(inst, 1, frozenset({0, 1}))
    assert rep2.promise_holds and rep2.neighborhood_value == 1


def test_values_match_core_satisfied_set():
    rng = random.Random(12)
    for _ in range(30):
        inst = random_instance(rng)
        p = frozenset(
            c.id for c in inst.clauses if rng.random() < 0.5
        )
        k = rng.randint(0, 3)
        rep = brute_force_improve(inst, k, p)
        assert rep.global_value == len(satisfied_set(inst, rep.global_witness))
        if rep.promise_holds:
            wit_sat = satisfied_set(inst, rep.neighborhood_witness)
            assert len(wit_sat) == rep.neighborhood_value
            assert len(wit_sat ^ p) <= k


def test_neighborhood_optima_consistent():
    rng = random.Random(13)
    for _ in range(20):
        inst = random_instance(rng, max_vars=5)
        p = frozenset(c.id for c in inst.clauses if rng.random() < 0.5)
        k = rng.randint(0, 2)
        rep = brute_force_improve(inst, k, p)
        optima = neighborhood_optima(inst, k, p)
        if rep.promise_holds:
            assert rep.neighborhood_witness in optima
            for a in optima:
                sat = satisfied_set(inst, a)
                assert len(sat) == rep.neighborhood_value
                assert len(sat ^ p) <= k
        else:
            assert optima == []


def test_mincsp_examples():
    triangle = Instance(
        3,
        (
            Clause(0, (0, 1), (0, 1), EQ2),
            Clause(1, (0, 1), (1, 2), EQ2),
            Clause(2, (0, 1), (0, 2), EQ2),
        ),
    )
    assert brute_force_mincsp(triangle)[0] == 1

    sat2 = Instance(
        2,
        (
            Clause(0, (0, 0), (0, 1), sat_language(2)),
            Clause(1, (1, 1), (0, 1), sat_language(2)),
        ),
    )
    assert brute_force_mincsp(sat2)[0] == 0


def test_mincsp_monotone_under_clause_addition():
    rng = random.Random(14)
    for _ in range(20):
        inst = random_instance(rng, max_vars=5, max_clauses=6)
        cost, _ = brute_force_mincsp(inst)
        extra = Clause(
            len(inst.clauses), (0,), (rng.randrange(inst.num_vars),), and_language(1)
        )
        bigger = Instance(inst.num_vars, inst.clauses + (extra,))
        cost2, _ = brute_force_mincsp(bigger)
        assert cost <= cost2 <= cost + 1


def test_misvw_guard_and_examples():
    h = WeightedHypergraph(2, (frozenset({0, 1}),), (1, -1))
    v0, value = brute_force_misvw(h)
    # {1} and {0,1} both score 1; the lex-min witness is {1}
    assert value == 1 and v0 == frozenset({1})
    with pytest.raises(GuardError):
        brute_force_misvw(WeightedHypergraph(21, (), (0,) * 21))


def test_misvw_witness_check_raises_verification_error(monkeypatch):
    # a plain raise, so python -O keeps the check
    monkeypatch.setattr(oracle, "selection_objective", lambda h, v0: -1)
    with pytest.raises(VerificationError):
        brute_force_misvw(WeightedHypergraph(2, (frozenset({0, 1}),), (1, -1)))


def _full_improve(inst, k, p_ids) -> OracleReport:
    """The improvement optimum by plain enumeration of all 2^n assignments.
    product() yields them in lex order, so the first optimum is lex-min."""
    best = near = None
    for a in product((0, 1), repeat=inst.num_vars):
        value = delta = 0
        for c in inst.clauses:
            sat = sum(a[v] ^ b for v, b in zip(c.scope, c.neg)) in c.language.counts
            value += sat
            delta += sat != (c.id in p_ids)
        if best is None or value > best[0]:
            best = (value, a)
        if delta <= k and (near is None or value > near[0]):
            near = (value, a)
    if near is None:
        return OracleReport(best[0], best[1], False, None, None)
    return OracleReport(best[0], best[1], True, near[0], near[1])


def _unit(i, v, neg=0):
    return Clause(i, (neg,), (v,), and_language(1))


@st.composite
def _improve_case(draw):
    """(instance, k, proposal): variables at or above `used` are in no
    clause; arities 1-6 mix in one instance and a scope may repeat a
    variable; clauses may repeat one another; any proposal, so the promise
    may break."""
    n = draw(st.integers(0, 10))
    used = draw(st.integers(0, n))
    clauses = []
    for i in range(draw(st.integers(0, 10)) if used else 0):
        if clauses and draw(st.booleans()):
            c = draw(st.sampled_from(clauses))
            clauses.append(Clause(i, c.neg, c.scope, c.language))
            continue
        scope = draw(st.lists(st.integers(0, used - 1), min_size=1, max_size=6))
        r = len(scope)
        neg = draw(st.lists(st.integers(0, 1), min_size=r, max_size=r))
        counts = draw(st.frozensets(st.integers(0, r)))
        clauses.append(Clause(i, tuple(neg), tuple(scope), SymmetricLanguage(r, counts)))
    p = draw(st.frozensets(st.integers(0, max(len(clauses) - 1, 0))))
    return Instance(n, tuple(clauses)), draw(st.integers(0, 3)), p


@settings(max_examples=300, deadline=None)
@given(_improve_case())
# an empty clause list, with and without variables
@example((Instance(0, ()), 0, frozenset()))
@example((Instance(4, ()), 1, frozenset()))
# variables 0, 2 and 4 in no clause, k = 0
@example((Instance(5, (_unit(0, 1), _unit(1, 3, 1))), 0, frozenset({0})))
# duplicate clauses, one of them proposed
@example((Instance(3, (_unit(0, 2), _unit(1, 2))), 0, frozenset({1})))
# a proposal no assignment is within k of: x and not x
@example((Instance(3, (_unit(0, 1), _unit(1, 1, 1))), 0, frozenset({0, 1})))
# a scope that repeats a variable: x0 + not x0 + x2 counts 1 + x2
@example((Instance(3, (Clause(0, (0, 1, 0), (0, 0, 2), SymmetricLanguage(3, frozenset({2}))),)),
          0, frozenset({0})))
# a clause that accepts no count, next to one that accepts every count
@example((Instance(2, (Clause(0, (0, 0), (0, 1), SymmetricLanguage(2, frozenset())),
                       Clause(1, (1, 0), (0, 1), SymmetricLanguage(2, frozenset({0, 1, 2}))))),
          1, frozenset({0, 1})))
# one clause per arity 1-4, each the only member of its stack
@example((Instance(5, tuple(
    Clause(i, (i % 2,) * (i + 1), tuple(range(i, -1, -1)), SymmetricLanguage(i + 1, frozenset({i // 2 + 1})))
    for i in range(4))), 1, frozenset({1, 3})))
def test_improve_matches_full_enumeration(case):
    # enumerating only the clause variables loses no optimum and keeps both
    # lex-min witnesses
    inst, k, p = case
    assert brute_force_improve(inst, k, p) == _full_improve(inst, k, p)


@settings(max_examples=150, deadline=None)
@given(_improve_case(), st.integers(0, 4))
def test_improve_blocks_match_one_block(case, log_block):
    # scoring the assignments in blocks of 2^log_block merges to the
    # one-block report
    inst, k, p = case
    one = brute_force_improve(inst, k, p)
    with mock.patch.object(oracle, "IMPROVE_BLOCK", 1 << log_block):
        assert brute_force_improve(inst, k, p) == one


def _guard_instance():
    """24 clause variables: 8 clauses of arity 3 cover them, 22 more have
    arity 1-4; each clause gets random negations and a random count set."""
    rng = random.Random(24)
    scopes = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(8)]
    scopes += [tuple(rng.sample(range(24), rng.randint(1, 4))) for _ in range(22)]
    clauses = tuple(
        Clause(i, tuple(rng.randint(0, 1) for _ in s), s,
               SymmetricLanguage(len(s), frozenset(x for x in range(len(s) + 1) if rng.random() < 0.5)))
        for i, s in enumerate(scopes)
    )
    return Instance(24, clauses), frozenset(i for i in range(30) if rng.random() < 0.5)


def test_improve_at_the_guard_stays_in_time_and_memory():
    # the report the per-clause enumeration gave on this instance; it took
    # 11.3 s and a 36.0 MB traced peak on a 2-core host (Python 3.11,
    # numpy 2.4), so neither the stacks nor a chunk may hold a temporary
    # per clause variable and assignment beyond the uint8 bit rows
    inst, p = _guard_instance()
    assert len({v for c in inst.clauses for v in c.scope}) == IMPROVE_GUARD_VARS
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = brute_force_improve(inst, 3, p)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == OracleReport(
        25, (0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1),
        True, 15, (0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1),
    )
    assert peak < 1.5 * 36.0 * 2**20
    assert elapsed < 11.3


def test_improve_guard():
    # the guard counts the variables that occur in some clause
    over = Instance(25, tuple(_unit(v, v) for v in range(IMPROVE_GUARD_VARS + 1)))
    with pytest.raises(GuardError):
        brute_force_improve(over, 0, frozenset())


def test_improve_skips_variables_outside_every_clause():
    # 30 variables, 12 of them in clauses; the answer is the full
    # enumeration of the instance with the unused variables deleted, each
    # witness padded with 0 at the deleted variables
    rng = random.Random(30)
    used = sorted(rng.sample(range(30), 12))
    clauses = []
    for i in range(20):
        r = rng.randint(1, 3)
        clauses.append(Clause(i, tuple(rng.randint(0, 1) for _ in range(r)),
                              tuple(rng.sample(used, r)), and_language(r)))
    inst = Instance(30, tuple(clauses))
    p = frozenset(i for i in range(20) if rng.random() < 0.5)
    pos = {v: i for i, v in enumerate(used)}
    small = Instance(12, tuple(
        Clause(c.id, c.neg, tuple(pos[v] for v in c.scope), c.language) for c in clauses
    ))

    def pad(witness):
        full = [0] * 30
        for v, b in zip(used, witness):
            full[v] = b
        return tuple(full)

    for k in (0, 2, 5):
        ref = _full_improve(small, k, p)
        rep = brute_force_improve(inst, k, p)
        assert rep.global_value == ref.global_value and rep.global_witness == pad(ref.global_witness)
        assert rep.promise_holds == ref.promise_holds
        assert rep.neighborhood_value == ref.neighborhood_value
        if ref.promise_holds:
            assert rep.neighborhood_witness == pad(ref.neighborhood_witness)


def test_cut_oracle_examples():
    rep = brute_force_cut(2, [(0, 0, 1)], [1], frozenset({0}), 0)
    assert rep.global_value == 1 and rep.promise_holds

    triangle = [(0, 0, 1), (1, 1, 2), (2, 0, 2)]
    rep = brute_force_cut(3, triangle, [1, 1, 1], frozenset(), 3)
    assert rep.global_value == 2


def test_cut_oracle_agrees_with_improve_via_translation():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(2, 6)
        m = rng.randint(1, 8)
        clauses = []
        triples = []
        types = []
        for i in range(m):
            u, v = rng.sample(range(n), 2)
            t = rng.randint(0, 1)
            neg = (0, 0) if t == 0 else (0, 1)
            clauses.append(Clause(i, neg, (u, v), EQ2))
            triples.append((i, u, v))
            types.append(t)
        inst = Instance(n, tuple(clauses))
        p = frozenset(i for i in range(m) if rng.random() < 0.5)
        k = rng.randint(0, 3)
        rep_csp = brute_force_improve(inst, k, p)
        rep_cut = brute_force_cut(n, triples, types, p, k)
        assert rep_csp.global_value == rep_cut.global_value
        assert rep_csp.promise_holds == rep_cut.promise_holds
        if rep_csp.promise_holds:
            assert rep_csp.neighborhood_value == rep_cut.neighborhood_value


def test_improve_with_full_proposal_equals_mincsp():
    rng = random.Random(16)
    for _ in range(20):
        inst = random_instance(rng, max_vars=5)
        all_ids = frozenset(c.id for c in inst.clauses)
        cost, witness = brute_force_mincsp(inst)
        rep = brute_force_improve(inst, len(inst.clauses), all_ids)
        assert len(inst.clauses) - rep.neighborhood_value == cost
        assert rep.neighborhood_witness == witness


def test_permutation_invariance():
    rng = random.Random(17)
    for _ in range(15):
        inst = random_instance(rng, max_vars=5)
        n = inst.num_vars
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Instance(
            n,
            tuple(
                Clause(c.id, c.neg, tuple(perm[v] for v in c.scope), c.language)
                for c in inst.clauses
            ),
        )
        p = frozenset(c.id for c in inst.clauses if rng.random() < 0.5)
        k = rng.randint(0, 2)
        a = brute_force_improve(inst, k, p)
        b = brute_force_improve(relabeled, k, p)
        assert (a.global_value, a.promise_holds, a.neighborhood_value) == (
            b.global_value,
            b.promise_holds,
            b.neighborhood_value,
        )
