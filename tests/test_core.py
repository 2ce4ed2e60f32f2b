import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcsp.core import (
    Clause,
    Instance,
    ProposedSolution,
    SchemaError,
    StructureError,
    SymmetricLanguage,
    and_language,
    eval_clause,
    instance_from_json,
    instance_to_json,
    normalize_language,
    satisfied_set,
)


# The paper's cost, proposal distance and good-assignment test, written out
# over satisfied_set; the package itself works with satisfied sets directly.
def cost(instance: Instance, a) -> int:
    return len(instance.clauses) - len(satisfied_set(instance, a))


def neighborhood_distance(a_ids, b_ids) -> int:
    return len(frozenset(a_ids) ^ frozenset(b_ids))


def is_good(instance: Instance, a, reference_value: int) -> bool:
    return len(satisfied_set(instance, a)) >= reference_value


EQ2 = SymmetricLanguage(2, frozenset({0, 2}))
NE_COUNTS = SymmetricLanguage(2, frozenset({1}))


def make_instance(num_vars, rows):
    clauses = tuple(
        Clause(i, tuple(neg), tuple(scope), lang) for i, (neg, scope, lang) in enumerate(rows)
    )
    return Instance(num_vars, clauses)


def random_instance(rng, max_vars=6, max_clauses=8):
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    rows = []
    for _ in range(m):
        r = rng.randint(1, min(3, n))
        scope = tuple(rng.sample(range(n), r))
        neg = tuple(rng.randint(0, 1) for _ in range(r))
        counts = frozenset(
            x for x in range(r + 1) if rng.random() < 0.5
        ) or frozenset({rng.randint(0, r)})
        rows.append((neg, scope, SymmetricLanguage(r, counts)))
    return make_instance(n, rows)


def test_eval_clause_examples():
    c = Clause(0, (0, 0), (0, 1), EQ2)
    assert eval_clause(c, EQ2, (0, 0)) is True

    and3 = SymmetricLanguage(3, frozenset({3}))
    c2 = Clause(0, (1, 0, 0), (0, 1, 2), and3)
    assert eval_clause(c2, and3, (0, 1, 1)) is True

    c3 = Clause(0, (0, 0), (0, 1), NE_COUNTS)
    assert eval_clause(c3, NE_COUNTS, (1, 1)) is False


def test_eval_clause_scope_error():
    c = Clause(0, (0, 0), (0, 5), EQ2)
    with pytest.raises(StructureError):
        eval_clause(c, EQ2, (0, 0))


def test_satisfied_set_examples():
    assert satisfied_set(Instance(2, ()), (0, 0)) == frozenset()
    inst = make_instance(2, [((0, 0), (0, 1), EQ2), ((0, 0), (0, 1), NE_COUNTS)])
    assert satisfied_set(inst, (0, 0)) == frozenset({0})


def test_satisfied_set_matches_per_clause_loop():
    rng = random.Random(0)
    for _ in range(50):
        inst = random_instance(rng)
        a = tuple(rng.randint(0, 1) for _ in range(inst.num_vars))
        expected = frozenset(
            c.id for c in inst.clauses if eval_clause(c, c.language, a)
        )
        assert satisfied_set(inst, a) == expected


def test_cost_examples():
    assert cost(Instance(1, ()), (0,)) == 0
    inst = make_instance(2, [((0, 0), (0, 1), EQ2), ((0, 0), (0, 1), NE_COUNTS)])
    for a in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert cost(inst, a) == 1


def test_cost_identity_random():
    rng = random.Random(1)
    for _ in range(40):
        inst = random_instance(rng)
        a = tuple(rng.randint(0, 1) for _ in range(inst.num_vars))
        assert cost(inst, a) == len(inst.clauses) - len(satisfied_set(inst, a))
        assert 0 <= cost(inst, a) <= len(inst.clauses)


def test_neighborhood_distance():
    assert neighborhood_distance({1, 5}, {1, 5}) == 0
    assert neighborhood_distance({1, 2}, {2, 3}) == 2
    rng = random.Random(2)
    for _ in range(30):
        a = {rng.randint(0, 10) for _ in range(rng.randint(0, 8))}
        b = {rng.randint(0, 10) for _ in range(rng.randint(0, 8))}
        assert neighborhood_distance(a, b) == len(a - b) + len(b - a)


def test_normalize_language_examples():
    # conjunction family: {3} and {0} generate the same language
    assert normalize_language(3, {3}) == normalize_language(3, {0})
    assert normalize_language(3, {3}).is_and_family()
    self_comp = normalize_language(2, {0, 2})
    assert self_comp.counts == frozenset({0, 2})
    assert normalize_language(4, {1, 3}).counts == frozenset({1, 3})


def test_normalize_language_idempotent():
    for r in range(1, 5):
        for mask in range(1 << (r + 1)):
            counts = frozenset(i for i in range(r + 1) if (mask >> i) & 1)
            once = normalize_language(r, counts)
            again = normalize_language(once.arity, once.counts)
            assert once == again


def test_normalize_language_matches_characteristic_vector_definition():
    def char_vector(r, counts):
        return tuple(1 if i in counts else 0 for i in range(r + 1))

    for r in range(1, 9):
        for mask in range(1 << (r + 1)):
            counts = frozenset(i for i in range(r + 1) if (mask >> i) & 1)
            refl = frozenset(r - x for x in counts)
            expected = min(counts, refl, key=lambda s: char_vector(r, s))
            assert normalize_language(r, counts).counts == expected, (r, sorted(counts))


def test_and_family_accepts_both_count_forms():
    # conjunction relations written as all-zero counts: neg gives the
    # satisfying pattern directly
    zero_form = SymmetricLanguage(2, frozenset({0}))
    c = Clause(0, (1, 0), (0, 1), zero_form)
    assert eval_clause(c, zero_form, (1, 0)) is True
    assert eval_clause(c, zero_form, (1, 1)) is False


def test_trivial_detection():
    assert SymmetricLanguage(2, frozenset()).trivial()
    assert SymmetricLanguage(2, frozenset({0, 1, 2})).trivial()
    assert not SymmetricLanguage(2, frozenset({1})).trivial()


def test_is_good():
    inst = make_instance(1, [((0,), (0,), and_language(1))])
    assert is_good(inst, (1,), 0)
    assert is_good(inst, (1,), 1)
    assert not is_good(inst, (0,), 1)


def test_eval_symmetric_under_scope_permutation():
    rng = random.Random(3)
    for _ in range(30):
        r = rng.randint(1, 4)
        lang = SymmetricLanguage(
            r, frozenset(x for x in range(r + 1) if rng.random() < 0.5)
        )
        scope = tuple(rng.sample(range(6), r))
        neg = tuple(rng.randint(0, 1) for _ in range(r))
        a = tuple(rng.randint(0, 1) for _ in range(6))
        base = eval_clause(Clause(0, neg, scope, lang), lang, a)
        for perm in permutations(range(r)):
            c = Clause(
                0,
                tuple(neg[i] for i in perm),
                tuple(scope[i] for i in perm),
                lang,
            )
            assert eval_clause(c, lang, a) == base


def test_eval_negation_shift_identity():
    rng = random.Random(4)
    for _ in range(30):
        r = rng.randint(1, 4)
        lang = SymmetricLanguage(
            r, frozenset(x for x in range(r + 1) if rng.random() < 0.5)
        )
        scope = tuple(rng.sample(range(6), r))
        neg = tuple(rng.randint(0, 1) for _ in range(r))
        a = list(rng.randint(0, 1) for _ in range(6))
        shifted = list(a)
        for v, b in zip(scope, neg):
            shifted[v] ^= b
        plain = Clause(0, (0,) * r, scope, lang)
        c = Clause(0, neg, scope, lang)
        assert eval_clause(c, lang, a) == eval_clause(plain, lang, shifted)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(1, 5))
def test_global_negation_rewrite_preserves_satisfaction(seed, num_vars):
    rng = random.Random(seed)
    inst = random_instance(rng, max_vars=num_vars)
    a = tuple(rng.randint(0, 1) for _ in range(inst.num_vars))
    rewritten = Instance(
        inst.num_vars,
        tuple(
            Clause(
                c.id,
                tuple(1 - b for b in c.neg),
                c.scope,
                SymmetricLanguage(c.language.arity, c.language.reflected_counts()),
            )
            for c in inst.clauses
        ),
    )
    assert satisfied_set(inst, a) == satisfied_set(rewritten, a)


def test_instance_validation():
    with pytest.raises(StructureError):
        make_instance(1, [((0, 0), (0, 1), EQ2)])
    with pytest.raises(StructureError):
        Instance(2, (Clause(0, (0, 0), (0, 1), EQ2), Clause(0, (0, 0), (0, 1), EQ2)))
    with pytest.raises(StructureError):
        ProposedSolution(frozenset(), -1)
    prop = ProposedSolution(frozenset({5}), 0)
    with pytest.raises(StructureError):
        prop.validate_against(make_instance(2, [((0, 0), (0, 1), EQ2)]))


def test_json_round_trip_modes():
    sym = {
        "mode": "sym",
        "r": 2,
        "S": [0, 2],
        "num_vars": 3,
        "k": 1,
        "clauses": [
            {"neg": [0, 0], "scope": [0, 1], "in_P": True},
            {"neg": [0, 1], "scope": [1, 2], "in_P": False},
        ],
    }
    inst, prop = instance_from_json(sym)
    assert prop.clause_ids == frozenset({0}) and prop.k == 1
    assert instance_from_json(instance_to_json(inst, prop))[0] == inst

    mixed = {
        "mode": "and",
        "num_vars": 2,
        "k": 0,
        "clauses": [
            {"neg": [0], "scope": [1], "in_P": False},
            {"neg": [1, 0], "scope": [0, 1], "in_P": True},
        ],
    }
    inst2, prop2 = instance_from_json(mixed)
    assert inst2.is_and_family()
    again, _ = instance_from_json(instance_to_json(inst2, prop2))
    assert again == inst2

    multi = {
        "mode": "multi",
        "num_vars": 2,
        "k": 0,
        "clauses": [
            {"neg": [0, 0], "scope": [0, 1], "S": [0, 2], "in_P": True},
            {"neg": [0], "scope": [0], "S": [1], "in_P": False},
        ],
    }
    inst3, prop3 = instance_from_json(multi)
    again3, _ = instance_from_json(instance_to_json(inst3, prop3))
    assert again3 == inst3


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"mode": "nope", "num_vars": 1, "k": 0, "clauses": []},
        {"mode": "sym", "r": 2, "S": [5], "num_vars": 1, "k": 0, "clauses": []},
        {"mode": "sym", "r": 2, "S": [0], "num_vars": 1, "k": -1, "clauses": []},
        {
            "mode": "sym",
            "r": 2,
            "S": [0],
            "num_vars": 1,
            "k": 0,
            "clauses": [{"neg": [0, 0], "scope": [0, 4], "in_P": False}],
        },
        {"mode": "and", "num_vars": 1, "k": 0, "clauses": 5},
        {"mode": "and", "num_vars": 1, "k": 0, "clauses": None},
        {"mode": "and", "num_vars": 1, "k": 0, "clauses": [{"neg": [0], "scope": [0], "in_P": "no"}]},
    ],
)
def test_json_schema_errors(obj):
    with pytest.raises(SchemaError):
        instance_from_json(obj)
