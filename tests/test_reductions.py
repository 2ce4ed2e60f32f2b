import random
from itertools import product

import pytest

from symcsp import reductions
from symcsp.core import (
    Clause,
    Instance,
    ProposedSolution,
    StructureError,
    VerificationError,
    ae_language,
    eval_clause,
    sat_language,
    satisfied_set,
)
from symcsp.oracle import brute_force_improve
from symcsp.reductions import (
    MulticoloredISInstance,
    PairedMinCutInstance,
    decode_mcis,
    decode_paired_cut,
    generate_mcis,
    generate_paired_cut,
    is_st_cut,
    mcis_to_2sat,
    mincsp_to_improve,
    pad_ae,
    paired_cut_to_3ae,
    paired_cut_to_4ae,
    pairs_touched,
    solve_mcis_bruteforce,
    solve_paired_cut_bruteforce,
    twosat_to_le1,
    validate_mcis,
    validate_paired_cut,
)

from oracle_helpers import brute_force_mincsp
from uniformize import uniformize_ae

TOY = PairedMinCutInstance(2, ((0, 1), (0, 1)), 0, 1, 1, ((0, 1),), ((0,), (1,)))


def test_toy_validates():
    validate_paired_cut(TOY)


def test_paired_cut_validator_rejects_garbage():
    with pytest.raises(StructureError):
        validate_paired_cut(
            PairedMinCutInstance(2, ((0, 1), (1, 0)), 0, 1, 1, ((0, 1),), ((0,), (1,)))
        )  # cycle
    with pytest.raises(StructureError):
        validate_paired_cut(
            PairedMinCutInstance(2, ((0, 1), (0, 1)), 0, 1, 1, ((0, 0),), ((0,), (1,)))
        )  # bad pairing
    with pytest.raises(StructureError):
        validate_paired_cut(
            PairedMinCutInstance(2, ((0, 1), (0, 1)), 0, 1, 1, ((0, 1),), ((0, 1),))
        )  # one path instead of 2l


def test_4ae_toy_counts_and_values():
    inst, prop = paired_cut_to_4ae(TOY)
    assert len(inst.clauses) == 2 + 1 + 2
    assert prop.k == 5
    assert prop.clause_ids == frozenset({0, 1})
    # unequal endpoints satisfy the pair clause and both inequality copies
    assert len(satisfied_set(inst, (0, 1))) == 3 > len(prop.clause_ids)
    # all-zeros satisfies exactly the proposal
    assert satisfied_set(inst, (0, 0)) == prop.clause_ids


def test_3ae_toy_counts():
    inst, prop = paired_cut_to_3ae(TOY)
    assert len(inst.clauses) == 10 + 8 + 3
    assert prop.k == 21
    assert len(prop.clause_ids) == 10
    assert satisfied_set(inst, (0, 0)) == prop.clause_ids
    assert len(satisfied_set(inst, (0, 1))) == len(prop.clause_ids) + 1


def test_one_cut_edge_satisfies_one_triple():
    # a pair with exactly one crossing edge satisfies exactly one of its
    # four 3-ary clauses, for every assignment realizing that pattern
    src = PairedMinCutInstance(
        4, ((0, 1), (2, 3)), 0, 1, 1, ((0, 1),), ((0,), (1, 2))
    )
    # not a valid full source (paths malformed), so build clauses directly
    inst, _ = paired_cut_to_4ae(TOY)
    u1, v1, u2, v2 = 0, 1, 2, 3
    triples = (
        ((u1, u2, v2), (0, 0, 1)),
        ((v1, u2, v2), (1, 0, 1)),
        ((u1, v1, u2), (0, 1, 0)),
        ((u1, v1, v2), (0, 1, 1)),
    )
    lang = ae_language(3)
    for a in product((0, 1), repeat=4):
        cut1 = a[u1] != a[v1]
        cut2 = a[u2] != a[v2]
        if cut1 == cut2:
            continue
        sat = sum(
            eval_clause(Clause(0, neg, scope, lang), lang, a)
            for scope, neg in triples
        )
        assert sat == 1, a


def test_generate_paired_cut_deterministic_and_valid():
    a = generate_paired_cut(42, 2)
    b = generate_paired_cut(42, 2)
    assert a == b
    for seed in range(30):
        for l in (1, 2):
            validate_paired_cut(generate_paired_cut(seed, l))


def test_paired_cut_round_trip():
    for seed in range(20):
        for l in (1, 2):
            src = generate_paired_cut(seed, l)
            if src.num_vertices > 14:
                continue
            z = solve_paired_cut_bruteforce(src)
            if z is not None:
                assert is_st_cut(src, z) and pairs_touched(src, z) <= l
            for reduce in (paired_cut_to_4ae, paired_cut_to_3ae):
                inst, prop = reduce(src)
                rep = brute_force_improve(inst, prop.k, prop.clause_ids)
                assert rep.promise_holds
                gap = rep.neighborhood_value - len(prop.clause_ids)
                assert (gap > 0) == (z is not None), (seed, l, reduce.__name__)
                if z is not None:
                    assert gap == 1
                    decoded = decode_paired_cut(
                        rep.neighborhood_witness, src, inst, prop
                    )
                    assert decoded is not None
                else:
                    assert decode_paired_cut(
                        rep.neighborhood_witness, src, inst, prop
                    ) is None


def test_paired_cut_bruteforce_check_raises_verification_error(monkeypatch):
    # a plain raise, so python -O keeps the check
    monkeypatch.setattr(reductions, "is_st_cut", lambda src, cut_ids: False)
    with pytest.raises(VerificationError):
        solve_paired_cut_bruteforce(TOY)


def test_decode_paired_cut_strict():
    inst, _ = paired_cut_to_4ae(TOY)
    # with an empty proposal any satisfied clause looks like an improvement,
    # but the all-equal assignment cuts nothing: the validator must refuse
    with pytest.raises(VerificationError):
        decode_paired_cut((0, 0), TOY, inst, ProposedSolution(frozenset(), 0))


def test_pad_ae_structure():
    inst, prop = paired_cut_to_4ae(TOY)
    with pytest.raises(StructureError):
        pad_ae(Instance(1, (Clause(0, (0,), (0,), sat_language(1)),)), prop)
    padded, _ = pad_ae(inst, prop)
    assert padded.num_vars == inst.num_vars + len(inst.clauses)
    for c, p in zip(inst.clauses, padded.clauses):
        assert p.language.arity == c.language.arity + 1
        assert p.scope[:-1] == c.scope and p.neg[:-1] == c.neg
        assert p.neg[-1] == c.neg[0]


def test_pad_ae_directions():
    # lifted witnesses preserve value and distance; projections of padded
    # optima are good for the source
    rng = random.Random(40)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        m = rng.randint(1, 5)
        clauses = []
        for i in range(m):
            r = rng.randint(2, min(3, n))
            scope = tuple(rng.sample(range(n), r))
            neg = tuple(rng.randint(0, 1) for _ in range(r))
            clauses.append(Clause(i, neg, scope, ae_language(r)))
        inst = Instance(n, tuple(clauses))
        k = rng.randint(0, 3)
        beta = tuple(rng.randint(0, 1) for _ in range(n))
        p = set(satisfied_set(inst, beta))
        for cid in rng.sample(range(m), min(m, rng.randint(0, k))):
            p ^= {cid}
        prop = ProposedSolution(frozenset(p), k)
        rep = brute_force_improve(inst, k, prop.clause_ids)
        if not rep.promise_holds:
            continue
        checked += 1
        padded, prop2 = pad_ae(inst, prop)
        rep2 = brute_force_improve(padded, prop2.k, prop2.clause_ids)
        assert rep2.promise_holds
        assert rep2.neighborhood_value >= rep.neighborhood_value
        proj = rep2.neighborhood_witness[:n]
        assert len(satisfied_set(inst, proj)) >= rep.neighborhood_value
    assert checked > 30


def test_uniformize_preserves_hardness_chain():
    for seed in range(12):
        src = generate_paired_cut(seed, 1, max_path_len=3)
        inst, prop = paired_cut_to_4ae(src)
        if inst.num_vars > 8:
            continue
        solvable = solve_paired_cut_bruteforce(src) is not None
        uni, prop2 = uniformize_ae(inst, prop, 4)
        assert all(c.language.arity == 4 for c in uni.clauses)
        if uni.num_vars > 22:
            continue
        rep_src = brute_force_improve(inst, prop.k, prop.clause_ids)
        rep_tgt = brute_force_improve(uni, prop2.k, prop2.clause_ids)
        assert rep_src.neighborhood_value == rep_tgt.neighborhood_value
        assert (rep_tgt.neighborhood_value > len(prop2.clause_ids)) == solvable


def test_mcis_generator_and_validator():
    for seed in range(20):
        for l in (1, 2, 3):
            src = generate_mcis(seed, l)
            validate_mcis(src)
    a = generate_mcis(7, 2)
    assert a == generate_mcis(7, 2)
    with pytest.raises(StructureError):
        validate_mcis(MulticoloredISInstance(2, ((0,), (1,)), ()))  # isolated
    with pytest.raises(StructureError):
        validate_mcis(MulticoloredISInstance(2, ((0, 1), ()), ((0, 1),)))


def test_mcis_toy_instances():
    no_edge = MulticoloredISInstance(2, ((0,), (1,)), ())
    with pytest.raises(StructureError):
        mcis_to_2sat(no_edge)  # isolated vertices are the caller's problem

    edge = MulticoloredISInstance(2, ((0,), (1,)), ((0, 1),))
    inst, prop = mcis_to_2sat(edge)
    assert prop.k == 2 and len(prop.clause_ids) == 2
    rep = brute_force_improve(inst, prop.k, prop.clause_ids)
    # a singleton zero set always gains one unit clause, so the true
    # optimum is |P| + 1; only |P| + l certifies an independent set
    assert rep.neighborhood_value == len(prop.clause_ids) + 1
    assert decode_mcis(rep.neighborhood_witness, edge, inst, prop) is None


def test_mcis_round_trip():
    for seed in range(15):
        for l in (1, 2, 3):
            src = generate_mcis(seed, l, part_size=3, edge_prob=0.5)
            mis = solve_mcis_bruteforce(src)
            inst, prop = mcis_to_2sat(src)
            assert prop.k == l
            rep = brute_force_improve(inst, prop.k, prop.clause_ids)
            assert rep.promise_holds
            reached = rep.neighborhood_value >= len(prop.clause_ids) + l
            assert reached == (mis is not None), (seed, l)
            decoded = decode_mcis(rep.neighborhood_witness, src, inst, prop)
            if mis is not None:
                assert decoded is not None and len(decoded) == l
            else:
                assert decoded is None


def test_decode_mcis_strict():
    src = MulticoloredISInstance(2, ((0,), (1,)), ((0, 1),))
    inst, prop = mcis_to_2sat(src)
    # pretend the all-zero assignment (zero set {0,1}, not independent)
    # reached the certificate value; the validator must refuse
    with pytest.raises(VerificationError):
        decode_mcis((0, 0), src, inst, ProposedSolution(frozenset(), 0))


def test_le1_lift_clause_semantics():
    # (x or y) lifted to arity 3 equals (x or y) and (x or u) and (y or u)
    inst = Instance(2, (Clause(0, (0, 0), (0, 1), sat_language(2)),))
    lifted, _ = twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 3)
    c = lifted.clauses[0]
    assert c.scope == (0, 1, 2) and c.language.counts == frozenset({2, 3})
    for a in product((0, 1), repeat=3):
        expected = (a[0] or a[1]) and (a[0] or a[2]) and (a[1] or a[2])
        assert eval_clause(c, c.language, a) == bool(expected)


def test_le1_lift_unary_semantics():
    inst = Instance(1, (Clause(0, (1,), (0,), sat_language(1)),))
    lifted, _ = twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 3)
    c = lifted.clauses[0]
    assert c.scope == (0, 0, 1)
    for a in product((0, 1), repeat=2):
        # the doubled literal forces not-x; the single pad may be false
        assert eval_clause(c, c.language, a) == (a[0] == 0)
    lifted4, _ = twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 4)
    c4 = lifted4.clauses[0]
    assert c4.scope == (0, 0, 1, 2)
    for a in product((0, 1), repeat=3):
        # not-x and at most one of the two pads false
        assert eval_clause(c4, c4.language, a) == (a[0] == 0 and a[1] + a[2] >= 1)


def test_le1_round_trip_on_mcis_chain():
    for seed in range(8):
        for l in (1, 2):
            src = generate_mcis(seed, l, part_size=2, edge_prob=0.5)
            inst, prop = mcis_to_2sat(src)
            rep = brute_force_improve(inst, prop.k, prop.clause_ids)
            for r in (3, 4):
                lifted, prop2 = twosat_to_le1(inst, prop, r)
                rep2 = brute_force_improve(lifted, prop2.k, prop2.clause_ids)
                assert rep2.neighborhood_value == rep.neighborhood_value
                a = rep2.neighborhood_witness
                pads = range(inst.num_vars, lifted.num_vars)
                assert all(a[v] == 1 for v in pads)


def test_le1_requires_sat_clauses():
    inst = Instance(2, (Clause(0, (0, 0), (0, 1), ae_language(2)),))
    with pytest.raises(StructureError):
        twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 3)
    with pytest.raises(StructureError):
        twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 2)


def test_le1_lift_guard_fires_before_allocating(monkeypatch):
    from symcsp.core import GuardError

    inst = Instance(2, tuple(Clause(i, (0, 0), (0, 1), sat_language(2)) for i in range(3)))
    with pytest.raises(GuardError):
        twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 10 ** 12)
    # the bound is (clauses + 1) * r literal slots, inclusive
    monkeypatch.setattr(reductions, "LIFT_GUARD_SLOTS", 4 * 5)
    assert twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 5)[0].num_vars == 5
    with pytest.raises(GuardError):
        twosat_to_le1(inst, ProposedSolution(frozenset(), 0), 6)


def test_mincsp_to_improve():
    inst = Instance(
        2,
        (
            Clause(0, (0, 0), (0, 1), sat_language(2)),
            Clause(1, (1, 1), (0, 1), sat_language(2)),
        ),
    )
    out, prop = mincsp_to_improve(inst, 0)
    assert prop.clause_ids == frozenset({0, 1})
    rep = brute_force_improve(out, prop.k, prop.clause_ids)
    cost, _ = brute_force_mincsp(inst)
    assert cost == 0
    assert rep.promise_holds and rep.neighborhood_value == len(inst.clauses)

    # an unsatisfiable-within-k instance is detected by cost > k
    contradictory = Instance(
        1,
        (
            Clause(0, (0,), (0,), sat_language(1)),
            Clause(1, (1,), (0,), sat_language(1)),
        ),
    )
    out2, prop2 = mincsp_to_improve(contradictory, 0)
    rep2 = brute_force_improve(out2, prop2.k, prop2.clause_ids)
    assert not rep2.promise_holds
    assert len(contradictory.clauses) - rep2.global_value > 0
