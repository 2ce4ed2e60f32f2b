import random
import time
from itertools import combinations, product

import pytest

from symcsp import classifier
from symcsp.classifier import (
    CERT_AE,
    CERT_LE1,
    CERT_MINCSP,
    LABEL_FPT_2AE,
    LABEL_FPT_AND,
    LABEL_TRIVIAL,
    LABEL_W1,
    ClassificationVerdict,
    classify,
)
from symcsp.core import StructureError, SymmetricLanguage

import relations
from relations import (
    RelationTable,
    arrow_graph,
    gaifman_graph,
    graphs_isomorphic,
    is_2k2_free,
    is_bijunctive,
    is_ihsb,
    language_bijunctive,
    language_ihsb,
    language_members,
    mincsp_fpt_generic,
    shift_relation,
    sym_relation,
)


def all_count_sets(r):
    for mask in range(1 << (r + 1)):
        yield frozenset(i for i in range(r + 1) if (mask >> i) & 1)


def test_gaifman_examples():
    full = RelationTable(2, frozenset(product((0, 1), repeat=2)))
    assert gaifman_graph(full) == frozenset()
    eq = sym_relation(2, {0, 2})
    assert gaifman_graph(eq) == frozenset({frozenset({0, 1})})


def test_arrow_examples():
    full = RelationTable(2, frozenset(product((0, 1), repeat=2)))
    assert arrow_graph(full) == frozenset()
    eq = RelationTable(2, frozenset({(0, 0), (1, 1)}))
    assert arrow_graph(eq) == frozenset({(0, 1), (1, 0)})


def test_symmetric_relations_have_complete_or_empty_graphs():
    # holds for the unshifted relation; shifts preserve it for the Gaifman
    # graph (exactly invariant) but NOT for the arrow graph, whose pair
    # patterns are value-sensitive
    for r in range(1, 6):
        for counts in all_count_sets(r):
            base = sym_relation(r, counts)
            complete = {frozenset(p) for p in combinations(range(r), 2)}
            for edges in (gaifman_graph(base), arrow_graph(base)):
                und = {frozenset(e) for e in edges}
                assert und in (set(), complete), (r, counts)
            for b in product((0, 1), repeat=r):
                g = gaifman_graph(sym_relation(r, counts, b))
                assert {frozenset(e) for e in g} in (set(), complete)


def test_arrow_graph_not_shift_invariant():
    # shifting one position of the exactly-one relation creates arrows even
    # though the unshifted arrow graph is empty
    base = sym_relation(3, {1})
    assert arrow_graph(base) == frozenset()
    shifted = shift_relation(base, (0, 0, 1))
    assert arrow_graph(shifted) == frozenset({(0, 2), (1, 2)})
    # and a balanced shift of the all-equal relation induces two disjoint
    # arrow edges, so 2K2-freeness can fail off the base relation
    ae = shift_relation(sym_relation(4, {0, 4}), (0, 0, 1, 1))
    und = {frozenset(e) for e in arrow_graph(ae)}
    assert und == {frozenset({0, 1}), frozenset({2, 3})}
    assert not is_2k2_free(4, arrow_graph(ae))


def test_implicative_languages_have_2k2_free_arrows():
    # the tractability test only consumes arrow 2K2-freeness together with
    # the implicative-family property, and that combination always holds
    for r in range(1, 5):
        for counts in all_count_sets(r):
            if not language_ihsb(r, counts):
                continue
            for member in language_members(r, counts):
                rel = RelationTable(r, member)
                assert is_2k2_free(r, arrow_graph(rel)), (r, counts)


def test_gaifman_isomorphic_under_shift():
    for r in range(1, 5):
        for counts in all_count_sets(r):
            base = sym_relation(r, counts)
            g0 = gaifman_graph(base)
            for b in product((0, 1), repeat=r):
                shifted = shift_relation(base, b)
                assert graphs_isomorphic(r, g0, gaifman_graph(shifted))


def test_2k2_examples():
    k4 = {frozenset(p) for p in combinations(range(4), 2)}
    assert is_2k2_free(4, k4)
    assert not is_2k2_free(4, {frozenset({0, 1}), frozenset({2, 3})})


def independent_2k2_check(n, edges):
    und = {frozenset(e) for e in edges}
    for e, f in combinations(und, 2):
        if e & f:
            continue
        quad = e | f
        induced = {g for g in und if g <= quad}
        if induced == {e, f}:
            return False
    return True


def test_2k2_matches_pairwise_check_on_random_graphs():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = {
            frozenset(p) for p in combinations(range(n), 2) if rng.random() < 0.4
        }
        assert is_2k2_free(n, edges) == independent_2k2_check(n, edges)


def test_bijunctive_examples():
    for r in range(1, 5):
        assert is_bijunctive(sym_relation(r, {0}))
    assert is_bijunctive(sym_relation(3, {0, 3}))
    assert not is_bijunctive(sym_relation(3, {1, 2}))


def test_bijunctive_closed_under_shift():
    for r in range(1, 5):
        for counts in all_count_sets(r):
            base = sym_relation(r, counts)
            expected = is_bijunctive(base)
            for b in product((0, 1), repeat=r):
                assert is_bijunctive(shift_relation(base, b)) == expected


def test_ihsb_examples():
    point = RelationTable(2, frozenset({(0, 0)}))
    assert is_ihsb(point, "minus")
    ne = sym_relation(2, {1})
    assert not is_ihsb(ne, "minus") and not is_ihsb(ne, "plus")
    with pytest.raises(StructureError):
        is_ihsb(point, "bogus")


def test_nontrivial_ihsb_language_iff_and_family():
    for r in range(1, 5):
        for counts in all_count_sets(r):
            lang = SymmetricLanguage(r, counts)
            if lang.trivial():
                continue
            expected = counts in (frozenset({0}), frozenset({r}))
            assert language_ihsb(r, counts) == expected, (r, counts)


def test_bijunctive_language_matches_case_list():
    for r in range(2, 5):
        for counts in all_count_sets(r):
            listed = counts in (
                frozenset(),
                frozenset(range(r + 1)),
                frozenset({0}),
                frozenset({r}),
                frozenset({0, r}),
                frozenset({0, 1}),
                frozenset({r - 1, r}),
            ) or (r == 2 and counts == frozenset({1}))
            assert language_bijunctive(r, counts) == listed, (r, counts)


def test_classify_examples():
    assert classify(2, {0, 1, 2}).label == LABEL_TRIVIAL
    assert classify(4, {0}).label == LABEL_FPT_AND
    v = classify(3, {0, 3})
    assert (v.label, v.certificate) == (LABEL_W1, CERT_AE)
    v = classify(2, {1, 2})
    assert (v.label, v.certificate) == (LABEL_W1, CERT_LE1)
    assert classify(2, {1}).label == LABEL_FPT_2AE
    assert classify(2, {0, 2}).label == LABEL_FPT_2AE
    v = classify(3, {1, 2})
    assert (v.label, v.certificate) == (LABEL_W1, CERT_MINCSP)
    with pytest.raises(StructureError):
        classify(2, {7})


def test_classify_shape_match_agrees_with_member_sets():
    references = {}
    for r in range(1, 5):
        references[("and", r)] = language_members(r, {r})
        references[("ae", r)] = language_members(r, {0, r})
        references[("le1", r)] = language_members(r, {0, 1})
    references[("2ae", 2)] = language_members(2, {0, 2})
    for r in range(1, 5):
        for counts in all_count_sets(r):
            verdict = classify(r, counts)
            members = language_members(r, counts)
            if verdict.label == LABEL_FPT_AND:
                assert members == references[("and", r)]
            elif verdict.label == LABEL_FPT_2AE:
                assert members == references[("2ae", 2)]
            elif verdict.certificate == CERT_AE:
                assert members == references[("ae", r)]
            elif verdict.certificate == CERT_LE1:
                assert members == references[("le1", r)]
            elif verdict.label == LABEL_W1:
                assert members != references[("and", r)]
                assert members != references[("ae", r)]
                assert members != references[("le1", r)]


def test_verdict_certificate_invariant():
    with pytest.raises(StructureError):
        ClassificationVerdict(LABEL_W1, "something-else")


def test_closed_form_table_matches_generic_mincsp_test():
    # the relation-theoretic minimum-cost test is the reference for the
    # closed-form table; this covers its whole domain, every S at r <= 6
    checked = 0
    for r in range(1, 7):
        for counts in all_count_sets(r):
            v = classify(r, counts)
            expected_fpt = v.label != LABEL_W1 or v.certificate in (CERT_AE, CERT_LE1)
            assert mincsp_fpt_generic(r, counts) == expected_fpt, (r, sorted(counts), v)
            checked += 1
    assert checked == 252


def test_classifier_binds_none_of_the_generic_checks():
    # the reference lives only in the test helper: the package module binds
    # none of its functions or classes, by name or by value, so `classify`
    # cannot reach them
    reference = {
        name: value for name, value in vars(relations).items()
        if getattr(value, "__module__", None) == relations.__name__
    }
    assert len(reference) == 15
    assert not reference.keys() & vars(classifier).keys()
    bound = {id(value) for value in vars(classifier).values()}
    assert not any(id(value) in bound for value in reference.values())
    checked = 0
    for r in range(1, 7):
        for counts in all_count_sets(r):
            assert classify(r, counts).label in (
                LABEL_TRIVIAL, LABEL_FPT_AND, LABEL_FPT_2AE, LABEL_W1
            )
            checked += 1
    assert checked == 252


def test_classify_cost_does_not_grow_with_arity():
    start = time.perf_counter()
    v = classify(10**12, {0})
    assert time.perf_counter() - start < 0.1
    assert (v.label, v.certificate) == (LABEL_FPT_AND, "rAND")
