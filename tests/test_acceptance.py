"""Acceptance suite: one criterion per test, each printing a PASS line with
its measured size and runtime.  Tolerances are exact (100% agreement) and
the runtime budgets are the stated targets."""

import random
import subprocess
import sys
import time
import pytest

from symcsp.and_solver import (
    and_instance_from,
    find_assignment_satisfying_p,
    find_branch_variable,
    solve_and,
)
from symcsp.classifier import (
    CERT_AE,
    CERT_LE1,
    CERT_MINCSP,
    LABEL_FPT_2AE,
    LABEL_FPT_AND,
    LABEL_TRIVIAL,
    LABEL_W1,
    classify,
)
from symcsp.coloring import build_coloring_family
from symcsp.core import SymmetricLanguage, satisfied_set
from symcsp.cut_solver import crossing_edges, cut_improve, satisfied_edges
from symcsp.flow import FlowNetwork, WeightedHypergraph, max_flow_min_cut, solve_mis_vw
from symcsp.generators import _random_connected_graph, gen_and_instance, gen_cut_instance
from symcsp.oracle import (
    brute_force_cut,
    brute_force_improve,
    brute_force_misvw,
)
from symcsp.reductions import (
    decode_mcis,
    decode_paired_cut,
    generate_mcis,
    generate_paired_cut,
    mcis_to_2sat,
    paired_cut_to_3ae,
    paired_cut_to_4ae,
    solve_mcis_bruteforce,
    solve_paired_cut_bruteforce,
)

from covering import verify_covering
from oracle_helpers import neighborhood_optima
from relations import language_bijunctive, language_ihsb, language_members

AND_COUNT = 500
CUT_COUNT = 300
MISVW_COUNT = 1000


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def and_sample():
    sample = []
    seed = 0
    while len(sample) < AND_COUNT:
        inst, prop = gen_and_instance(
            1_000 + seed, max_vars=10, max_clauses=12, max_arity=3, max_k=4
        )
        seed += 1
        report_ = brute_force_improve(inst, prop.k, prop.clause_ids)
        if report_.promise_holds:
            sample.append((inst, prop, report_))
    return sample


@pytest.fixture(scope="module")
def cut_run():
    results = []
    seed = 0
    while len(results) < CUT_COUNT:
        ci = gen_cut_instance(2_000 + seed, max_vertices=10, max_k=3)
        seed += 1
        triples = [(e.id, e.u, e.v) for e in ci.graph.edges]
        types = [e.etype for e in ci.graph.edges]
        rep = brute_force_cut(ci.graph.num_vertices, triples, types, ci.p_ids, ci.k)
        results.append((ci, rep))
    return results


def test_criterion_1_and_solver_correctness(and_sample):
    start = time.perf_counter()
    mismatches = 0
    for inst, prop, rep in and_sample:
        out, _ = solve_and(inst, prop, mode="exhaustive")
        if len(satisfied_set(inst, out)) < rep.neighborhood_value:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "1 conjunction-solver vs oracle",
        mismatches == 0 and elapsed < 60,
        f"{len(and_sample)} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


_cut_stats = {}


def test_criterion_2_cut_solver_correctness(cut_run):
    start = time.perf_counter()
    mismatches = 0
    recursions = 0
    for ci, rep in cut_run:
        # every contraction step builds its reduced instance through the
        # TerminalInstance constructor, which rejects a marked set that is
        # not a matching with parallels, so a violation fails this loop
        _, value, stats = cut_improve(ci, mode="exhaustive", q_override=8)
        recursions += stats.recurse_steps
        if value != rep.global_value:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _cut_stats["recursions"] = recursions
    report(
        "2 cut-solver vs oracle",
        mismatches == 0 and elapsed < 120,
        f"{len(cut_run)} instances, {mismatches} mismatches, "
        f"{recursions} recursions, {elapsed:.1f}s",
    )


def test_criterion_3_selection_exactness():
    start = time.perf_counter()
    rng = random.Random(3_000)
    mismatches = 0
    for _ in range(MISVW_COUNT):
        n = rng.randint(1, 15)
        m = rng.randint(0, 20)
        edges = tuple(
            frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(m)
        )
        weights = tuple(rng.randint(-3, 3) for _ in range(n))
        h = WeightedHypergraph(n, edges, weights)
        _, value = solve_mis_vw(h)
        _, expected = brute_force_misvw(h)
        if value != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "3 selection exactness",
        mismatches == 0 and elapsed < 30,
        f"{MISVW_COUNT} hypergraphs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def _all_count_sets(r):
    for mask in range(1 << (r + 1)):
        yield frozenset(i for i in range(r + 1) if (mask >> i) & 1)


def test_criterion_4_classifier_completeness():
    start = time.perf_counter()
    bad = 0
    references = {}
    for r in range(1, 6):
        references[("and", r)] = language_members(r, {r})
        references[("ae", r)] = language_members(r, {0, r})
        references[("le1", r)] = language_members(r, {0, 1})
    references[("2ae", 2)] = language_members(2, {0, 2})

    for r in range(1, 6):
        for counts in _all_count_sets(r):
            verdict = classify(r, counts)
            lang = SymmetricLanguage(r, counts)
            members = language_members(r, counts)
            if lang.trivial():
                expected = (LABEL_TRIVIAL, None)
            elif members == references[("and", r)]:
                expected = (LABEL_FPT_AND, None)
            elif r == 2 and members == references[("2ae", 2)]:
                expected = (LABEL_FPT_2AE, None)
            elif r >= 3 and members == references[("ae", r)]:
                expected = (LABEL_W1, CERT_AE)
            elif r >= 2 and members == references[("le1", r)]:
                expected = (LABEL_W1, CERT_LE1)
            else:
                expected = (LABEL_W1, CERT_MINCSP)
            if verdict.label != expected[0]:
                bad += 1
            elif expected[1] is not None and verdict.certificate != expected[1]:
                bad += 1

    for r in range(2, 5):
        for counts in _all_count_sets(r):
            listed = counts in (
                frozenset(),
                frozenset(range(r + 1)),
                frozenset({0}),
                frozenset({r}),
                frozenset({0, r}),
                frozenset({0, 1}),
                frozenset({r - 1, r}),
            ) or (r == 2 and counts == frozenset({1}))
            if language_bijunctive(r, counts) != listed:
                bad += 1
            lang = SymmetricLanguage(r, counts)
            is_and = counts in (frozenset({0}), frozenset({r}))
            if not lang.trivial() and language_ihsb(r, counts) != is_and:
                bad += 1
    elapsed = time.perf_counter() - start
    report(
        "4 classifier completeness",
        bad == 0 and elapsed < 10,
        f"all (r,S) r<=5 plus generic checks r<=4, {bad} disagreements, {elapsed:.1f}s",
    )


def test_criterion_5_reduction_round_trips():
    start = time.perf_counter()
    bad = []
    paired_sources = 0
    for seed in range(25):
        for l in (1, 2):
            src = generate_paired_cut(4_000 + seed, l)
            if src.num_vertices > 20:
                continue
            paired_sources += 1
            solvable = solve_paired_cut_bruteforce(src) is not None
            for reduce_, expected_k in (
                (paired_cut_to_4ae, 4 * l + 1),
                (paired_cut_to_3ae, 20 * l + 1),
            ):
                inst, prop = reduce_(src)
                if prop.k != expected_k:
                    bad.append((seed, l, "k"))
                rep = brute_force_improve(inst, prop.k, prop.clause_ids)
                if not rep.promise_holds:
                    bad.append((seed, l, "promise"))
                    continue
                gap = rep.neighborhood_value - len(prop.clause_ids)
                if (gap > 0) != solvable:
                    bad.append((seed, l, "decision"))
                if solvable and gap != 1:
                    bad.append((seed, l, "margin"))
                decoded = decode_paired_cut(rep.neighborhood_witness, src, inst, prop)
                if (decoded is not None) != solvable:
                    bad.append((seed, l, "decode"))

    mcis_sources = 0
    for seed in range(20):
        for l in (1, 2, 3):
            src = generate_mcis(5_000 + seed, l)
            mcis_sources += 1
            mis = solve_mcis_bruteforce(src)
            inst, prop = mcis_to_2sat(src)
            if prop.k != l:
                bad.append((seed, l, "k-mcis"))
            rep = brute_force_improve(inst, prop.k, prop.clause_ids)
            if not rep.promise_holds:
                bad.append((seed, l, "promise-mcis"))
                continue
            reached = rep.neighborhood_value >= len(prop.clause_ids) + l
            if reached != (mis is not None):
                bad.append((seed, l, "decision-mcis"))
            decoded = decode_mcis(rep.neighborhood_witness, src, inst, prop)
            if (decoded is not None) != (mis is not None):
                bad.append((seed, l, "decode-mcis"))
    elapsed = time.perf_counter() - start
    report(
        "5 reduction round trips",
        not bad and elapsed < 120,
        f"{paired_sources} paired-cut + {mcis_sources} IS sources, "
        f"{len(bad)} failures, {elapsed:.1f}s",
    )


def test_criterion_6_structural_invariants(cut_run):
    start = time.perf_counter()
    rng = random.Random(6_000)
    bad = 0

    for _ in range(10_000):
        g = _random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 6))
        m1 = rng.randrange(1 << g.num_vertices)
        m2 = rng.randrange(1 << g.num_vertices)
        if (satisfied_edges(g, m1) ^ satisfied_edges(g, m2)) != (
            crossing_edges(g, m1) ^ crossing_edges(g, m2)
        ):
            bad += 1

    for _ in range(1_000):
        n = rng.randint(3, 8)
        und = [(i, i + 1) for i in range(n - 1)]
        und += [
            tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 5))
        ]
        net = FlowNetwork(n, 0, n - 1)
        for u, v in und:
            c = rng.randint(1, 5)
            net.add_arc(u, v, c)
            net.add_arc(v, u, c)
        _, side = max_flow_min_cut(net, 5 * len(und))  # at least the flow
        for part in (set(side), set(range(n)) - set(side)):
            if not part:
                bad += 1
                continue
            seen = {min(part)}
            stack = [min(part)]
            while stack:
                x = stack.pop()
                for u, v in und:
                    for a, b in ((u, v), (v, u)):
                        if a == x and b in part and b not in seen:
                            seen.add(b)
                            stack.append(b)
            if seen != part:
                bad += 1

    # marked-edge matching held at every contraction step of criterion 2:
    # its loop finished, and it did recurse
    if _cut_stats.get("recursions", 0) == 0:
        bad += 1

    for n in range(1, 11):
        for a in range(0, 3):
            for b in range(0, 3):
                fam = build_coloring_family(n, min(a, n), min(b, n), "exhaustive")
                if not verify_covering(fam):
                    bad += 1
    elapsed = time.perf_counter() - start
    report(
        "6 structural invariants",
        bad == 0,
        f"10^4 identity + 10^3 cut-connectivity + matching + covering, "
        f"{bad} violations, {elapsed:.1f}s",
    )


def test_criterion_7_small_hamming_distance(and_sample):
    # the witness bound applies to the instance as the solver sees it at the
    # flip stage: the proposal reset to the satisfier's satisfied set and the
    # budget grown by the drift (the claim is false for the raw proposal)
    start = time.perf_counter()
    checked = 0
    violations = 0
    for inst, prop, rep in and_sample:
        ai = and_instance_from(inst, prop)
        if find_branch_variable(ai) is not None:
            continue  # the proposal is not satisfiable as given
        bits = find_assignment_satisfying_p(ai)
        alpha = tuple(bits >> v & 1 for v in range(inst.num_vars))
        checked += 1
        r = max(c.language.arity for c in inst.clauses)
        p2 = satisfied_set(inst, alpha)
        k2 = prop.k + len(p2 ^ prop.clause_ids)
        bound = r * k2
        optima = neighborhood_optima(inst, k2, p2)
        if not any(
            sum(1 for v in range(inst.num_vars) if beta[v] != alpha[v]) <= bound
            for beta in optima
        ):
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "7 small-Hamming-witness check",
        violations == 0,
        f"{checked} satisfiable-proposal instances, {violations} violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "symcsp.cli"]

    def run(*args):
        proc = subprocess.run(base + list(args), capture_output=True, text=True)
        assert proc.returncode == 0, (args, proc.stderr)
        return proc.stdout

    start = time.perf_counter()
    run("gen", "--what", "and", "--seed", "8", "--output", str(tmp_path / "a.json"))
    run("gen", "--what", "cut", "--seed", "8", "--output", str(tmp_path / "c.json"))
    run("gen", "--what", "paired-cut", "--seed", "8", "--l", "1",
        "--output", str(tmp_path / "p.json"))
    run("gen", "--what", "mcis", "--seed", "8", "--l", "2",
        "--output", str(tmp_path / "m.json"))
    pairs = [
        ("classify", "--r", "4", "--S", "0,4"),
        ("solve", "--input", str(tmp_path / "a.json"), "--seed", "5"),
        ("solve", "--input", str(tmp_path / "c.json"), "--seed", "5",
         "--q-override", "8"),
        ("solve", "--input", str(tmp_path / "a.json"), "--seed", "5",
         "--coloring", "random"),
        ("reduce", "--source", "paired-cut", "--to", "3ae",
         "--input", str(tmp_path / "p.json")),
        ("reduce", "--source", "mcis", "--input", str(tmp_path / "m.json")),
        ("gen", "--what", "mcis", "--seed", "21", "--l", "3"),
        ("verify", "--suite", "misvw", "--count", "5", "--seed", "2"),
    ]
    bad = 0
    for args in pairs:
        if run(*args) != run(*args):
            bad += 1
    elapsed = time.perf_counter() - start
    report(
        "8 CLI determinism",
        bad == 0,
        f"{len(pairs)} command pairs byte-compared, {bad} diffs, {elapsed:.1f}s",
    )
