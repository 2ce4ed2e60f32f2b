import math

import pytest

import time

from symcsp.core import DEFAULT_DELTA, GuardError, StructureError
from symcsp.coloring import (
    RANDOM_CAP,
    ColoringFamily,
    build_coloring_family,
    randomized_family_size,
    success_probability,
)

from covering import verify_covering


def test_empty_pair_needs_one_coloring():
    fam = ColoringFamily(3, 0, 0, "exhaustive", (0,))
    assert verify_covering(fam)


def test_exhaustive_family_covers():
    fam = build_coloring_family(4, 1, 1, "exhaustive")
    assert len(fam.colorings) == 16
    assert verify_covering(fam)


def test_single_coloring_cannot_separate_both_orders():
    fam = ColoringFamily(2, 1, 1, "exhaustive", (0b01,))
    assert not verify_covering(fam)


def test_exhaustive_cap():
    with pytest.raises(GuardError):
        build_coloring_family(20, 2, 2, "exhaustive")


def test_random_cap_guards_before_drawing():
    # (12, 12) asks for about 1.2e8 draws; the guard fires before any
    start = time.perf_counter()
    with pytest.raises(GuardError):
        build_coloring_family(40, 12, 12, "random", seed=1)
    assert time.perf_counter() - start < 0.1
    # the cap keeps (8, 8) and stops (9, 9) at the default delta
    assert randomized_family_size(8, 8, DEFAULT_DELTA) <= RANDOM_CAP
    assert randomized_family_size(9, 9, DEFAULT_DELTA) > RANDOM_CAP
    with pytest.raises(GuardError):
        build_coloring_family(30, 9, 9, "random", seed=1)
    # enumeration still applies below the cap on 2^n
    assert build_coloring_family(12, 12, 12, "random", seed=1).mode == "exhaustive"


def test_randomized_size_formula():
    delta = 0.01
    fam = build_coloring_family(10, 2, 2, "random", seed=123, delta=delta)
    p = success_probability(2, 2)
    assert p == pytest.approx((2 / 4) ** 2 * (2 / 4) ** 2)
    assert len(fam.colorings) == math.ceil(math.log(1 / delta) / p)
    assert len(fam.colorings) == randomized_family_size(2, 2, delta)


def test_randomized_family_covers_small():
    fam = build_coloring_family(8, 2, 2, "random", seed=99, delta=1e-6)
    assert verify_covering(fam)


def test_randomized_guarantee_is_per_pair():
    # delta bounds the failure chance of each (A, B) pair individually, so a
    # coarse family misses a few of the ~2000 pairs; the observed miss rate
    # must stay near delta (full coverage needs the tiny-delta family above)
    from itertools import combinations

    delta = 0.01
    fam = build_coloring_family(10, 2, 2, "random", seed=7, delta=delta)
    misses = total = 0
    for a_set in combinations(range(10), 2):
        a_mask = (1 << a_set[0]) | (1 << a_set[1])
        rest = [i for i in range(10) if i not in a_set]
        for b_set in combinations(rest, 2):
            b_mask = (1 << b_set[0]) | (1 << b_set[1])
            total += 1
            if not any(
                (m & a_mask) == a_mask and (m & b_mask) == 0
                for m in fam.colorings
            ):
                misses += 1
    assert misses / total < 5 * delta


def test_random_mode_requires_seed_and_valid_delta():
    with pytest.raises(StructureError):
        build_coloring_family(4, 1, 1, "random")
    with pytest.raises(StructureError):
        build_coloring_family(4, 1, 1, "random", seed=1, delta=1.5)
    with pytest.raises(StructureError):
        build_coloring_family(4, 5, 0, "exhaustive")


def test_determinism():
    a = build_coloring_family(9, 3, 2, "random", seed=5)
    b = build_coloring_family(9, 3, 2, "random", seed=5)
    assert a.colorings == b.colorings
    c = build_coloring_family(9, 3, 2, "random", seed=6)
    assert a.colorings != c.colorings


def test_verify_covering_guard():
    fam = build_coloring_family(4, 1, 1, "exhaustive")
    with pytest.raises(GuardError):
        verify_covering(fam, limit_n=3)


def test_degenerate_bias():
    fam = build_coloring_family(5, 0, 3, "random", seed=1)
    assert all(m == 0 for m in fam.colorings)
    assert verify_covering(fam)


def test_random_mode_enumerates_when_no_larger():
    # (a, b) = (2, 2) needs ceil(ln(1/delta) / 2^-4) random draws
    delta = 2.0 ** -20
    size = randomized_family_size(2, 2, delta)
    assert 2 ** 7 <= size < 2 ** 8
    small = build_coloring_family(7, 2, 2, "random", seed=3, delta=delta)
    assert small.mode == "exhaustive" and tuple(small.colorings) == tuple(range(2 ** 7))
    large = build_coloring_family(8, 2, 2, "random", seed=3, delta=delta)
    assert large.mode == "random" and len(large.colorings) == size


def test_random_family_failure_rate_at_large_delta():
    # a = b = 2 and delta = 1/4 give ceil(ln 4 * 16) = 23 draws, and a fixed
    # (A, B) pair escapes all of them with chance (15/16)^23 ~ 0.227 <= delta
    # (Alon-Yuster-Zwick).  Over independent seeds the number of families
    # missing the pair is binomial, so the observed rate stays within 4
    # standard deviations of that chance
    delta, seeds = 0.25, 4000
    size = randomized_family_size(2, 2, delta)
    miss = (1 - success_probability(2, 2)) ** size
    assert size == 23 and miss == pytest.approx((15 / 16) ** 23) and miss <= delta
    a_mask, b_mask = 0b00011, 0b01100
    misses = 0
    for seed in range(seeds):
        fam = build_coloring_family(5, 2, 2, "random", seed=seed, delta=delta)
        assert fam.mode == "random" and len(fam.colorings) == size
        misses += not any(m & a_mask == a_mask and not m & b_mask for m in fam.colorings)
    assert abs(misses / seeds - miss) <= 4 * math.sqrt(miss * (1 - miss) / seeds)
