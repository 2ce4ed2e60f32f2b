"""Families of binary colorings with an (A, B)-separation guarantee.

A family over a universe of size n covers (a, b) when for every pair of
disjoint sets A, B with |A| <= a and |B| <= b some member colors all of A
with 1 and all of B with 0.  Exhaustive mode emits every coloring (complete
by construction, capped); randomized mode draws Monte-Carlo colorings whose
per-pair failure probability is at most delta.  The derandomized splitter
construction is deliberately not reimplemented; consumers depend only on
the covering contract, which both modes realize.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .core import GuardError, StructureError

EXHAUSTIVE_CAP = 1 << 16
DEFAULT_DELTA = 2.0 ** -20


@dataclass(frozen=True)
class ColoringFamily:
    """Colorings stored as bitmasks: bit i set means element i has color 1."""

    n: int
    a: int
    b: int
    mode: str
    colorings: tuple


def success_probability(a: int, b: int) -> float:
    """Chance one biased random coloring separates a fixed worst-case (A, B)."""
    if a + b == 0:
        return 1.0
    p1 = a / (a + b)
    return (p1 ** a) * ((1.0 - p1) ** b)


def randomized_family_size(a: int, b: int, delta: float) -> int:
    return math.ceil(math.log(1.0 / delta) / success_probability(a, b))


def build_coloring_family(
    n: int,
    a: int,
    b: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    delta: float = DEFAULT_DELTA,
) -> ColoringFamily:
    if not (0 <= a <= n and 0 <= b <= n):
        raise StructureError(f"need 0 <= a,b <= n, got a={a} b={b} n={n}")
    if mode == "exhaustive":
        if 2 ** n > EXHAUSTIVE_CAP:
            raise GuardError(f"exhaustive family of 2^{n} colorings exceeds cap {EXHAUSTIVE_CAP}")
        return ColoringFamily(n, a, b, mode, tuple(range(2 ** n)))
    if mode != "random":
        raise StructureError(f"unknown coloring mode {mode!r}")
    if seed is None:
        raise StructureError("randomized mode requires a seed")
    if not (0.0 < delta < 1.0):
        raise StructureError("delta must lie in (0, 1)")
    rng = random.Random(seed)
    size = randomized_family_size(a, b, delta)
    p1 = a / (a + b) if a + b > 0 else 0.0
    colorings = []
    for _ in range(size):
        mask = 0
        for i in range(n):
            if rng.random() < p1:
                mask |= 1 << i
        colorings.append(mask)
    return ColoringFamily(n, a, b, mode, tuple(colorings))


def verify_covering(family: ColoringFamily, limit_n: int = 12) -> bool:
    """Exhaustively check the separation guarantee; guarded for small n."""
    n, a, b = family.n, family.a, family.b
    if n > limit_n:
        raise GuardError(f"covering verification limited to n <= {limit_n}")
    masks = family.colorings
    universe = range(n)
    for asize in range(a + 1):
        for a_set in combinations(universe, asize):
            a_mask = 0
            for i in a_set:
                a_mask |= 1 << i
            rest = [i for i in universe if i not in a_set]
            for bsize in range(b + 1):
                for b_set in combinations(rest, bsize):
                    b_mask = 0
                    for i in b_set:
                        b_mask |= 1 << i
                    if not any(
                        (m & a_mask) == a_mask and (m & b_mask) == 0 for m in masks
                    ):
                        return False
    return True
