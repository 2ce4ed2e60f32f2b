"""Families of binary colorings with an (A, B)-separation guarantee.

A family over a universe of size n covers (a, b) when for every pair of
disjoint sets A, B with |A| <= a and |B| <= b some member colors all of A
with 1 and all of B with 0.  Exhaustive mode emits every coloring (complete
by construction, capped, and lazy: a ``range``); randomized mode draws
Monte-Carlo colorings whose per-pair failure probability is at most delta,
unless emitting every coloring is no larger, and refuses a draw larger than
``RANDOM_CAP``.  Random draws are lazy too, so a consumer that polls a
deadline between colorings stops the drawing as well.  The derandomized splitter construction is deliberately not
reimplemented; consumers depend only on the covering contract, which both
modes realize.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

from .core import DEFAULT_DELTA, GuardError, StructureError

EXHAUSTIVE_CAP = 1 << 16
RANDOM_CAP = 1 << 20  # largest Monte-Carlo family drawn


class _Draws(Sequence):
    """`size` seeded colorings over n elements, each bit 1 with chance p1,
    drawn again on each pass from a fresh generator, so every pass yields
    the same masks in the same order.  Indexing and equality draw them all."""

    def __init__(self, n: int, p1: float, size: int, seed: int):
        self.n, self.p1, self.size, self.seed = n, p1, size, seed

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        rng = random.Random(self.seed)
        for _ in range(self.size):
            yield sum(1 << i for i in range(self.n) if rng.random() < self.p1)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, _Draws) else other)


@dataclass(frozen=True)
class ColoringFamily:
    """Colorings stored as bitmasks: bit i set means element i has color 1.
    Exhaustive families hold ``range(2 ** n)``, random ones lazy draws."""

    n: int
    a: int
    b: int
    mode: str
    colorings: Sequence


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
    """All 2^n colorings (capped) in exhaustive mode, and in random mode
    whenever that is no larger than the seeded Monte-Carlo family.

    n is the universe the caller's masks span, so the cap counts the
    colorings it can walk: the AND flip search passes its relevant variables
    in exhaustive mode and its free variables in random mode."""
    if not (0 <= a <= n and 0 <= b <= n):
        raise StructureError(f"need 0 <= a,b <= n, got a={a} b={b} n={n}")
    if mode == "random":
        if seed is None:
            raise StructureError("randomized mode requires a seed")
        if not (0.0 < delta < 1.0):
            raise StructureError("delta must lie in (0, 1)")
        size = randomized_family_size(a, b, delta)
        if 2 ** n <= min(size, EXHAUSTIVE_CAP):
            mode = "exhaustive"
        elif size > RANDOM_CAP:
            raise GuardError(f"random family of {size} colorings exceeds cap {RANDOM_CAP}")
    elif mode != "exhaustive":
        raise StructureError(f"unknown coloring mode {mode!r}")
    if mode == "exhaustive":
        if 2 ** n > EXHAUSTIVE_CAP:
            raise GuardError(f"exhaustive family of 2^{n} colorings exceeds cap {EXHAUSTIVE_CAP}")
        return ColoringFamily(n, a, b, mode, range(2 ** n))
    p1 = a / (a + b) if a + b > 0 else 0.0
    return ColoringFamily(n, a, b, mode, _Draws(n, p1, size, seed))

