"""Test helper: exhaustive check of a coloring family's covering contract."""

from itertools import combinations

from symcsp.coloring import ColoringFamily
from symcsp.core import GuardError


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
