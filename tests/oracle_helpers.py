"""Test helpers: exhaustive answers that only the tests ask for.

`symcsp.oracle` keeps what the solvers, the CLI and the benchmark gate
call.  These two build on its enumeration: every assignment attaining the
optimum within distance k of a proposal, and the minimum cost of an
instance (its optimum within distance 0 of the all-clauses proposal).
"""

from __future__ import annotations

import numpy as np

from symcsp.core import GuardError, Instance
from symcsp.oracle import _assignment_of, _value_delta_tables, brute_force_improve

NEIGHBORHOOD_GUARD_VARS = 16


def neighborhood_optima(instance: Instance, k: int, p_ids):
    """All assignments attaining the optimum-in-k-neighborhood."""
    n = instance.num_vars
    if n > NEIGHBORHOOD_GUARD_VARS:
        raise GuardError(f"neighborhood_optima guarded at {NEIGHBORHOOD_GUARD_VARS} variables")
    variables = range(n)
    values, deltas = _value_delta_tables(instance, frozenset(p_ids), variables, 0, 1 << n)
    near = deltas <= k
    if not near.any():
        return []
    nmax = int(values[near].max())
    return [
        _assignment_of(int(i), variables, n)
        for i in np.nonzero(near & (values == nmax))[0]
    ]


def brute_force_mincsp(instance: Instance) -> tuple:
    """(minimum cost, lexicographically smallest witness)."""
    report = brute_force_improve(instance, 0, frozenset(c.id for c in instance.clauses))
    return len(instance.clauses) - report.global_value, report.global_witness
