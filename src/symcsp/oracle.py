"""Exhaustive reference solvers: the ground truth for every acceptance test.

No pruning anywhere on purpose; these must stay obviously correct.  Hard
size guards raise instead of running forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GuardError, Instance
from .flow import WeightedHypergraph, selection_objective

IMPROVE_GUARD_VARS = 24
CUT_GUARD_VERTICES = 20
MISVW_GUARD_VERTICES = 20


@dataclass(frozen=True)
class OracleReport:
    global_value: int
    global_witness: tuple
    promise_holds: bool
    neighborhood_value: int | None
    neighborhood_witness: tuple | None


def _assignment_of(index: int, n: int) -> tuple:
    return tuple((index >> v) & 1 for v in range(n))


def _lex_min_index(indices: np.ndarray, n: int) -> int:
    # lex order of assignment tuples = numeric order after bit reversal
    rev = np.zeros_like(indices)
    for v in range(n):
        rev |= ((indices >> v) & 1) << (n - 1 - v)
    return int(indices[int(np.argmin(rev))])


def _value_delta_tables(instance: Instance, p_ids) -> tuple:
    n = instance.num_vars
    big = 1 << n
    idx = np.arange(big, dtype=np.int64)
    values = np.zeros(big, dtype=np.int32)
    deltas = np.zeros(big, dtype=np.int32)
    for c in instance.clauses:
        count = np.zeros(big, dtype=np.int32)
        for v, b in zip(c.scope, c.neg):
            count += ((idx >> v) & 1).astype(np.int32) ^ b
        sat = np.isin(count, sorted(c.language.counts))
        values += sat
        deltas += sat != (c.id in p_ids)
    return values, deltas


def brute_force_improve(
    instance: Instance, k: int, p_ids, guard: int = IMPROVE_GUARD_VARS
) -> OracleReport:
    """Exact optimum and optimum-in-k-neighborhood by full enumeration."""
    n = instance.num_vars
    if n > guard:
        raise GuardError(f"brute_force_improve guarded at {guard} variables")
    values, deltas = _value_delta_tables(instance, frozenset(p_ids))
    gmax = int(values.max()) if values.size else 0
    gwit = _assignment_of(_lex_min_index(np.nonzero(values == gmax)[0], n), n)
    near = deltas <= k
    if near.any():
        nmax = int(values[near].max())
        cand = np.nonzero(near & (values == nmax))[0]
        nwit = _assignment_of(_lex_min_index(cand, n), n)
        return OracleReport(gmax, gwit, True, nmax, nwit)
    return OracleReport(gmax, gwit, False, None, None)


def neighborhood_optima(instance: Instance, k: int, p_ids, guard: int = 16):
    """All assignments attaining the optimum-in-k-neighborhood."""
    n = instance.num_vars
    if n > guard:
        raise GuardError(f"neighborhood_optima guarded at {guard} variables")
    values, deltas = _value_delta_tables(instance, frozenset(p_ids))
    near = deltas <= k
    if not near.any():
        return []
    nmax = int(values[near].max())
    return [
        _assignment_of(int(i), n) for i in np.nonzero(near & (values == nmax))[0]
    ]


def brute_force_mincsp(instance: Instance, guard: int = IMPROVE_GUARD_VARS) -> tuple:
    """(minimum cost, lexicographically smallest witness)."""
    report = brute_force_improve(instance, 0, frozenset(c.id for c in instance.clauses), guard)
    return len(instance.clauses) - report.global_value, report.global_witness


def brute_force_misvw(h: WeightedHypergraph, guard: int = MISVW_GUARD_VERTICES) -> tuple:
    """Exact selection optimum by subset enumeration; lex-min witness."""
    n = h.num_vertices
    if n > guard:
        raise GuardError(f"brute_force_misvw guarded at {guard} vertices")
    big = 1 << n
    masks = np.arange(big, dtype=np.int64)
    obj = np.zeros(big, dtype=np.int64)
    for e in h.hyperedges:
        emask = 0
        for v in e:
            emask |= 1 << v
        obj += (masks & emask) == emask
    for v in range(n):
        obj -= h.weights[v] * ((masks >> v) & 1)
    best = int(obj.max())
    wit_index = _lex_min_index(np.nonzero(obj == best)[0], n)
    v0 = frozenset(v for v in range(n) if (wit_index >> v) & 1)
    assert selection_objective(h, v0) == best
    return v0, best


def brute_force_cut(
    num_vertices: int, edges, types, p_ids, k: int, guard: int = CUT_GUARD_VERTICES
) -> OracleReport:
    """Exact cut-improvement optimum over all vertex bipartitions.

    edges is a sequence of (id, u, v); types maps position -> 0/1; the
    witness is the numerically smallest side mask among optima.
    """
    n = num_vertices
    if n > guard:
        raise GuardError(f"brute_force_cut guarded at {guard} vertices")
    big = 1 << n
    masks = np.arange(big, dtype=np.int64)
    values = np.zeros(big, dtype=np.int32)
    deltas = np.zeros(big, dtype=np.int32)
    p_ids = frozenset(p_ids)
    for (eid, u, v), t in zip(edges, types):
        crossed = ((masks >> u) ^ (masks >> v)) & 1
        sat = (crossed == 1) if t == 1 else (crossed == 0)
        values += sat
        deltas += sat != (eid in p_ids)
    gmax = int(values.max()) if values.size else 0
    gwit = int(masks[np.nonzero(values == gmax)[0][0]])
    near = deltas <= k
    if near.any():
        nmax = int(values[near].max())
        nwit = int(masks[np.nonzero(near & (values == nmax))[0][0]])
        return OracleReport(gmax, (gwit,), True, nmax, (nwit,))
    return OracleReport(gmax, (gwit,), False, None, None)
