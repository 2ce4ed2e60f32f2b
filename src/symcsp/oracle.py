"""Exhaustive reference solvers: the ground truth for every acceptance test.

No pruning anywhere on purpose; these must stay obviously correct.  Hard
size guards raise instead of running forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GuardError, Instance, VerificationError
from .flow import WeightedHypergraph, selection_objective

IMPROVE_GUARD_VARS = 24
CUT_GUARD_VERTICES = 20
MISVW_GUARD_VERTICES = 20
IMPROVE_BLOCK = 1 << 20  # assignments brute_force_improve scores at a time


@dataclass(frozen=True)
class OracleReport:
    global_value: int
    global_witness: tuple
    promise_holds: bool
    neighborhood_value: int | None
    neighborhood_witness: tuple | None


def _assignment_of(index: int, variables, n: int) -> tuple:
    """The n-tuple with variables[i] = bit i of index and every other 0."""
    out = [0] * n
    for i, v in enumerate(variables):
        out[v] = (index >> i) & 1
    return tuple(out)


def _lex_min_index(indices: np.ndarray, n: int) -> int:
    # lex order of assignment tuples = numeric order after bit reversal
    rev = np.zeros_like(indices)
    for v in range(n):
        rev |= ((indices >> v) & 1) << (n - 1 - v)
    return int(indices[int(np.argmin(rev))])


def _value_delta_tables(instance: Instance, p_ids, variables, idx) -> tuple:
    """Value and proposal distance of the assignments `idx` to `variables`
    (index bit i is variables[i]); no clause reads any other variable."""
    pos = {v: i for i, v in enumerate(variables)}
    values = np.zeros(len(idx), dtype=np.int32)
    deltas = np.zeros(len(idx), dtype=np.int32)
    for c in instance.clauses:
        count = np.zeros(len(idx), dtype=np.int32)
        for v, b in zip(c.scope, c.neg):
            count += ((idx >> pos[v]) & 1).astype(np.int32) ^ b
        sat = np.isin(count, sorted(c.language.counts))
        values += sat
        deltas += sat != (c.id in p_ids)
    return values, deltas


def _block_optima(instance: Instance, p_ids, variables, k: int, lo: int, hi: int) -> tuple:
    """(value, lex-min witness) of the optimum and of the optimum within
    distance k (None if none) over the assignments lo..hi-1."""
    idx = np.arange(lo, hi, dtype=np.int64)
    values, deltas = _value_delta_tables(instance, p_ids, variables, idx)
    m, n = len(variables), instance.num_vars
    gmax = int(values.max())
    best = gmax, _assignment_of(_lex_min_index(idx[values == gmax], m), variables, n)
    near = deltas <= k
    if not near.any():
        return best, None
    nmax = int(values[near].max())
    return best, (nmax, _assignment_of(_lex_min_index(idx[near & (values == nmax)], m), variables, n))


def brute_force_improve(instance: Instance, k: int, p_ids) -> OracleReport:
    """Exact optimum and optimum-in-k-neighborhood by full enumeration of
    the variables that occur in some clause; every other variable is 0.

    Values and distances do not read the other variables, and 0 is the
    lex-smaller bit, so both lex-min witnesses are those of the full 2^n
    enumeration.  The guard counts the enumerated variables; the
    assignments are scored in blocks of `IMPROVE_BLOCK`.
    """
    variables = sorted({v for c in instance.clauses for v in c.scope})
    m = len(variables)
    if m > IMPROVE_GUARD_VARS:
        raise GuardError(
            f"brute_force_improve guarded at {IMPROVE_GUARD_VARS} clause variables"
        )
    p_ids, big = frozenset(p_ids), 1 << m
    blocks = [_block_optima(instance, p_ids, variables, k, lo, min(lo + IMPROVE_BLOCK, big))
              for lo in range(0, big, IMPROVE_BLOCK)]
    # the higher value wins, then the lex-smaller witness
    best = min((b for b, _ in blocks), key=lambda b: (-b[0], b[1]))
    near = [b for _, b in blocks if b is not None]
    if not near:
        return OracleReport(*best, False, None, None)
    return OracleReport(*best, True, *min(near, key=lambda b: (-b[0], b[1])))


def brute_force_misvw(h: WeightedHypergraph) -> tuple:
    """Exact selection optimum by subset enumeration; lex-min witness."""
    n = h.num_vertices
    if n > MISVW_GUARD_VERTICES:
        raise GuardError(f"brute_force_misvw guarded at {MISVW_GUARD_VERTICES} vertices")
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
    if selection_objective(h, v0) != best:
        raise VerificationError("brute_force_misvw witness misses the optimum")
    return v0, best


def brute_force_cut(num_vertices: int, edges, types, p_ids, k: int) -> OracleReport:
    """Exact cut-improvement optimum over all vertex bipartitions.

    edges is a sequence of (id, u, v); types maps position -> 0/1; the
    witness is the numerically smallest side mask among optima.
    """
    n = num_vertices
    if n > CUT_GUARD_VERTICES:
        raise GuardError(f"brute_force_cut guarded at {CUT_GUARD_VERTICES} vertices")
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
