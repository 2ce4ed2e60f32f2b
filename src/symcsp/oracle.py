"""Exhaustive reference solvers: the ground truth for every acceptance test.

No pruning anywhere on purpose; these must stay obviously correct.  Hard
size guards raise instead of running forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GuardError, Instance, SolveContext, VerificationError
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


def _value_delta_tables(instance: Instance, p_ids, variables, lo: int, hi: int) -> tuple:
    """Value and proposal distance of the assignments lo..hi-1 to `variables`
    (index bit i is variables[i]); no clause reads any other variable.
    The clauses of one arity r form a stack, scored in chunks of at most
    `IMPROVE_BLOCK` cells: their literals' bit rows add up to a count per
    clause and assignment, read in the clause's (r+1)-entry table."""
    index = np.arange(lo, hi, dtype=np.min_scalar_type(hi - 1))
    bits = np.empty((len(variables), hi - lo), dtype=np.uint8)
    for i in range(len(variables)):
        np.bitwise_and(index >> i, 1, out=bits[i], casting="unsafe")
    del index  # the stacks read only the bit rows
    pos = {v: i for i, v in enumerate(variables)}
    # no sum exceeds the clause count
    values = np.zeros(hi - lo, dtype=np.min_scalar_type(len(instance.clauses)))
    deltas = np.zeros_like(values)
    for r in {len(c.scope) for c in instance.clauses}:
        stack = [c for c in instance.clauses if len(c.scope) == r]
        scope = np.array([[pos[v] for v in c.scope] for c in stack], dtype=np.intp).reshape(-1, r)
        neg = np.array([c.neg for c in stack], dtype=np.uint8).reshape(-1, r, 1)
        rows = {s: [x in s for x in range(r + 1)] for s in {c.language.counts for c in stack}}
        # clause i's table starts at entry i(r+1), where its count starts
        accepts = np.array([rows[c.language.counts] for c in stack]).ravel()
        start = np.arange(0, accepts.size, r + 1, dtype=np.min_scalar_type(accepts.size))[:, None]
        proposed = np.array([[c.id in p_ids] for c in stack])
        step = max(1, IMPROVE_BLOCK // (hi - lo))
        for a in range(0, len(stack), step):
            count = np.repeat(start[a:a + step], hi - lo, axis=1)
            for j in range(r):
                count += bits[scope[a:a + step, j]] ^ neg[a:a + step, j]
            sat = accepts.take(count)
            values += sat.sum(axis=0, dtype=values.dtype)
            deltas += (sat != proposed[a:a + step]).sum(axis=0, dtype=values.dtype)
    return values, deltas


def _block_optima(instance: Instance, p_ids, variables, k: int, lo: int, hi: int) -> tuple:
    """(value, lex-min witness) of the optimum and of the optimum within
    distance k (None if none) over the assignments lo..hi-1."""
    values, deltas = _value_delta_tables(instance, p_ids, variables, lo, hi)
    n = instance.num_vars
    gmax = int(values.max())
    best = gmax, _assignment_of(lo + int(np.argmax(values == gmax)), variables, n)
    near = deltas <= k
    if not near.any():
        return best, None
    nmax = int(values[near].max())
    return best, (nmax, _assignment_of(lo + int(np.argmax(near & (values == nmax))), variables, n))


def brute_force_improve(instance: Instance, k: int, p_ids, run: SolveContext | None = None) -> OracleReport:
    """Exact optimum and optimum-in-k-neighborhood by full enumeration of
    the variables that occur in some clause; every other variable is 0.

    Values and distances do not read the other variables, and 0 is the
    lex-smaller bit, so both lex-min witnesses are those of the full 2^n
    enumeration.  The lowest variable is the highest index bit, so index
    order is lex order.  The guard counts the enumerated variables; the
    assignments are scored in blocks of `IMPROVE_BLOCK`.  `run`'s deadline
    is polled before each block but the first; once it has passed, the
    blocks scored so far answer and `run.timed_out` is set.
    """
    variables = sorted({v for c in instance.clauses for v in c.scope}, reverse=True)
    m = len(variables)
    if m > IMPROVE_GUARD_VARS:
        raise GuardError(
            f"brute_force_improve guarded at {IMPROVE_GUARD_VARS} clause variables"
        )
    p_ids, big = frozenset(p_ids), 1 << m
    blocks = []
    for lo in range(0, big, IMPROVE_BLOCK):
        if lo and run is not None and run.expired():
            break
        blocks.append(_block_optima(instance, p_ids, variables, k, lo, min(lo + IMPROVE_BLOCK, big)))
    # blocks come in lex order: the first block of the highest value wins
    best = max((b for b, _ in blocks), key=lambda b: b[0])
    near = [b for _, b in blocks if b is not None]
    if not near:
        return OracleReport(*best, False, None, None)
    return OracleReport(*best, True, *max(near, key=lambda b: b[0]))


def brute_force_misvw(h: WeightedHypergraph) -> tuple:
    """Exact selection optimum by subset enumeration; lex-min witness."""
    n = h.num_vertices
    if n > MISVW_GUARD_VERTICES:
        raise GuardError(f"brute_force_misvw guarded at {MISVW_GUARD_VERTICES} vertices")
    big = 1 << n
    masks = np.arange(big, dtype=np.int64)
    obj = np.zeros(big, dtype=np.int64)
    # vertex v is bit n-1-v, so index order is lex order
    for e in h.hyperedges:
        emask = 0
        for v in e:
            emask |= 1 << (n - 1 - v)
        obj += (masks & emask) == emask
    for v in range(n):
        obj -= h.weights[v] * ((masks >> (n - 1 - v)) & 1)
    best = int(obj.max())
    wit_index = int(np.argmax(obj == best))
    v0 = frozenset(v for v in range(n) if (wit_index >> (n - 1 - v)) & 1)
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
