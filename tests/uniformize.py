"""Test helper: padding every all-equal clause up to one arity.

`symcsp.reductions.pad_ae` lifts every clause by one; the tests also check
that repeated padding of only the shorter clauses gives a uniform-arity
instance with the same optimum.
"""

from __future__ import annotations

from symcsp.core import Clause, Instance, ProposedSolution, StructureError, ae_language


def uniformize_ae(instance: Instance, proposed: ProposedSolution, target_arity: int):
    """Repeated padding of the shorter clauses only, until all-equal clauses
    share the target arity."""
    if not instance.is_ae_family():
        raise StructureError("uniformize requires all-equal clauses")
    clauses = list(instance.clauses)
    next_var = instance.num_vars
    out = []
    for c in clauses:
        if c.language.arity > target_arity:
            raise StructureError("clause arity above target")
        neg, scope = c.neg, c.scope
        while len(scope) < target_arity:
            scope = scope + (next_var,)
            neg = neg + (neg[0],)
            next_var += 1
        out.append(Clause(c.id, neg, scope, ae_language(target_arity)))
    return Instance(next_var, tuple(out)), proposed
