"""Tractability classifier for negation-closed symmetric languages.

Decides whether improving a proposed solution over the language generated by
an accepted-count relation is fixed-parameter tractable, and if not, which
hardness case certifies it.  The verdict comes from an explicit pattern
match on the canonical count set, O(|S|) per call.  The generic
relation-theoretic checks it is tested against (2-decomposability,
implicative-clause closure, Gaifman/arrow graphs) live in the test helper
`tests/relations.py`; the suite compares the two on every count set of
arity 1..6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import StructureError, normalize_language

LABEL_TRIVIAL = "Trivial"
LABEL_FPT_AND = "FPT_rAND"
LABEL_FPT_2AE = "FPT_2AE"
LABEL_W1 = "W1_Hard"

CERT_AE = "rAE_r>=3"
CERT_LE1 = "le1_r>=2"
CERT_MINCSP = "MinCSP_hard"


@dataclass(frozen=True)
class ClassificationVerdict:
    label: str
    certificate: str

    def __post_init__(self):
        if self.label == LABEL_W1 and self.certificate not in (
            CERT_AE,
            CERT_LE1,
            CERT_MINCSP,
        ):
            raise StructureError(f"bad W1 certificate {self.certificate!r}")


def classify(r: int, counts) -> ClassificationVerdict:
    """Place the language on the tractable/W1-hard side, with certificate.

    The verdict is a pattern match on the canonical count set, so a call
    costs O(|S|) whatever the arity.
    """
    canon = normalize_language(r, counts)
    s = canon.counts

    if canon.trivial():
        return ClassificationVerdict(LABEL_TRIVIAL, "trivial")
    if s == frozenset({r}) or s == frozenset({0}):
        return ClassificationVerdict(LABEL_FPT_AND, "rAND")
    if r == 2 and s in (frozenset({0, 2}), frozenset({1})):
        return ClassificationVerdict(LABEL_FPT_2AE, "2AE")
    if r >= 3 and s == frozenset({0, r}):
        return ClassificationVerdict(LABEL_W1, CERT_AE)
    if r >= 2 and s in (frozenset({0, 1}), frozenset({r - 1, r})):
        return ClassificationVerdict(LABEL_W1, CERT_LE1)
    return ClassificationVerdict(LABEL_W1, CERT_MINCSP)
