"""Improvement solvers, tractability classifier, and hardness reductions
for symmetric Boolean constraint satisfaction."""

from .and_solver import solve_and
from .classifier import ClassificationVerdict, classify
from .core import (
    Clause,
    Instance,
    ProposedSolution,
    SymmetricLanguage,
    eval_clause,
    instance_from_json,
    instance_to_json,
    normalize_language,
    satisfied_set,
)
from .cut_solver import CutEdge, CutGraph, CutInstance, cut_improve, solve_2ae
from .flow import WeightedHypergraph, solve_mis_vw
from .oracle import OracleReport, brute_force_improve

__all__ = [
    "ClassificationVerdict",
    "Clause",
    "CutEdge",
    "CutGraph",
    "CutInstance",
    "Instance",
    "OracleReport",
    "ProposedSolution",
    "SymmetricLanguage",
    "WeightedHypergraph",
    "brute_force_improve",
    "classify",
    "cut_improve",
    "eval_clause",
    "instance_from_json",
    "instance_to_json",
    "normalize_language",
    "satisfied_set",
    "solve_2ae",
    "solve_and",
    "solve_mis_vw",
]
