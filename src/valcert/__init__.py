"""Exact valuation engine for key-polynomial generating sequences.

The package computes valuations on rational function fields of small
positive characteristic from the recursion-defined generating sequences on
(u,v) and (x,y), builds the associated tower of free quadratic transforms,
follows the Artin-Schreier approximant ladder of the degree-p extension by
x, and emits machine-checked certificates that the sampled evidence is
consistent with that extension being a dependent defect extension.
"""

__version__ = "0.1.0"

from .embeddings import EmbeddingConfig, embed_uv
from .engine import Expansion, ExpansionTerm, ValueTieError, expand, value
from .keyseq import GenSeq, p_sequence, q_sequence
from .parsing import ParseError, parse_expr
from .polys import (
    BudgetExceededError,
    NonMonicDivisorError,
    Poly,
    RatFunc,
    Ring,
    RingMismatchError,
    ring_uv,
    ring_xv,
    ring_xy,
    substitute,
    support_limit,
)
from .values import INFINITY, omega

__all__ = [
    "__version__",
    "INFINITY",
    "omega",
    "Ring",
    "ring_uv",
    "ring_xy",
    "ring_xv",
    "Poly",
    "RatFunc",
    "substitute",
    "support_limit",
    "RingMismatchError",
    "NonMonicDivisorError",
    "BudgetExceededError",
    "GenSeq",
    "p_sequence",
    "q_sequence",
    "Expansion",
    "ExpansionTerm",
    "ValueTieError",
    "expand",
    "value",
    "EmbeddingConfig",
    "embed_uv",
    "ParseError",
    "parse_expr",
]
