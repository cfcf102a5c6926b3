"""Attention substrate: positional priors and synthetic per-source
attention totals.

Substitutes for the paper's Hugging Face attention tensors (see
DESIGN.md section 3.2): the aggregate per-source attention preserves the
position + query-salience structure the explanations depend on.
"""

from .aggregate import (
    aggregate_by_source,
    combination_score,
    normalize_scores,
    rank_sources,
)
from .model import AttentionModel, AttentionTrace
from .positional import (
    PositionPrior,
    inverted_v_weights,
    position_weights,
    primacy_weights,
    recency_weights,
    uniform_weights,
    v_shaped_weights,
)

__all__ = [
    "aggregate_by_source",
    "combination_score",
    "normalize_scores",
    "rank_sources",
    "AttentionModel",
    "AttentionTrace",
    "PositionPrior",
    "inverted_v_weights",
    "position_weights",
    "primacy_weights",
    "recency_weights",
    "uniform_weights",
    "v_shaped_weights",
]
