"""Context-position attention priors.

The paper leans on the "lost in the middle" observation (Liu et al.,
2023): LLMs pay more attention to sources at the beginning and end of
the context than to those in the middle.  RAGE lets the user "calibrate
the expected distribution of LLM context position attention by selecting
a predefined V-shaped distribution"; this module provides that V-shaped
prior plus uniform / primacy / recency alternatives used in ablations.

A prior is a function of ``(position, k)`` returning a weight; the
module-level helpers produce the full normalized weight vector for a
context of ``k`` sources (weights sum to 1).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Dict, List

from ..errors import ConfigError


class PositionPrior(str, Enum):
    """Named, predefined position-attention distributions."""

    V_SHAPED = "v_shaped"
    UNIFORM = "uniform"
    PRIMACY = "primacy"
    RECENCY = "recency"
    INVERTED_V = "inverted_v"


def _relative_position(position: int, k: int) -> float:
    """Map position 0..k-1 onto [-1, 1] (single-source contexts map to 0)."""
    if k == 1:
        return 0.0
    return 2.0 * position / (k - 1) - 1.0


def v_shaped_weights(k: int, depth: float = 0.5) -> List[float]:
    """The "lost in the middle" prior: high at the ends, low in the middle.

    ``depth`` in (0, 1] controls how much the middle is suppressed; the
    raw weight at relative position x is ``(1 - depth) + depth * x**2``,
    normalized to sum to 1.  depth=0 degenerates to uniform.
    """
    if not 0.0 <= depth <= 1.0:
        raise ConfigError(f"depth must be in [0, 1], got {depth}")
    raw = [(1.0 - depth) + depth * _relative_position(i, k) ** 2 for i in range(k)]
    return _normalize(raw)


def inverted_v_weights(k: int, depth: float = 0.5) -> List[float]:
    """The opposite bias (middle-heavy); used as a stress-test prior."""
    raw = [(1.0 - depth) + depth * (1.0 - _relative_position(i, k) ** 2) for i in range(k)]
    return _normalize(raw)


def uniform_weights(k: int) -> List[float]:
    """No position bias."""
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    return [1.0 / k] * k


def primacy_weights(k: int, decay: float = 0.7) -> List[float]:
    """Geometrically decaying attention from the front of the context."""
    if not 0.0 < decay <= 1.0:
        raise ConfigError(f"decay must be in (0, 1], got {decay}")
    raw = [decay**i for i in range(k)]
    return _normalize(raw)


def recency_weights(k: int, decay: float = 0.7) -> List[float]:
    """Geometrically decaying attention from the back of the context."""
    return list(reversed(primacy_weights(k, decay)))


def _normalize(raw: List[float]) -> List[float]:
    if not raw:
        raise ConfigError("cannot build a prior over zero positions")
    if not any(raw):
        # A full-depth shape can zero every position of a short context
        # (V at k=1, inverted V at k=2): it then prefers none of them.
        return [1.0 / len(raw)] * len(raw)
    total = math.fsum(raw)
    if total <= 0:
        raise ConfigError("prior weights must have positive mass")
    return [w / total for w in raw]


_BUILDERS: Dict[PositionPrior, Callable[[int], List[float]]] = {
    PositionPrior.V_SHAPED: v_shaped_weights,
    PositionPrior.UNIFORM: uniform_weights,
    PositionPrior.PRIMACY: primacy_weights,
    PositionPrior.RECENCY: recency_weights,
    PositionPrior.INVERTED_V: inverted_v_weights,
}


def position_weights(
    prior: PositionPrior | str,
    k: int,
    depth: float = 0.5,
    decay: float = 0.7,
) -> List[float]:
    """Normalized attention weights for ``k`` context positions.

    ``prior`` may be a :class:`PositionPrior` member or its string value.
    ``depth`` shapes the V-shaped/inverted-V priors; ``decay`` shapes the
    primacy/recency priors; each is ignored by the other families.
    """
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    key = PositionPrior(prior)
    if key in (PositionPrior.V_SHAPED, PositionPrior.INVERTED_V):
        return _BUILDERS[key](k, depth)  # type: ignore[call-arg]
    if key in (PositionPrior.PRIMACY, PositionPrior.RECENCY):
        return _BUILDERS[key](k, decay)  # type: ignore[call-arg]
    return _BUILDERS[key](k)
