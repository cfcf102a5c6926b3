"""Synthetic per-source attention totals.

The real RAGE sums Llama-2 attention values "over all internal layers,
attention heads, and tokens corresponding to a combination's constituent
sources".  That sum is all RAGE reads, so a trace here is one total per
source.  Without the real model each total is synthesized from the two
signals that drive the aggregate:

* **position** — each source's share of attention follows the simulated
  LLM's positional prior (V-shaped by default), and
* **query salience** — within a source, tokens overlapping the query's
  content terms receive proportionally more attention.

On top of that deterministic backbone, per-(layer, head, token) values
are modulated by a hash-seeded pseudo-random factor, so totals vary the
way real heads do while remaining exactly reproducible.

A total is a pure function of the model shape, seed, position weight,
query and source text, and perturbation searches ask for the same ones
over and over, so every stage is memoized in bounded module-level
caches.  The float operations and their order are fixed: totals are
bit-identical to summing a full per-token, per-layer, per-head trace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import FrozenSet, List, Sequence, Tuple

from ..errors import ConfigError
from ..textproc import DEFAULT_TOKENIZER, word_spans
from .positional import PositionPrior, position_weights


def _hash_unit(*parts: object) -> float:
    """Deterministic pseudo-random float in (0, 1) from the parts' hash."""
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (int.from_bytes(digest, "big") + 1) / (2**64 + 2)


@dataclass
class AttentionTrace:
    """The attention record for one generation.

    Attributes
    ----------
    num_layers, num_heads:
        Tensor dimensions the totals were summed over.
    source_totals:
        Attention per source, summed over every layer, head and token,
        aligned with the context order the prompt presented; 0.0 for a
        source with no word tokens.
    """

    num_layers: int
    num_heads: int
    source_totals: List[float] = field(default_factory=list)


@lru_cache(maxsize=4096)
def _terms(text: str) -> FrozenSet[str]:
    """Analyzed terms of a query or of one word."""
    return frozenset(DEFAULT_TOKENIZER.tokenize(text))


@lru_cache(maxsize=4096)
def _noise(
    seed: int, source_index: int, token_index: int, num_layers: int, num_heads: int
) -> Tuple[Tuple[float, ...], ...]:
    """Per-layer, per-head attention multipliers in (0.5, 1.5)."""
    return tuple(
        tuple(
            0.5 + _hash_unit(seed, source_index, token_index, layer, head)
            for head in range(num_heads)
        )
        for layer in range(num_layers)
    )


@lru_cache(maxsize=8192)
def _source_total(
    num_layers: int,
    num_heads: int,
    seed: int,
    source_index: int,
    weight: float,
    query: str,
    text: str,
) -> float:
    """Attention one source receives; ``weight`` is its position's
    share under the prior (so the key covers prior, depth, k and
    position)."""
    query_terms = _terms(query)
    saliences = [
        2.0 if _terms(span.text) & query_terms else 1.0 for span in word_spans(text)
    ]
    salience_mass = sum(saliences)
    total = 0.0
    for token_index, salience in enumerate(saliences):
        base = weight * salience / salience_mass
        noise = _noise(seed, source_index, token_index, num_layers, num_heads)
        total += sum(sum(base * m for m in layer) for layer in noise)
    return total


class AttentionModel:
    """Generates deterministic synthetic attention for a (query, sources).

    Parameters
    ----------
    num_layers, num_heads:
        Simulated transformer shape.  Small defaults keep perturbation
        searches fast; the aggregation is linear so the shape does not
        change relative source ordering.
    prior:
        Position prior governing the across-source attention split.
    seed:
        Extra entropy folded into the per-token hash so different model
        instances produce different (but individually stable) traces.
    """

    def __init__(
        self,
        num_layers: int = 4,
        num_heads: int = 4,
        prior: PositionPrior | str = PositionPrior.V_SHAPED,
        seed: int = 0,
        depth: float = 0.5,
    ) -> None:
        if num_layers <= 0 or num_heads <= 0:
            raise ConfigError("attention model needs >= 1 layer and head")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.prior = PositionPrior(prior)
        self.seed = seed
        self.depth = depth

    def trace(self, query: str, source_texts: Sequence[str]) -> AttentionTrace:
        """Per-source attention totals for one prompt evaluation."""
        trace = AttentionTrace(num_layers=self.num_layers, num_heads=self.num_heads)
        if not source_texts:
            return trace
        weights = position_weights(self.prior, len(source_texts), depth=self.depth)
        trace.source_totals = [
            _source_total(
                self.num_layers, self.num_heads, self.seed, index, weight, query, text
            )
            for index, (weight, text) in enumerate(zip(weights, source_texts))
        ]
        return trace
