"""E6 — Optimal permutations: O(sk^3) k-best assignment vs O(k!) naive.

    "A naive O(k!) solution might generate all k! permutations, scoring
    each ... We use the algorithm proposed by Chegireddy and Hamacher,
    which allows us to calculate the s optimal permutations in O(sk^3)."

Shapes: (a) the CH solver returns exactly the naive top-s for every
checkable k; (b) it keeps scaling polynomially to k far beyond what
enumeration can touch (25! ~ 1.5e25).
"""

import random
import time

import pytest

from repro.attention import PositionPrior, position_weights
from repro.core import naive_optimal_permutations, optimal_permutations
from repro.core.context import Context
from repro.retrieval import Document

S = 10


def _context_and_scores(k, seed=0):
    rng = random.Random(seed)
    docs = [Document(doc_id=f"d{i:03d}", text=f"text {i}") for i in range(k)]
    context = Context.from_documents("q", docs)
    scores = {doc.doc_id: rng.uniform(0.05, 1.0) for doc in docs}
    return context, scores


@pytest.mark.parametrize("k", [5, 10, 15, 25])
def test_e6_kbest_ch_scaling(benchmark, k):
    context, scores = _context_and_scores(k)

    def run():
        return optimal_permutations(context, scores, s=S)

    placements = benchmark(run)
    assert len(placements) == S
    values = [p.score for p in placements]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("k", [5, 7])
def test_e6_naive_enumeration(benchmark, k):
    context, scores = _context_and_scores(k)
    weights = position_weights(PositionPrior.V_SHAPED, k, depth=0.8)

    def run():
        return naive_optimal_permutations(context, scores, S, weights)

    placements = benchmark(run)
    assert len(placements) == S


def test_e6_exactness_crosscheck():
    """CH == naive top-s on every enumerable size."""
    for k in range(2, 8):
        context, scores = _context_and_scores(k, seed=k)
        weights = position_weights(PositionPrior.V_SHAPED, k, depth=0.8)
        fast = optimal_permutations(context, scores, s=S, attention_weights=weights)
        naive = naive_optimal_permutations(context, scores, S, weights)
        assert [round(p.score, 9) for p in fast] == [
            round(p.score, 9) for p in naive
        ], f"mismatch at k={k}"
    print("\nE6 CH == naive top-s for k in 2..7")


def test_e6_scaling_table():
    """Polynomial growth: doubling k multiplies time by << k!-style blowup."""
    print("\nE6 Chegireddy-Hamacher time (s=10), seconds:")
    times = {}
    for k in (8, 16, 32):
        context, scores = _context_and_scores(k, seed=99)
        start = time.perf_counter()
        optimal_permutations(context, scores, s=S)
        times[k] = time.perf_counter() - start
        print(f"  k={k:>3}: {times[k]:.4f}")
    # Growth from k=8 to k=32 (4x k) should be bounded by ~4^4 = 256x
    # (k^3 with an extra factor for the partition bookkeeping), nowhere
    # near factorial blowup (32!/8! ~ 6.5e33).
    assert times[32] / max(times[8], 1e-9) < 1000
