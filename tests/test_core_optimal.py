"""Optimal permutation (assignment formulation) tests."""

import itertools
import random

import pytest

from repro.attention import PositionPrior, position_weights
from repro.combinatorics.kbest import kbest_assignments_murty
from repro.core import naive_optimal_permutations, optimal_permutations
from repro.core.context import Context
from repro.core.optimal import benefit_matrix
from repro.errors import ConfigError
from repro.retrieval import Document


def _context(k):
    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(k)]
    return Context.from_documents("q", docs)


def _scores(k, seed=0):
    rng = random.Random(seed)
    return {f"d{i}": rng.uniform(0.1, 1.0) for i in range(k)}


def test_benefit_matrix_shape():
    context = _context(3)
    weights = position_weights(PositionPrior.V_SHAPED, 3, depth=0.8)
    matrix = benefit_matrix(context, _scores(3), weights)
    assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)


def test_benefit_matrix_weight_mismatch():
    with pytest.raises(ConfigError):
        benefit_matrix(_context(3), _scores(3), [0.5, 0.5])


def test_top1_places_most_relevant_at_highest_attention():
    context = _context(5)
    scores = {"d0": 0.1, "d1": 0.9, "d2": 0.2, "d3": 0.3, "d4": 0.4}
    best = optimal_permutations(context, scores, s=1, depth=0.8)[0]
    weights = position_weights(PositionPrior.V_SHAPED, 5, depth=0.8)
    top_positions = sorted(range(5), key=lambda p: -weights[p])[:2]
    position_of_d1 = best.order.index("d1")
    assert position_of_d1 in top_positions


def test_matches_naive_enumeration():
    rng = random.Random(3)
    for trial in range(10):
        k = rng.randint(2, 5)
        context = _context(k)
        scores = {f"d{i}": rng.uniform(0.0, 1.0) for i in range(k)}
        weights = position_weights(PositionPrior.V_SHAPED, k, depth=0.7)
        s = rng.randint(1, 6)
        fast = optimal_permutations(
            context, scores, s=s, attention_weights=weights
        )
        naive = naive_optimal_permutations(context, scores, s, weights)
        assert [round(p.score, 9) for p in fast] == [
            round(p.score, 9) for p in naive
        ]


def test_ch_and_murty_methods_agree():
    context = _context(6)
    scores = _scores(6, seed=4)
    weights = position_weights(PositionPrior.V_SHAPED, 6, depth=0.8)
    ch = optimal_permutations(context, scores, s=8, attention_weights=weights)
    costs = [
        [-value for value in row]
        for row in benefit_matrix(context, scores, weights)
    ]
    murty = kbest_assignments_murty(costs, 8)
    assert [round(p.score, 9) for p in ch] == [
        round(-solution.cost, 9) for solution in murty
    ]


def test_scores_nonincreasing():
    context = _context(5)
    placements = optimal_permutations(context, _scores(5), s=10)
    values = [p.score for p in placements]
    assert values == sorted(values, reverse=True)


def test_orders_are_valid_permutations():
    context = _context(5)
    for placement in optimal_permutations(context, _scores(5), s=5):
        placement.perturbation.validate(context)
        assert sorted(placement.order) == sorted(context.doc_ids())


def test_orders_are_distinct():
    context = _context(4)
    placements = optimal_permutations(context, _scores(4), s=10)
    orders = [p.order for p in placements]
    assert len(set(orders)) == len(orders)


def test_custom_attention_weights():
    context = _context(3)
    scores = {"d0": 1.0, "d1": 0.5, "d2": 0.1}
    # all attention on the last position: best order puts d0 last
    best = optimal_permutations(
        context, scores, s=1, attention_weights=[0.0, 0.0, 1.0]
    )[0]
    assert best.order[2] == "d0"


def test_uniform_prior_all_orders_tie():
    context = _context(3)
    scores = _scores(3)
    placements = optimal_permutations(
        context, scores, s=6, prior=PositionPrior.UNIFORM
    )
    values = {round(p.score, 9) for p in placements}
    assert len(values) == 1  # order cannot matter under uniform attention


def test_invalid_inputs():
    with pytest.raises(ConfigError):
        optimal_permutations(_context(3), _scores(3), s=0)


def test_s_larger_than_space():
    context = _context(3)
    placements = optimal_permutations(context, _scores(3), s=100)
    assert len(placements) == len(list(itertools.permutations("abc")))
