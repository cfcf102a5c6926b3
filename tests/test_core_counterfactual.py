"""Combination counterfactual search tests."""

import pytest

from repro.core import (
    ContextEvaluator,
    SearchDirection,
    search_combination_counterfactual,
)
from repro.errors import SearchBudgetError


def _search(evaluator, scores, **kwargs):
    return search_combination_counterfactual(evaluator, scores, **kwargs)


def test_top_down_finds_minimal_flip(big_three_engine, big_three, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    result = _search(evaluator, scores, direction=SearchDirection.TOP_DOWN)
    assert result.found
    cf = result.counterfactual
    assert cf.changed_sources == ("bigthree-1-match-wins",)
    assert cf.baseline_answer == "Roger Federer"
    assert cf.new_answer == "Novak Djokovic"
    assert cf.size == 1


def test_top_down_minimality_is_exhaustive(big_three_engine, big_three_context):
    """With an unbounded budget, no smaller flipping subset can exist."""
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    result = _search(evaluator, scores, keep_trail=True)
    found_size = result.counterfactual.size
    smaller_tried = [c for c, _ in result.trail if len(c) < found_size]
    baseline = result.baseline_answer
    # every strictly smaller subset was evaluated and none flipped
    from itertools import combinations

    assert {tuple(c) for c, _ in result.trail} >= {
        c
        for size in range(1, found_size)
        for c in combinations(big_three_context.doc_ids(), size)
    }
    for combo, answer in result.trail:
        if len(combo) < found_size:
            assert answer == baseline


def test_bottom_up_defaults_to_original_target(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    result = _search(evaluator, scores, direction=SearchDirection.BOTTOM_UP)
    assert result.found
    cf = result.counterfactual
    assert cf.baseline_answer == "Novak Djokovic"  # empty-context (KB) answer
    assert cf.new_answer == "Roger Federer"        # the full-context target
    assert cf.changed_sources == ("bigthree-1-match-wins",)


def test_bottom_up_citation_use_case_3(potya_engine, player_of_the_year):
    context = potya_engine.retrieve(player_of_the_year.query)
    evaluator = ContextEvaluator(potya_engine.llm, context)
    scores = potya_engine.relevance_scores(context)
    result = _search(
        evaluator, scores, direction="bottom_up", max_evaluations=2000
    )
    assert result.found
    cited = sorted(result.counterfactual.changed_sources)
    assert cited == [
        "potya-2011", "potya-2012", "potya-2014", "potya-2015", "potya-2018"
    ]
    assert result.counterfactual.new_answer == "5"


def test_target_answer_respected(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    result = _search(evaluator, scores, target_answer="Rafael Nadal")
    assert result.found
    assert result.counterfactual.new_answer == "Rafael Nadal"


def test_target_answer_normalized(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    result = _search(evaluator, scores, target_answer="  rafael NADAL. ")
    assert result.found
    assert result.counterfactual.new_answer == "Rafael Nadal"


def test_unreachable_target(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    result = _search(evaluator, scores, target_answer="Serena Williams")
    assert not result.found
    assert not result.budget_exhausted  # space exhausted, not budget


def test_budget_exhaustion(potya_engine, player_of_the_year):
    context = potya_engine.retrieve(player_of_the_year.query)
    evaluator = ContextEvaluator(potya_engine.llm, context)
    scores = potya_engine.relevance_scores(context)
    result = _search(
        evaluator, scores, direction="bottom_up", max_evaluations=3
    )
    assert not result.found
    assert result.budget_exhausted
    assert result.num_evaluations == 3


def test_invalid_budget(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    with pytest.raises(SearchBudgetError):
        _search(evaluator, {}, max_evaluations=0)


def test_relevance_ordering_prioritizes_high_scores(big_three_engine, big_three_context):
    """The first size-1 candidate must be the highest-relevance source."""
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    result = _search(evaluator, scores, keep_trail=True)
    first_candidate = result.trail[0][0]
    best = max(scores, key=scores.get)
    assert first_candidate == (best,)


def test_string_direction_accepted(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    scores = big_three_engine.relevance_scores(big_three_context)
    assert _search(evaluator, scores, direction="top_down").found


def _scripted_world(k=4, answer_fn=None):
    from repro.core.context import Context
    from repro.llm import ScriptedLLM
    from repro.retrieval import Document

    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(k)]
    context = Context.from_documents("q?", docs)
    llm = ScriptedLLM(answer_fn=answer_fn or (lambda q, texts: "stable"))
    return context, llm


def test_budget_counts_real_llm_calls_not_memo_hits():
    """Regression: memoized re-evaluations were charged against the
    budget, so a warm shared evaluator could exhaust max_evaluations
    without a single real LLM call."""
    # flips only when exactly d3 is removed (kept = d0,d1,d2)
    def answers(q, texts):
        return "flipped" if texts == ("text 0", "text 1", "text 2") else "base"

    context, llm = _scripted_world(answer_fn=answers)
    evaluator = ContextEvaluator(llm, context)
    scores = {f"d{i}": float(4 - i) for i in range(4)}  # d3 tried last
    # warm the memo with every size-1 removal (an insight pass would)
    for i in range(4):
        evaluator.evaluate(tuple(f"d{j}" for j in range(4) if j != i))
    evaluator.original()
    calls = evaluator.llm_calls
    result = _search(evaluator, scores, max_evaluations=1)
    assert result.found  # pre-fix: budget exhausted before reaching d3
    assert not result.budget_exhausted
    assert result.counterfactual.changed_sources == ("d3",)
    assert result.num_evaluations == 0  # everything came from the memo
    assert evaluator.llm_calls == calls


def test_budget_still_bounds_fresh_evaluations():
    context, llm = _scripted_world()
    evaluator = ContextEvaluator(llm, context)
    result = _search(evaluator, {}, max_evaluations=5)
    assert result.budget_exhausted
    assert result.num_evaluations == 5


def test_bottom_up_renders_retained_sets_in_context_order():
    """Retained-set prompts must preserve the context order even when
    the relevance ranking (which orders the *candidates*) is the exact
    reverse — otherwise combination and permutation effects conflate."""
    seen = []

    def answers(q, texts):
        seen.append(texts)
        return "base"

    context, llm = _scripted_world(answer_fn=answers)
    evaluator = ContextEvaluator(llm, context)
    reversed_scores = {f"d{i}": float(i) for i in range(4)}  # d3 most relevant
    _search(evaluator, reversed_scores, direction=SearchDirection.BOTTOM_UP)
    texts_in_context_order = [f"text {i}" for i in range(4)]
    for texts in seen:
        positions = [texts_in_context_order.index(t) for t in texts]
        assert positions == sorted(positions)


def test_bottom_up_context_order_with_explicitly_unordered_candidates():
    """Even a relevance-ordered candidate tuple renders in context order."""
    from repro.core.context import CombinationPerturbation

    context, llm = _scripted_world()
    # the defensive normalization in the search itself
    subset = ("d2", "d0")
    ordered = tuple(sorted(subset, key=context.position_of))
    perturbation = CombinationPerturbation(kept=ordered)
    assert perturbation.apply(context) == ("d0", "d2")
