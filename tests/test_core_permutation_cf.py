"""Permutation counterfactual search tests."""

import pytest

from repro.core import (
    ContextEvaluator,
    ranked_permutations,
    search_permutation_counterfactual,
)
from repro.core.context import Context
from repro.errors import SearchBudgetError
from repro.retrieval import Document


def test_ranked_permutations_order(big_three_context):
    ranked = ranked_permutations(big_three_context)
    taus = [tau for _, tau in ranked]
    assert taus == sorted(taus, reverse=True)
    assert len(ranked) == 24 - 1  # identity excluded
    # the very first candidates are adjacent transpositions (max tau);
    # ties keep the lexicographic-by-position generator order, whose
    # first inversion-1 permutation swaps the last two positions.
    first_order, first_tau = ranked[0]
    assert first_tau == pytest.approx(1 - 2 / 6)
    ids = big_three_context.doc_ids()
    assert first_order == (ids[0], ids[1], ids[3], ids[2])
    swaps = {tuple(order) for order, tau in ranked[:3]}
    assert (ids[1], ids[0], ids[2], ids[3]) in swaps


def test_use_case_1_flip(big_three_engine, big_three_context):
    """Moving the match-wins doc to position 2 flips to Djokovic."""
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    result = search_permutation_counterfactual(evaluator)
    assert result.found
    cf = result.counterfactual
    ids = big_three_context.doc_ids()
    assert cf.perturbation.order == (ids[1], ids[0], ids[2], ids[3])
    assert cf.new_answer == "Novak Djokovic"
    assert cf.tau == pytest.approx(1 - 2 / 6)
    assert set(cf.moved_sources) == {ids[0], ids[1]}


def test_use_case_2_flip(us_open_engine, us_open):
    context = us_open_engine.retrieve(us_open.query)
    evaluator = ContextEvaluator(us_open_engine.llm, context)
    result = search_permutation_counterfactual(evaluator)
    assert result.found
    cf = result.counterfactual
    assert cf.new_answer == "Iga Swiatek"
    # the 2023 document moved out of the last position
    assert cf.perturbation.order[-1] != "usopen-2023"


def test_found_flip_maximizes_tau(us_open_engine, us_open):
    """No permutation with strictly higher tau may also flip."""
    context = us_open_engine.retrieve(us_open.query)
    evaluator = ContextEvaluator(us_open_engine.llm, context)
    result = search_permutation_counterfactual(evaluator, keep_trail=True)
    flip_tau = result.counterfactual.tau
    for order, tau, answer in result.trail:
        if tau > flip_tau:
            assert answer == result.baseline_answer


def test_stable_context_finds_nothing(potya_engine, player_of_the_year):
    """Use Case 3 is order-stable: k=10 > cap, so build a k<=8 slice."""
    context = potya_engine.retrieve(player_of_the_year.query)
    small = Context.from_documents(
        player_of_the_year.query,
        [context.document(d) for d in context.doc_ids()[:5]],
    )
    evaluator = ContextEvaluator(potya_engine.llm, small)
    result = search_permutation_counterfactual(evaluator)
    assert not result.found
    assert result.num_evaluations == 5 * 4 * 3 * 2 - 1


def test_target_answer(us_open_engine, us_open):
    context = us_open_engine.retrieve(us_open.query)
    evaluator = ContextEvaluator(us_open_engine.llm, context)
    result = search_permutation_counterfactual(evaluator, target_answer="Iga Swiatek")
    assert result.found
    assert result.counterfactual.new_answer == "Iga Swiatek"


def test_budget_exhaustion(big_three_engine, big_three):
    """A tiny budget over a stable prefix exhausts without finding."""
    context = big_three_engine.retrieve(big_three.query)
    evaluator = ContextEvaluator(big_three_engine.llm, context)
    result = search_permutation_counterfactual(evaluator, max_evaluations=1)
    # the first candidate IS the flip for use case 1, so it is found;
    # force exhaustion with an impossible target instead
    result = search_permutation_counterfactual(
        evaluator, target_answer="Nobody", max_evaluations=5
    )
    assert not result.found
    assert result.budget_exhausted


def test_large_context_lazy_mode():
    """k=9 (9! = 362880) works lazily within a small budget."""
    from repro.llm import ScriptedLLM

    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(9)]
    context = Context.from_documents("q", docs)
    # flips as soon as the first source leaves position 1
    llm = ScriptedLLM(
        answer_fn=lambda q, texts: "base" if not texts or texts[0] == "text 0" else "flip"
    )
    evaluator = ContextEvaluator(llm, context)
    result = search_permutation_counterfactual(evaluator, max_evaluations=100)
    assert result.found
    assert result.counterfactual.new_answer == "flip"
    # the minimal change is one adjacent transposition involving position 1
    assert result.counterfactual.tau == pytest.approx(
        1 - 2 * 1 / (9 * 8 / 2)
    )
    assert result.num_evaluations <= 10


def test_invalid_budget(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    with pytest.raises(SearchBudgetError):
        search_permutation_counterfactual(evaluator, max_evaluations=0)


def test_budget_counts_real_llm_calls_not_memo_hits():
    """Regression: a warm evaluator (e.g. after permutation insights)
    used to burn the whole budget on memoized orders."""
    from repro.llm import ScriptedLLM

    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(4)]
    context = Context.from_documents("q?", docs)
    # flips only when the first two sources swap — an adjacent
    # transposition tried *after* the (0-indexed) last-pair swap within
    # the max-tau tie, i.e. beyond a budget of 1
    llm = ScriptedLLM(
        answer_fn=lambda q, texts: "flip"
        if texts == ("text 1", "text 0", "text 2", "text 3")
        else "base"
    )
    evaluator = ContextEvaluator(llm, context)
    # warm the memo with every permutation (an insight analysis would)
    from itertools import permutations as iter_permutations

    evaluator.evaluate_many(list(iter_permutations(context.doc_ids())))
    calls = evaluator.llm_calls
    result = search_permutation_counterfactual(evaluator, max_evaluations=1)
    assert result.found  # pre-fix: exhausted on memoized candidates
    assert not result.budget_exhausted
    assert result.num_evaluations == 0
    assert evaluator.llm_calls == calls
