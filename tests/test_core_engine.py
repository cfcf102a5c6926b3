"""Rage engine facade tests."""

import pytest

from repro import Rage, RageConfig, RelevanceMethod, SearchDirection, SimulatedLLM
from repro.errors import ConfigError, SearchBudgetError
from repro.llm.cache import CachingLLM


def test_config_validation():
    with pytest.raises(ConfigError):
        RageConfig(k=0)
    with pytest.raises(ConfigError):
        RageConfig(max_evaluations=0)
    with pytest.raises(ConfigError):
        RageConfig(batch_window_ms=0)
    with pytest.raises(ConfigError):
        RageConfig(batch_window_ms=-5.0)


def test_batch_window_wraps_backend_and_preserves_answers(big_three):
    from repro.exec import CoalescingBackend

    llm = SimulatedLLM(knowledge=big_three.knowledge)
    baseline = Rage.from_corpus(big_three.corpus, llm, config=RageConfig(k=4))
    windowed = Rage.from_corpus(
        big_three.corpus, llm, config=RageConfig(k=4, batch_window_ms=10.0)
    )
    assert isinstance(windowed.backend, CoalescingBackend)
    assert windowed.backend.name.startswith("coalesce:10ms+")
    assert windowed.backend.capacity == baseline.backend.capacity
    expected = baseline.combination_insights(big_three.query, sample_size=8)
    got = windowed.combination_insights(big_three.query, sample_size=8)
    assert {k: len(v) for k, v in got.groups.items()} == {
        k: len(v) for k, v in expected.groups.items()
    }
    assert windowed.backend.window_stats.windows >= 1


def test_from_corpus_builds_index(big_three):
    rage = Rage.from_corpus(big_three.corpus, SimulatedLLM(knowledge=big_three.knowledge))
    assert len(rage.index) == len(big_three.corpus)


def test_llm_wrapped_in_cache_by_default(big_three_engine):
    assert isinstance(big_three_engine.llm, CachingLLM)


def test_cache_disabled(big_three):
    rage = Rage.from_corpus(
        big_three.corpus,
        SimulatedLLM(knowledge=big_three.knowledge),
        config=RageConfig(k=4, cache=False),
    )
    assert not isinstance(rage.llm, CachingLLM)


def test_retrieve_respects_k(big_three_engine, big_three):
    context = big_three_engine.retrieve(big_three.query, k=2)
    assert context.k == 2


def test_ask(big_three_engine, big_three):
    result = big_three_engine.ask(big_three.query)
    assert result.answer == big_three.expected_answer
    assert result.context.doc_ids() == tuple(big_three.expected_context)
    assert result.generation.attention is not None


def test_ask_with_prebuilt_context(big_three_engine, big_three):
    context = big_three_engine.retrieve(big_three.query)
    result = big_three_engine.ask(big_three.query, context=context)
    assert result.context is context


def test_relevance_scores_method_switch(big_three, big_three_engine):
    context = big_three_engine.retrieve(big_three.query)
    retrieval_scores = big_three_engine.relevance_scores(context)
    attention_engine = Rage.from_corpus(
        big_three.corpus,
        SimulatedLLM(knowledge=big_three.knowledge),
        config=RageConfig(k=4, relevance_method=RelevanceMethod.ATTENTION),
    )
    attention_scores = attention_engine.relevance_scores(context)
    assert set(retrieval_scores) == set(attention_scores)
    assert retrieval_scores != attention_scores


def test_combination_insights_default_all(big_three_engine, big_three):
    insights = big_three_engine.combination_insights(big_three.query)
    assert insights.total == 15


def test_combination_insights_sampled(big_three_engine, big_three):
    insights = big_three_engine.combination_insights(big_three.query, sample_size=5)
    assert insights.total == 5


def test_permutation_insights(us_open_engine, us_open):
    insights = us_open_engine.permutation_insights(us_open.query, sample_size=20)
    assert insights.total == 20


def test_counterfactual_directions(big_three_engine, big_three):
    top_down = big_three_engine.combination_counterfactual(big_three.query)
    bottom_up = big_three_engine.combination_counterfactual(
        big_three.query, direction=SearchDirection.BOTTOM_UP
    )
    assert top_down.found and bottom_up.found
    assert top_down.direction is SearchDirection.TOP_DOWN
    assert bottom_up.direction is SearchDirection.BOTTOM_UP


def test_permutation_counterfactual(big_three_engine, big_three):
    result = big_three_engine.permutation_counterfactual(big_three.query)
    assert result.found
    assert result.counterfactual.new_answer == "Novak Djokovic"


def test_optimal_permutations(big_three_engine, big_three):
    placements = big_three_engine.optimal_permutations(big_three.query, s=4)
    assert len(placements) == 4
    assert placements[0].score >= placements[-1].score


def test_explain_bundle(big_three_engine, big_three):
    report = big_three_engine.explain(big_three.query)
    assert report.answer == big_three.expected_answer
    assert report.combination_insights.total == 15
    assert report.permutation_insights is not None
    assert report.top_down.found
    assert report.bottom_up.found
    assert report.permutation_counterfactual is not None
    assert report.optimal


def test_explain_large_context_uses_lazy_permutation_search(
    potya_engine, player_of_the_year
):
    report = potya_engine.explain(player_of_the_year.query, sample_size=10)
    # k=10 > 8: the lazy search runs under a bounded budget; the count
    # intent is order-stable, so the budget exhausts without a flip.
    assert report.permutation_counterfactual is not None
    assert not report.permutation_counterfactual.found
    assert report.permutation_counterfactual.budget_exhausted
    assert report.permutation_insights is not None  # sampled path is fine
    assert report.answer == "5"


def test_explain_reports_stability_and_llm_calls(big_three_engine, big_three):
    report = big_three_engine.explain(big_three.query)
    assert report.stability is not None
    assert report.stability.num_permutations == 24  # all 4! orders
    assert report.llm_calls > 0


def test_explain_shares_one_evaluator_memo(big_three, big_three_engine):
    """The whole report re-uses one memo: the combination insight set
    plus both baselines covers every combination search candidate, so
    the searches report zero fresh evaluations."""
    report = big_three_engine.explain(big_three.query)
    assert report.top_down.found
    assert report.top_down.num_evaluations == 0
    assert report.bottom_up.found
    assert report.bottom_up.num_evaluations == 0


def test_sub_explanations_accept_shared_evaluator(big_three, big_three_engine):
    context = big_three_engine.retrieve(big_three.query)
    evaluator = big_three_engine._evaluator(context)
    big_three_engine.combination_insights(
        big_three.query, context=context, evaluator=evaluator
    )
    calls_after_insights = evaluator.llm_calls
    result = big_three_engine.combination_counterfactual(
        big_three.query, context=context, evaluator=evaluator
    )
    assert result.found
    assert evaluator.llm_calls == calls_after_insights  # pure memo hits


def test_zero_overrides_are_rejected_not_replaced(big_three, big_three_engine):
    # An explicit 0 is a bad argument, not "use the config's value".
    with pytest.raises(SearchBudgetError):
        big_three_engine.combination_counterfactual(big_three.query, max_evaluations=0)
    with pytest.raises(SearchBudgetError):
        big_three_engine.permutation_counterfactual(big_three.query, max_evaluations=0)
    with pytest.raises(ConfigError):
        big_three_engine.retrieve(big_three.query, k=0)


def test_cache_effect_across_calls(big_three, big_three_engine):
    big_three_engine.combination_insights(big_three.query)
    stats_before = big_three_engine.llm.stats.misses
    big_three_engine.combination_insights(big_three.query)
    # second pass re-evaluates the same prompts: all hits, no new misses
    assert big_three_engine.llm.stats.misses == stats_before
