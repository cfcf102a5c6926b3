"""Scripted LLM tests — canned answers drive the explanation stack."""

import pytest

from repro.core import (
    Context,
    ContextEvaluator,
    analyze_combinations,
    search_combination_counterfactual,
    search_permutation_counterfactual,
    select_combinations,
)
from repro.llm import PromptBuilder, ScriptedLLM
from repro.retrieval import Document

BUILDER = PromptBuilder()


def _context(k=3):
    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(k)]
    return Context.from_documents("what is the answer?", docs)


def test_scripted_lookup():
    llm = ScriptedLLM({("a",): "one", ("a", "b"): "two"}, default="none")
    assert llm.generate(BUILDER.build("q?", ["a"])).answer == "one"
    assert llm.generate(BUILDER.build("q?", ["a", "b"])).answer == "two"
    assert llm.generate(BUILDER.build("q?", ["b", "a"])).answer == "none"  # order matters
    assert llm.generate(BUILDER.build("q?", [])).answer == "none"
    assert llm.calls == 4


def test_scripted_empty_context_key():
    llm = ScriptedLLM({(): "parametric"}, default="x")
    assert llm.generate(BUILDER.build("q?", [])).answer == "parametric"


def test_answer_fn_takes_precedence():
    llm = ScriptedLLM(
        {("text 0",): "scripted"},
        answer_fn=lambda question, texts: "fn" if len(texts) == 1 else None,
    )
    assert llm.generate(BUILDER.build("q?", ["text 0"])).answer == "fn"
    assert llm.generate(BUILDER.build("q?", ["text 0", "text 1"])).answer == "unscripted"


def test_record():
    llm = ScriptedLLM()
    llm.record(["alpha"], "recorded")
    assert llm.generate(BUILDER.build("q?", ["alpha"])).answer == "recorded"


def test_record_keeps_cache_params_current_and_the_script_read_only():
    """The digest is computed at construction and again by ``record``, so
    after a record ``cache_params`` equals a fresh model's over the same
    script; ``record`` is the script's only writer."""
    llm = ScriptedLLM({("a",): "one"}, default="none")
    before = llm.cache_params
    llm.record(["b", "c"], "two")
    llm.record(["a"], "uno")
    fresh = ScriptedLLM({("a",): "uno", ("b", "c"): "two"}, default="none")
    assert llm.cache_params == fresh.cache_params != before
    assert llm.script == fresh.script == {("a",): "uno", ("b", "c"): "two"}
    with pytest.raises(TypeError):
        llm.script[("d",)] = "four"
    with pytest.raises(AttributeError):
        llm.script = {}
    assert llm.cache_params == fresh.cache_params


def test_scripted_llm_drives_counterfactual_search():
    """An exactly-specified answer function: the answer flips only when
    both d0 and d2 are absent — the minimal top-down removal must be
    {d0, d2}, size 2."""
    context = _context(3)

    def answers(question, texts):
        present = set(texts)
        if "text 0" not in present and "text 2" not in present:
            return "flipped"
        return "base"

    llm = ScriptedLLM(answer_fn=answers)
    evaluator = ContextEvaluator(llm, context)
    scores = {doc_id: 1.0 for doc_id in context.doc_ids()}
    result = search_combination_counterfactual(evaluator, scores)
    assert result.found
    assert sorted(result.counterfactual.changed_sources) == ["d0", "d2"]
    assert result.counterfactual.size == 2


def test_scripted_llm_drives_permutation_search():
    """Flip only when d2 is first: the max-tau flip rotates d2 forward."""
    context = _context(3)

    def answers(question, texts):
        return "flipped" if texts and texts[0] == "text 2" else "base"

    llm = ScriptedLLM(answer_fn=answers)
    evaluator = ContextEvaluator(llm, context)
    result = search_permutation_counterfactual(evaluator)
    assert result.found
    assert result.counterfactual.perturbation.order[0] == "d2"
    # best achievable tau for moving the last element first at k=3
    assert result.counterfactual.tau == pytest.approx(1 - 2 * 2 / 3)


def test_scripted_llm_in_insights():
    context = _context(3)
    llm = ScriptedLLM(
        answer_fn=lambda q, texts: "with-d0" if "text 0" in texts else "without-d0"
    )
    evaluator = ContextEvaluator(llm, context)
    insights = analyze_combinations(evaluator, select_combinations(context))
    rule = insights.rule_for("with-d0")
    assert rule is not None
    assert rule.required_sources == ("d0",)


def test_name_reflects_script_size():
    assert "2-entries" in ScriptedLLM({("a",): "x", ("b",): "y"}).name
