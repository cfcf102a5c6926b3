"""Property-based tests for the extension modules (inversions, greedy,
dense retrieval, metrics)."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.combinatorics import (
    count_inversions,
    kendall_tau,
    permutations_by_inversions,
    permutations_by_tau,
)
from repro.core import (
    Context,
    ContextEvaluator,
    greedy_combination_counterfactual,
)
from repro.core.context import CombinationPerturbation
from repro.llm import ScriptedLLM
from repro.retrieval import (
    HashedEmbedder,
    average_precision,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.retrieval.document import Document
from repro.textproc import normalize_answer


def test_lazy_generation_matches_sorted_enumeration():
    """The lazy stream is the paper's generate-all-then-sort order: the
    stable sort of every non-identity permutation by decreasing tau,
    element for element, with the same float taus."""
    for k in range(8):
        items = [f"d{i}" for i in range(k)]
        explicit = sorted(
            (
                (perm, kendall_tau(items, perm))
                for perm in itertools.permutations(items)
                if perm != tuple(items)
            ),
            key=lambda candidate: -candidate[1],
        )
        lazy = list(permutations_by_tau(items))
        assert [(order, tau.hex()) for order, tau in lazy] == [
            (order, tau.hex()) for order, tau in explicit
        ]


@pytest.mark.parametrize("k", [9, 10])
def test_lazy_generation_orders_each_tau_level_by_position(k):
    """Past the exhaustive cap, equal-tau candidates come in the order
    k <= 8 uses: lexicographic by position within each inversion level."""
    head = list(itertools.islice(permutations_by_inversions(list(range(k))), 200))
    assert all(count_inversions(order) == count for order, count in head)
    assert head == sorted(head, key=lambda candidate: (candidate[1], candidate[0]))


@st.composite
def flip_worlds(draw):
    """A context plus a monotone answer function with a known minimal
    flipping set."""
    k = draw(st.integers(min_value=2, max_value=7))
    core_size = draw(st.integers(min_value=1, max_value=k))
    core = set(draw(st.permutations(list(range(k))))[:core_size])
    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(k)]
    context = Context.from_documents("question?", docs)
    core_texts = {f"text {i}" for i in core}

    def answers(question, texts):
        # flips exactly when every core source has been removed
        return "flipped" if not (core_texts & set(texts)) else "base"

    return context, answers, {f"d{i}" for i in core}


@given(flip_worlds())
@settings(max_examples=40, deadline=None)
def test_greedy_finds_exact_core_on_monotone_worlds(world):
    """For monotone flip functions the greedy shrink recovers the exact
    minimal core (here uniqueness makes minimal = minimum)."""
    context, answers, core = world
    evaluator = ContextEvaluator(ScriptedLLM(answer_fn=answers), context)
    scores = {doc_id: 1.0 for doc_id in context.doc_ids()}
    result = greedy_combination_counterfactual(evaluator, scores, max_evaluations=500)
    assert result.found
    assert set(result.counterfactual.changed_sources) == core


@given(flip_worlds())
@settings(max_examples=25, deadline=None)
def test_greedy_counterfactual_is_minimal(world):
    """Dropping any member of the greedy set must break the flip."""
    context, answers, _ = world
    evaluator = ContextEvaluator(ScriptedLLM(answer_fn=answers), context)
    scores = {doc_id: 1.0 for doc_id in context.doc_ids()}
    result = greedy_combination_counterfactual(evaluator, scores, max_evaluations=500)
    assert result.found
    cf = result.counterfactual
    flipped = normalize_answer(cf.new_answer)
    for doc_id in cf.changed_sources:
        subset = [d for d in cf.changed_sources if d != doc_id]
        perturbation = CombinationPerturbation.from_removal(context, subset)
        evaluation = evaluator.evaluate(perturbation.apply(context))
        assert evaluation.normalized_answer != flipped


word = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


@given(st.lists(word, min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_embedder_unit_norm_or_zero(words):
    embedder = HashedEmbedder(dimensions=64)
    vector = embedder.embed(" ".join(words))
    norm = float(np.linalg.norm(vector))
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


@given(st.lists(word, min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_embedder_self_similarity_maximal(words):
    """cos(x, x) = 1 >= cos(x, y) for any other normalized y."""
    embedder = HashedEmbedder(dimensions=64)
    text = " ".join(words)
    x = embedder.embed(text)
    if float(np.linalg.norm(x)) == 0.0:
        return
    y = embedder.embed("zz qq ww unrelated words entirely")
    assert float(x @ x) >= float(x @ y) - 1e-9


@st.composite
def rankings(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ranking = [f"d{i}" for i in range(n)]
    rng = random.Random(draw(st.integers(0, 10_000)))
    rng.shuffle(ranking)
    relevant = set(rng.sample(ranking, draw(st.integers(1, n))))
    k = draw(st.integers(1, n))
    return ranking, relevant, k


@given(rankings())
@settings(max_examples=80, deadline=None)
def test_metric_bounds_and_relations(case):
    ranking, relevant, k = case
    p = precision_at_k(ranking, relevant, k)
    r = recall_at_k(ranking, relevant, k)
    ap = average_precision(ranking, relevant)
    ndcg = ndcg_at_k(ranking, relevant, k)
    for value in (p, r, ap, ndcg):
        assert 0.0 <= value <= 1.0
    # counting identity: p * k == r * |relevant| == hits in top-k
    hits = sum(1 for doc_id in ranking[:k] if doc_id in relevant)
    assert p * k == hits
    assert abs(r * len(relevant) - hits) < 1e-9
    # everything relevant and retrieved: all metrics maximal at k = n
    if relevant == set(ranking):
        assert recall_at_k(ranking, relevant, len(ranking)) == 1.0
        assert average_precision(ranking, relevant) == 1.0


@given(rankings())
@settings(max_examples=50, deadline=None)
def test_recall_monotone_in_k(case):
    ranking, relevant, _ = case
    values = [recall_at_k(ranking, relevant, k) for k in range(1, len(ranking) + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0
