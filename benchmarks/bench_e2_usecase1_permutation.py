"""E2 — Use Case 1 permutation counterfactual.

    "Surprisingly, RAGE reveals that moving the document to the second
    position altered the answer to Novak Djokovic."

The search walks the orders by decreasing Kendall's tau, ties in
lexicographic order by position (the paper's sort of all k! orders,
generated lazily), and evaluates until the flip; the found flip is
therefore the most-similar reordering that changes the answer.
"""

from repro.core import ContextEvaluator, ranked_permutations


def test_e2_permutation_counterfactual(benchmark, big_three_setup):
    case, rage = big_three_setup
    result = benchmark(lambda: rage.permutation_counterfactual(case.query))
    assert result.found
    cf = result.counterfactual
    assert cf.perturbation.order.index("bigthree-1-match-wins") == 1
    assert cf.new_answer == "Novak Djokovic"
    assert cf.tau == 1 - 2 / 6  # one adjacent transposition
    print(
        f"\nE2 flip at tau={cf.tau:.3f} after {result.num_evaluations} evaluations: "
        f"{' > '.join(cf.perturbation.order)}"
    )


def test_e2_ranking_cost(benchmark, big_three_setup):
    """Generating + tau-ranking all k! permutations (the paper's step)."""
    case, rage = big_three_setup
    context = rage.retrieve(case.query)
    ranked = benchmark(lambda: ranked_permutations(context))
    assert len(ranked) == 23
    taus = [tau for _, tau in ranked]
    assert taus == sorted(taus, reverse=True)


def test_e2_tau_ordering_prunes_evaluations(big_three_setup):
    """The tau-ordered search stops far before exhausting 4! orders."""
    case, rage = big_three_setup
    context = rage.retrieve(case.query)
    evaluator = ContextEvaluator(rage.llm, context)
    from repro.core import search_permutation_counterfactual

    result = search_permutation_counterfactual(evaluator)
    assert result.found
    assert result.num_evaluations <= 3  # within the adjacent transpositions
    print(f"\nE2 evaluations to flip: {result.num_evaluations} of 23 candidates")
