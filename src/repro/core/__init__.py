"""RAGE core: contexts, perturbations, counterfactual searches,
insights, optimal permutations, answer-implication pruning, and the
engine facade.

:mod:`~repro.core.lattice` holds the answer-implication subsystem: a
bitmask-indexed :class:`AnswerLattice` that records every evaluated
combination and implies answers for unevaluated ones via monotone
sandwich bounds between confirmed rule intervals.  The staged
:class:`EvaluationPlan` prunes implied combinations from its batches,
and the counterfactual searches skip candidates whose implied answer
cannot flip (verifying implied flips with one real call).  Implication
self-gates on observed order stability and rolls back on conflicts, so
position-sensitive (non-monotone) models keep their exact unpruned
behavior.
"""

from .agreement import (
    AgreementReport,
    ClaimMatch,
    PairVerdict,
    SourcePairReport,
    analyze_agreement,
    render_agreement,
)
from .context import (
    CombinationPerturbation,
    Context,
    ContextSource,
    PermutationPerturbation,
)
from .counterfactual import (
    CombinationCounterfactual,
    CombinationSearchResult,
    SearchDirection,
    search_combination_counterfactual,
)
from .engine import AskResult, Rage, RageConfig, RageReport
from .greedy import greedy_combination_counterfactual
from .evaluate import ContextEvaluator, Evaluation
from .insights import (
    AnswerSlice,
    CombinationInsights,
    CombinationRule,
    PermutationInsights,
    PermutationRule,
    analyze_combinations,
    analyze_permutations,
    derive_combination_rules,
)
from .lattice import AnswerLattice, LatticeEntry, LatticeStats
from .optimal import (
    OptimalPermutation,
    benefit_matrix,
    naive_optimal_permutations,
    optimal_permutations,
)
from .permutation_cf import (
    PermutationCounterfactual,
    PermutationSearchResult,
    ranked_permutations,
    search_permutation_counterfactual,
)
from .plan import EvaluationPlan, PlanStats
from .sampling import MAX_EXHAUSTIVE_K, select_combinations, select_permutations
from .stability import (
    OrderStability,
    SalienceScore,
    answer_entropy,
    order_stability,
    positional_sensitivity,
    source_salience,
)
from .scoring import (
    AttentionRelevance,
    RelevanceMethod,
    RelevanceScorer,
    RetrievalRelevance,
    make_scorer,
)

__all__ = [
    "AgreementReport",
    "ClaimMatch",
    "PairVerdict",
    "SourcePairReport",
    "analyze_agreement",
    "render_agreement",
    "CombinationPerturbation",
    "Context",
    "ContextSource",
    "PermutationPerturbation",
    "CombinationCounterfactual",
    "CombinationSearchResult",
    "SearchDirection",
    "search_combination_counterfactual",
    "AskResult",
    "Rage",
    "RageConfig",
    "RageReport",
    "greedy_combination_counterfactual",
    "ContextEvaluator",
    "Evaluation",
    "AnswerSlice",
    "CombinationInsights",
    "CombinationRule",
    "PermutationInsights",
    "PermutationRule",
    "analyze_combinations",
    "analyze_permutations",
    "derive_combination_rules",
    "AnswerLattice",
    "LatticeEntry",
    "LatticeStats",
    "OptimalPermutation",
    "benefit_matrix",
    "naive_optimal_permutations",
    "optimal_permutations",
    "PermutationCounterfactual",
    "PermutationSearchResult",
    "ranked_permutations",
    "search_permutation_counterfactual",
    "EvaluationPlan",
    "PlanStats",
    "MAX_EXHAUSTIVE_K",
    "select_combinations",
    "select_permutations",
    "OrderStability",
    "SalienceScore",
    "answer_entropy",
    "order_stability",
    "positional_sensitivity",
    "source_salience",
    "AttentionRelevance",
    "RelevanceMethod",
    "RelevanceScorer",
    "RetrievalRelevance",
    "make_scorer",
]
