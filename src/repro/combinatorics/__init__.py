"""Combinatorial substrate: combinations, permutations, Kendall's tau,
Hungarian algorithm, and k-best assignments (Chegireddy–Hamacher, Murty).
"""

from .combinations import (
    all_combinations,
    count_combinations,
    mask_combination,
    ordered_combinations,
    sample_combinations,
)
from .hungarian import (
    FORBIDDEN,
    AssignmentSolution,
    assignment_cost,
    brute_force_assignments,
    solve_assignment,
    validate_square,
)
from .kbest import (
    RankedAssignment,
    brute_force_kbest,
    kbest_assignments_ch,
    kbest_assignments_murty,
    second_best_assignment,
)
from .inversions import (
    max_inversions,
    permutations_by_inversions,
    permutations_by_tau,
)
from .kendall import (
    count_inversions,
    kendall_tau,
    kendall_tau_from_inversions,
    rank_map,
)
from .permutations import (
    all_permutations,
    fisher_yates_shuffle,
    naive_sample_permutations,
    sample_permutations,
)

__all__ = [
    "all_combinations",
    "count_combinations",
    "mask_combination",
    "ordered_combinations",
    "sample_combinations",
    "FORBIDDEN",
    "AssignmentSolution",
    "assignment_cost",
    "brute_force_assignments",
    "solve_assignment",
    "validate_square",
    "RankedAssignment",
    "brute_force_kbest",
    "kbest_assignments_ch",
    "kbest_assignments_murty",
    "second_best_assignment",
    "max_inversions",
    "permutations_by_inversions",
    "permutations_by_tau",
    "count_inversions",
    "kendall_tau",
    "kendall_tau_from_inversions",
    "rank_map",
    "all_permutations",
    "fisher_yates_shuffle",
    "naive_sample_permutations",
    "sample_permutations",
]
