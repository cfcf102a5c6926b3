"""The counterfactual searches' call contract, on worlds where they pay.

On big_three every search step is a memo hit, so the cross-backend
checks there cannot see how a search spends its budget.  On these
worlds each search makes real calls.  The paper's search evaluates one
candidate at a time, in relevance or Kendall-tau order, and stops at
the first flip; so the serial call counts below are exact, and every
backend must produce the same report, call accounting included.
"""

from __future__ import annotations

import pytest

from repro import Rage, RageConfig, SimulatedLLM
from repro.app.server import encode_json, report_payload
from repro.datasets.synthetic import make_superlative_world, make_timeline_world

BACKENDS = ["serial", "threaded:4", "asyncio:3"]
MAKERS = {"superlative": make_superlative_world, "timeline": make_timeline_world}

# (world, k, seed, plan_pruning) -> (llm_calls, top-down, bottom-up,
# permutation), each search as (real calls, how it stopped): "found" a
# flip, ran out of "budget", or reached the "end" of its candidates.
WIDE = {
    ("superlative", 7, 0, True): (91, (8, "found"), (23, "end"), (30, "budget")),
    ("superlative", 7, 0, False): (99, (9, "found"), (30, "budget"), (30, "budget")),
    ("timeline", 8, 4, True): (91, (1, "found"), (30, "budget"), (30, "budget")),
    ("timeline", 8, 4, False): (91, (1, "found"), (30, "budget"), (30, "budget")),
    ("superlative", 6, 2, True): (83, (22, "found"), (1, "found"), (30, "budget")),
    ("superlative", 6, 2, False): (91, (30, "budget"), (1, "found"), (30, "budget")),
}


def _outcome(search):
    if search.found:
        return search.num_evaluations, "found"
    return search.num_evaluations, "budget" if search.budget_exhausted else "end"


def _accounting(report):
    return (
        report.llm_calls,
        _outcome(report.top_down),
        _outcome(report.bottom_up),
        _outcome(report.permutation_counterfactual),
    )


def _reports(corpus, knowledge, query, config, **explain):
    """One report per backend, keyed by backend spec."""
    return {
        backend: Rage.from_corpus(
            corpus, SimulatedLLM(knowledge=knowledge), config=RageConfig(backend=backend, **config)
        ).explain(query, **explain)
        for backend in BACKENDS
    }


def _payloads(reports):
    return {encode_json(report_payload(report)) for report in reports.values()}


@pytest.mark.parametrize(
    "world,k,seed,pruning",
    list(WIDE),
    ids=[f"{w}-k{k}-s{s}-{'pruned' if p else 'unpruned'}" for w, k, s, p in WIDE],
)
def test_searches_spend_the_sequential_budget_on_every_backend(world, k, seed, pruning):
    made = MAKERS[world](k, seed=seed)
    reports = _reports(
        made.corpus,
        made.knowledge,
        made.query,
        dict(k=k, max_evaluations=30, seed=seed, plan_pruning=pruning),
        sample_size=8,
        permutation_sample=20,
        stability_sample=20,
    )
    assert _accounting(reports["serial"]) == WIDE[world, k, seed, pruning]
    assert len(_payloads(reports)) == 1


def test_wide_context_permutation_search_on_every_backend(player_of_the_year):
    case = player_of_the_year
    reports = _reports(case.corpus, case.knowledge, case.query, dict(k=case.k))
    # k=10 is past the exhaustive cap: the lazy decreasing-tau search
    # spends explain()'s whole 200-call wide budget without a flip.
    assert _accounting(reports["serial"]) == (646, (0, "found"), (0, "found"), (200, "budget"))
    assert len(_payloads(reports)) == 1
