"""Synthetic attention model tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rage, RageConfig, SimulatedLLM
from repro.attention import (
    AttentionModel,
    PositionPrior,
    aggregate_by_source,
    combination_score,
    normalize_scores,
    position_weights,
    rank_sources,
)
from repro.attention import model as attention_model
from repro.attention.model import _hash_unit
from repro.datasets import load_use_case
from repro.datasets.synthetic import make_timeline_world
from repro.errors import ConfigError
from repro.textproc import Tokenizer, word_spans

QUERY = "who won the championship"
SOURCES = [
    "Alpha won the championship in 2020 with a great season.",
    "Some completely unrelated text about gardening and soil.",
    "Beta won the championship in 2021 after a strong run.",
]


def reference_token_values(query, source_texts, num_layers=4, num_heads=4,
                           prior=PositionPrior.V_SHAPED, seed=0, depth=0.5):
    """The full per-token trace, built the way the model first did:
    ``(source_index, token, values[layer][head])`` for every word token.

    The model now keeps only per-source totals; this oracle pins the
    totals to the float operations, and their order, of the full trace.
    """
    k = len(source_texts)
    if k == 0:
        return []
    tokenizer = Tokenizer(remove_stopwords=True, stem=True)
    pos_weights = position_weights(prior, k, depth=depth)
    query_terms = set(tokenizer.tokenize(query))
    tokens = []
    for source_index, text in enumerate(source_texts):
        spans = word_spans(text)
        if not spans:
            continue
        saliences = [
            2.0 if set(tokenizer.tokenize(span.text)) & query_terms else 1.0
            for span in spans
        ]
        salience_mass = sum(saliences)
        for token_index, (span, salience) in enumerate(zip(spans, saliences)):
            base = pos_weights[source_index] * salience / salience_mass
            values = tuple(
                tuple(
                    base * (0.5 + _hash_unit(seed, source_index, token_index, layer, head))
                    for head in range(num_heads)
                )
                for layer in range(num_layers)
            )
            tokens.append((source_index, span.text, values))
    return tokens


def reference_totals(query, source_texts, **model_kwargs):
    """Per-source sums of :func:`reference_token_values`, token by token."""
    totals = [0.0] * len(source_texts)
    for source_index, _, values in reference_token_values(query, source_texts, **model_kwargs):
        totals[source_index] += sum(sum(head_values) for head_values in values)
    return totals


def _hex(values):
    return [value.hex() for value in values]


@pytest.fixture(scope="module")
def model():
    return AttentionModel(num_layers=3, num_heads=2, seed=1, depth=0.8)


def test_trace_shape(model):
    trace = model.trace(QUERY, SOURCES)
    assert trace.num_layers == 3
    assert trace.num_heads == 2
    assert len(trace.source_totals) == len(SOURCES)


def test_trace_deterministic(model):
    t1 = model.trace(QUERY, SOURCES)
    t2 = model.trace(QUERY, SOURCES)
    assert t1.source_totals == t2.source_totals


def test_different_seed_different_values():
    a = AttentionModel(seed=1).trace(QUERY, SOURCES)
    b = AttentionModel(seed=2).trace(QUERY, SOURCES)
    assert a.source_totals != b.source_totals


def test_empty_context(model):
    trace = model.trace(QUERY, [])
    assert trace.source_totals == []


def test_positional_bias_visible(model):
    """With a V prior, identical texts at the ends out-attend the middle."""
    same = ["identical text about the championship"] * 5
    trace = model.trace(QUERY, same)
    totals = trace.source_totals
    assert totals[0] > totals[2]
    assert totals[4] > totals[2]


def test_salient_tokens_attract_attention():
    """Within a source, query terms draw more attention than other
    words (shown on the full trace the totals are pinned to)."""
    by_token = {
        token.lower(): sum(sum(layer) for layer in values)
        for source_index, token, values in reference_token_values(
            QUERY, SOURCES, num_layers=3, num_heads=2, seed=1, depth=0.8
        )
        if source_index == 0
    }
    assert by_token["championship"] > by_token["season"]


def test_source_share_sums_to_one(model):
    trace = model.trace(QUERY, SOURCES)
    share = normalize_scores(aggregate_by_source(trace, ["a", "b", "c"]))
    assert math.isclose(sum(share.values()), 1.0, rel_tol=1e-9)


def test_aggregate_by_source(model):
    trace = model.trace(QUERY, SOURCES)
    scores = aggregate_by_source(trace, ["a", "b", "c"])
    assert set(scores) == {"a", "b", "c"}
    assert scores["a"] == pytest.approx(trace.source_totals[0])


def test_aggregate_missing_sources(model):
    trace = model.trace(QUERY, SOURCES[:2])
    scores = aggregate_by_source(trace, ["a", "b", "c"])
    assert scores["c"] == 0.0


def test_combination_score_is_sum():
    scores = {"a": 1.0, "b": 2.0, "c": 4.0}
    assert combination_score(scores, ["a", "c"]) == 5.0
    assert combination_score(scores, []) == 0.0
    assert combination_score(scores, ["missing"]) == 0.0


def test_normalize_scores():
    normalized = normalize_scores({"a": 1.0, "b": 3.0})
    assert normalized == {"a": 0.25, "b": 0.75}
    assert normalize_scores({"a": 0.0}) == {"a": 0.0}


def test_rank_sources():
    assert rank_sources({"a": 1.0, "b": 3.0, "c": 2.0}) == ["b", "c", "a"]
    assert rank_sources({"b": 1.0, "a": 1.0}) == ["a", "b"]  # id tiebreak


def test_source_attention_scores(model):
    """One total per source; a source without word tokens gets 0.0."""
    totals = model.trace(QUERY, SOURCES + ["?! --"]).source_totals
    assert len(totals) == 4
    assert all(total > 0.0 for total in totals[:3])
    assert totals[3] == 0.0


def test_invalid_model_shape():
    with pytest.raises(ConfigError):
        AttentionModel(num_layers=0)
    with pytest.raises(ConfigError):
        AttentionModel(num_heads=0)


def test_uniform_prior_no_position_bias():
    model = AttentionModel(prior=PositionPrior.UNIFORM, seed=3)
    same = ["identical words here"] * 4
    totals = model.trace(QUERY, same).source_totals
    # Hash noise varies per (source, token) but stays within (0.5, 1.5)x
    # of the base, so no position can dominate by more than 3x.
    assert max(totals) / min(totals) < 3.0


# -- bit-identity with the full per-token trace ------------------------------

_WORDS = st.sampled_from(
    ["won", "the", "championship", "Alpha", "beta's", "2020", "season",
     "best", "of", "and", "Świątek", "it's", "'", "--", "!?", "."]
)
_TEXTS = st.one_of(
    st.lists(_WORDS, max_size=14).map(" ".join),
    st.text(alphabet=" .,;:!?'-()", max_size=8),  # empty or punctuation only
    st.text(max_size=24),
)


@settings(max_examples=150, deadline=None)
@given(
    query=_TEXTS,
    source_texts=st.lists(_TEXTS, max_size=10),
    prior=st.sampled_from(list(PositionPrior)),
    seed=st.integers(min_value=0, max_value=2**40),
    depth=st.floats(min_value=0.0, max_value=1.0),
    num_layers=st.integers(min_value=1, max_value=4),
    num_heads=st.integers(min_value=1, max_value=4),
)
def test_totals_are_bit_identical_to_the_full_trace(
    query, source_texts, prior, seed, depth, num_layers, num_heads
):
    shape = dict(num_layers=num_layers, num_heads=num_heads, prior=prior, seed=seed, depth=depth)
    expected = _hex(reference_totals(query, source_texts, **shape))
    for memo in (attention_model._terms, attention_model._noise, attention_model._source_total):
        memo.cache_clear()
    model = AttentionModel(**shape)
    assert _hex(model.trace(query, source_texts).source_totals) == expected
    # A second model of the same shape is answered from the memo.
    assert _hex(AttentionModel(**shape).trace(query, source_texts).source_totals) == expected
    assert attention_model._source_total.cache_info().hits >= len(source_texts)


# ATTENTION-mode relevance scores per (world, LLM seed), recorded from the
# full per-token trace.
PINNED_RELEVANCE = {
    ("big_three", 0): {
        "bigthree-1-match-wins": "0x1.87b2d9bd9f7a5p-2",
        "bigthree-2-grand-slams": "0x1.c8871b67f4257p-4",
        "bigthree-3-weeks-no1": "0x1.c5de71d3f8c46p-4",
        "bigthree-4-head-to-head": "0x1.94b3c2f3654b5p-2",
    },
    ("timeline-1", 0): {
        "timeline-1-2003": "0x1.269d569d96259p-2",
        "timeline-1-2004": "0x1.205f21b3782abp-3",
        "timeline-1-2000": "0x1.134a07f07e904p-4",
        "timeline-1-2005": "0x1.1faa7ab417561p-4",
        "timeline-1-2001": "0x1.1c43c0dc4bfd1p-3",
        "timeline-1-2002": "0x1.2e541771624d0p-2",
    },
    ("timeline-2", 0): {
        "timeline-2-2001": "0x1.269d569d96259p-2",
        "timeline-2-2003": "0x1.205f21b3782abp-3",
        "timeline-2-2000": "0x1.134a07f07e904p-4",
        "timeline-2-2005": "0x1.1faa7ab417561p-4",
        "timeline-2-2002": "0x1.1c43c0dc4bfd1p-3",
        "timeline-2-2004": "0x1.2e541771624d0p-2",
    },
    ("big_three", 7): {
        "bigthree-1-match-wins": "0x1.900960a42b38ep-2",
        "bigthree-2-grand-slams": "0x1.c7995430743c9p-4",
        "bigthree-3-weeks-no1": "0x1.cbfb0e68ca9e8p-4",
        "bigthree-4-head-to-head": "0x1.8b1186b585107p-2",
    },
}


def _pinned_world(name):
    if name == "big_three":
        case = load_use_case(name)
        return case.corpus, case.knowledge, case.query, case.k
    world = make_timeline_world(6, seed=int(name.split("-")[1]))
    return world.corpus, world.knowledge, world.query, 6


@pytest.mark.parametrize("name, llm_seed", sorted(PINNED_RELEVANCE))
def test_attention_relevance_scores_are_pinned(name, llm_seed):
    corpus, knowledge, query, k = _pinned_world(name)
    rage = Rage.from_corpus(
        corpus,
        SimulatedLLM(knowledge=knowledge, seed=llm_seed),
        config=RageConfig(k=k, relevance_method="attention"),
    )
    scores = rage.relevance_scores(rage.retrieve(query))
    expected = PINNED_RELEVANCE[name, llm_seed]
    assert {doc_id: value.hex() for doc_id, value in scores.items()} == expected
