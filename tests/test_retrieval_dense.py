"""Dense retrieval and hybrid fusion tests."""

import numpy as np
import pytest

from repro.errors import ConfigError, EmptyIndexError
from repro.retrieval import (
    BM25Scorer,
    DenseIndex,
    DenseScorer,
    Document,
    HashedEmbedder,
    HybridScorer,
    InvertedIndex,
    Searcher,
)

DOCS = [
    Document(doc_id="fox", text="the quick brown fox jumps over the lazy dog"),
    Document(doc_id="fox2", text="a brown fox ran across the quiet field"),
    Document(doc_id="cook", text="simmer the onions garlic and tomatoes slowly"),
    Document(doc_id="space", text="the rocket reached orbit after a flawless launch"),
]


@pytest.fixture(scope="module")
def dense_index():
    return DenseIndex.build(DOCS)


def test_embedder_shapes_and_norms():
    embedder = HashedEmbedder(dimensions=64)
    vector = embedder.embed("quick brown fox")
    assert vector.shape == (64,)
    assert np.linalg.norm(vector) == pytest.approx(1.0)


def test_embedder_deterministic():
    embedder = HashedEmbedder()
    assert np.array_equal(embedder.embed("same text"), embedder.embed("same text"))


def test_embedder_empty_text_zero_vector():
    embedder = HashedEmbedder()
    assert np.linalg.norm(embedder.embed("")) == 0.0
    assert np.linalg.norm(embedder.embed("the of and")) == 0.0  # all stopwords


def test_embedder_similarity_orders_topics():
    embedder = HashedEmbedder()
    query = embedder.embed("brown fox")
    fox = embedder.embed("the quick brown fox jumps")
    cooking = embedder.embed("simmer onions garlic tomatoes")
    assert float(query @ fox) > float(query @ cooking)


def test_embedder_batch():
    embedder = HashedEmbedder(dimensions=32)
    matrix = embedder.embed_batch(["one text", "two texts"])
    assert matrix.shape == (2, 32)
    assert embedder.embed_batch([]).shape == (0, 32)


def test_embedder_validation():
    with pytest.raises(ConfigError):
        HashedEmbedder(dimensions=0)


def test_dense_search_ranks_on_topic(dense_index):
    results = dense_index.search("brown fox running", k=4)
    top_ids = [doc_id for doc_id, _ in results[:2]]
    assert set(top_ids) == {"fox", "fox2"}
    scores = [score for _, score in results]
    assert scores == sorted(scores, reverse=True)


def test_dense_search_validation(dense_index):
    with pytest.raises(ConfigError):
        dense_index.search("q", k=0)
    with pytest.raises(EmptyIndexError):
        DenseIndex().search("q")


def test_dense_scores_all_docs(dense_index):
    scores = dense_index.scores("rocket orbit")
    assert set(scores) == {doc.doc_id for doc in DOCS}
    assert scores["space"] == max(scores.values())


def test_dense_scorer_through_searcher(dense_index):
    sparse_index = InvertedIndex.build(DOCS)
    searcher = Searcher(sparse_index, scorer=DenseScorer(dense_index))
    result = searcher.search("brown fox", k=2)
    assert set(result.doc_ids()) == {"fox", "fox2"}


def test_hybrid_scorer_combines(dense_index):
    sparse_index = InvertedIndex.build(DOCS)
    hybrid = HybridScorer(BM25Scorer(), DenseScorer(dense_index), alpha=0.5)
    searcher = Searcher(sparse_index, scorer=hybrid)
    result = searcher.search("quick brown fox", k=4)
    assert result.doc_ids()[0] == "fox"


def test_hybrid_alpha_extremes(dense_index):
    sparse_index = InvertedIndex.build(DOCS)
    terms = sparse_index.tokenizer.tokenize("brown fox")
    sparse_only = HybridScorer(BM25Scorer(), DenseScorer(dense_index), alpha=1.0)
    dense_only = HybridScorer(BM25Scorer(), DenseScorer(dense_index), alpha=0.0)
    s_scores = sparse_only.score_query(sparse_index, terms)
    d_scores = dense_only.score_query(sparse_index, terms)
    # alpha=1: ranking follows sparse normalization; alpha=0: dense
    assert max(s_scores, key=s_scores.get) in {"fox", "fox2"}
    assert max(d_scores, key=d_scores.get) in {"fox", "fox2"}


def test_hybrid_alpha_validation(dense_index):
    with pytest.raises(ConfigError):
        HybridScorer(BM25Scorer(), DenseScorer(dense_index), alpha=1.5)


def test_hybrid_normalization_constant_scores():
    from repro.retrieval.bm25 import on_rows

    scores = HybridScorer._normalize(on_rows({"a": 2.0, "b": 2.0}))
    assert scores == {"a": 1.0, "b": 1.0}
    assert HybridScorer._normalize(on_rows({})) == {}


def test_dense_engine_integration(dense_index):
    """The whole RAGE engine runs on a dense retriever."""
    from repro import Rage, RageConfig
    from repro.llm import ScriptedLLM

    sparse_index = InvertedIndex.build(DOCS)
    rage = Rage(
        sparse_index,
        ScriptedLLM(default="an answer"),
        config=RageConfig(k=2),
        retrieval_scorer=DenseScorer(dense_index),
    )
    context = rage.retrieve("brown fox")
    assert set(context.doc_ids()) == {"fox", "fox2"}


# ---------------------------------------------------------------------------
# Reciprocal-rank fusion


class _FixedScorer:
    """A Scorer returning canned scores, for fusion-shape tests."""

    def __init__(self, scores):
        self._scores = scores

    def score_query(self, index, query_terms):
        return dict(self._scores)


#: The documents the canned scores name; fusion ranks on its rows.
ABC = InvertedIndex.build(Document(doc_id=d, text=f"document {d}") for d in "abc")


def test_rrf_is_scale_invariant():
    """RRF fuses ranks, so rescaling one signal changes nothing.

    This is the property raw score addition lacks: an unbounded BM25
    value would swamp a [-1, 1] cosine the moment the corpus grows.
    """
    from repro.retrieval import ReciprocalRankFusionScorer

    sparse = {"a": 12.0, "b": 7.0, "c": 1.0}
    dense = {"a": 0.1, "b": 0.9, "c": 0.5}
    base = ReciprocalRankFusionScorer(
        [_FixedScorer(sparse), _FixedScorer(dense)]
    ).score_query(ABC, ["q"])
    scaled = ReciprocalRankFusionScorer(
        [
            _FixedScorer({d: s * 1000.0 for d, s in sparse.items()}),
            _FixedScorer(dense),
        ]
    ).score_query(ABC, ["q"])
    assert base == scaled


def test_rrf_deterministic_tie_breaks():
    from repro.retrieval import ReciprocalRankFusionScorer

    tied = _FixedScorer({"b": 1.0, "a": 1.0, "c": 1.0})
    fused = ReciprocalRankFusionScorer([tied], k0=1.0).score_query(ABC, [])
    # Ranks 1, 2, 3 in doc_id order.
    assert fused == {"a": 1.0 / 2.0, "b": 1.0 / 3.0, "c": 1.0 / 4.0}


def test_rrf_weights_and_partial_coverage():
    from repro.retrieval import ReciprocalRankFusionScorer

    fused = ReciprocalRankFusionScorer(
        [_FixedScorer({"a": 1.0}), _FixedScorer({"b": 1.0})],
        k0=1.0,
        weights=[2.0, 1.0],
    ).score_query(ABC, ["q"])
    # Each doc is rank 1 for its scorer and unscored by the other.
    assert fused == {"a": 2.0 / 2.0, "b": 1.0 / 2.0}


def test_rrf_validation():
    from repro.retrieval import ReciprocalRankFusionScorer

    with pytest.raises(ConfigError):
        ReciprocalRankFusionScorer([])
    with pytest.raises(ConfigError):
        ReciprocalRankFusionScorer([_FixedScorer({})], k0=0.0)
    with pytest.raises(ConfigError):
        ReciprocalRankFusionScorer([_FixedScorer({})], weights=[1.0, 2.0])


# ---------------------------------------------------------------------------
# Fusion stability under corpus growth (regression)


def _hybrid_ranking(docs, query, fusion):
    from repro.retrieval import ReciprocalRankFusionScorer, top_k

    sparse_index = InvertedIndex.build(docs)
    dense = DenseScorer(DenseIndex.build(docs))
    if fusion == "rrf":
        scorer = ReciprocalRankFusionScorer([BM25Scorer(), dense])
    else:
        scorer = HybridScorer(BM25Scorer(), dense, alpha=0.5)
    terms = sparse_index.tokenizer.tokenize(query)
    scores = scorer.score_query(sparse_index, terms)
    return [doc_id for doc_id, _ in top_k(scores, k=2)]


@pytest.mark.parametrize("fusion", ["minmax", "rrf"])
def test_fusion_rank_stability_under_corpus_growth(fusion):
    """Growing the corpus with unrelated filler must not flip the
    relative order of the two fox documents.

    With raw score addition it would: BM25's IDF term grows with the
    corpus while cosine stays bounded in [-1, 1], so the sparse signal
    gradually drowns the dense one.  Normalized and rank-based fusion
    are immune.
    """
    query = "quick brown fox"
    before = _hybrid_ranking(DOCS, query, fusion)
    filler = [
        Document(doc_id=f"filler-{i}", text=f"unrelated topic number {i} entirely")
        for i in range(60)
    ]
    after = _hybrid_ranking(DOCS + filler, query, fusion)
    assert before == after == ["fox", "fox2"]
