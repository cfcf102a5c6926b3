"""Error hierarchy tests: one catch-all base, specific subclasses."""

import pytest

from repro import RageError
from repro.errors import (
    AssignmentError,
    BatchContractError,
    ConfigError,
    DatasetError,
    DocumentError,
    EmptyIndexError,
    GenerationError,
    PerturbationError,
    PromptError,
    RetrievalError,
    SearchBudgetError,
    StoreDecodeError,
    UnknownDocumentError,
    UnscoredDocumentError,
    ValidationError,
)

ALL_ERRORS = [
    ConfigError,
    RetrievalError,
    EmptyIndexError,
    UnknownDocumentError,
    UnscoredDocumentError,
    PromptError,
    GenerationError,
    SearchBudgetError,
    PerturbationError,
    AssignmentError,
    DatasetError,
    ValidationError,
    DocumentError,
    BatchContractError,
    StoreDecodeError,
]


@pytest.mark.parametrize("error_cls", ALL_ERRORS)
def test_all_derive_from_rage_error(error_cls):
    assert issubclass(error_cls, RageError)
    assert issubclass(error_cls, Exception)


def test_retrieval_specializations():
    assert issubclass(EmptyIndexError, RetrievalError)
    assert issubclass(UnknownDocumentError, RetrievalError)
    assert issubclass(DocumentError, RetrievalError)
    assert issubclass(UnscoredDocumentError, RetrievalError)


def test_taxonomy_migrations_keep_builtin_compatibility():
    """Classes that replaced bare-builtin raises dual-inherit the
    builtin, so pre-taxonomy `except ValueError`/`except RuntimeError`
    callers keep catching them."""
    assert issubclass(ValidationError, ValueError)
    assert issubclass(DocumentError, ValueError)
    assert issubclass(StoreDecodeError, ValueError)
    assert issubclass(BatchContractError, RuntimeError)
    assert issubclass(BatchContractError, GenerationError)
    assert issubclass(UnscoredDocumentError, KeyError)  # score mappings


def test_migrated_raise_sites_use_taxonomy_classes():
    """Regression for the error-taxonomy lint findings: the library
    paths that used to raise bare builtins now raise repro.errors
    classes (catchable as RageError *and* as the old builtin)."""
    from repro.retrieval.document import Corpus, Document
    from repro.textproc.tokenizer import ngrams

    with pytest.raises(DocumentError):
        Document(doc_id="", text="x")
    with pytest.raises(ValueError):  # old-style callers still work
        Document(doc_id="d", text="")
    corpus = Corpus([Document(doc_id="d", text="x")])
    with pytest.raises(DocumentError):
        corpus.add(Document(doc_id="d", text="y"))
    with pytest.raises(ValidationError):
        list(ngrams(["a", "b"], 0))


def test_batch_misalignment_raises_taxonomy_class():
    from repro.exec.backend import _check_alignment
    from repro.llm.simulated import SimulatedLLM

    model = SimulatedLLM()
    with pytest.raises(BatchContractError):
        _check_alignment(model, ["p1", "p2"], [])
    with pytest.raises(RuntimeError):  # pre-taxonomy callers
        _check_alignment(model, ["p1", "p2"], [])


def test_store_decode_mismatch_raises_taxonomy_class():
    from repro.llm.store import decode_result

    with pytest.raises(StoreDecodeError):
        decode_result({"version": -1})
    with pytest.raises(ValueError):  # the store's corruption-as-miss path
        decode_result({"version": -1})


def test_single_catch_covers_library_failures():
    """A caller catching RageError intercepts every deliberate failure
    path exercised here."""
    from repro.attention import position_weights
    from repro.datasets import load_use_case
    from repro.retrieval import InvertedIndex, Searcher

    failing_calls = [
        lambda: Searcher(InvertedIndex()).search("q"),
        lambda: load_use_case("missing"),
        lambda: position_weights("uniform", 0),
    ]
    for call in failing_calls:
        with pytest.raises(RageError):
            call()


def test_errors_carry_messages():
    try:
        from repro.datasets import load_use_case

        load_use_case("nope")
    except DatasetError as error:
        assert "nope" in str(error)
        assert "big_three" in str(error)  # lists what is available
    else:  # pragma: no cover
        pytest.fail("expected DatasetError")
