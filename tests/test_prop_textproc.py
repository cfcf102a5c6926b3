"""Property-based tests for the text-processing substrate."""

import hashlib
import itertools
import string
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.dense import _hashed_slot
from repro.textproc import (
    STOPWORDS,
    Tokenizer,
    normalize_answer,
    stem,
    strip_accents,
    word_spans,
)

text_strategy = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    max_size=200,
)
word_strategy = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20)


@given(text_strategy)
def test_normalize_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@given(text_strategy)
def test_normalize_output_shape(text):
    result = normalize_answer(text)
    assert result == result.strip()
    assert "  " not in result
    assert result == result.lower()


@given(st.text(alphabet=string.ascii_letters + string.digits + " .,!?'", max_size=200))
def test_normalize_case_insensitive(text):
    assert normalize_answer(text.upper()) == normalize_answer(text.lower())


@given(word_strategy)
def test_stem_never_longer(word):
    assert len(stem(word)) <= len(word)
    assert stem(word)  # never empty for non-empty input


@given(word_strategy)
def test_stem_deterministic(word):
    assert stem(word) == stem(word)


@given(text_strategy)
def test_word_spans_within_bounds(text):
    for span in word_spans(text):
        assert 0 <= span.start < span.end <= len(text)
        assert span.text


@given(text_strategy)
def test_word_spans_ordered_and_disjoint(text):
    spans = word_spans(text)
    for left, right in zip(spans, spans[1:]):
        assert left.end <= right.start


@given(text_strategy)
@settings(max_examples=50)
def test_tokenizer_excludes_stopwords(text):
    terms = Tokenizer(stem=False).tokenize(text)
    assert not (set(terms) & STOPWORDS)


@given(text_strategy)
@settings(max_examples=50)
def test_tokenizer_lowercases(text):
    for term in Tokenizer(stem=False).tokenize(text):
        assert term == term.lower()


@given(st.lists(word_strategy, min_size=1, max_size=20))
def test_tokenizer_subset_of_unfiltered(words):
    text = " ".join(words)
    filtered = Tokenizer(stem=False).tokenize(text)
    unfiltered = Tokenizer(stem=False, remove_stopwords=False).tokenize(text)
    assert len(filtered) <= len(unfiltered)
    iterator = iter(unfiltered)
    assert all(term in iterator for term in filtered)  # order-preserving subsequence


# ---------------------------------------------------------------------------
# The analysis pass: the terms, folds and hash slots the indexes store
# must equal the straightforward computations they replace.

#: Pieces that exercise every analysis step: ASCII words and stopwords,
#: apostrophe runs, accented letters, combining marks, ligatures and
#: other compatibility characters, digits and separators.
ANALYSIS_PIECES = [
    "Quick", "foxes", "the", "and", "This", "was", "doing", "ands", "running", "2024", "x",
    "'", "''", "'''", "it's", "o'''neill", "'tis'",
    "\u00e9", "\u00c9", "\u015awi\u0105tek", "\u00df", "\u00f8", "\u0150", "\u0130",
    "\u01c5", "\u03a9",
    "\u0301", "\u0308", "\u0327", "e\u0301", "A\u030a",  # combining marks
    "\ufb01", "\ufb00", "\ufb03",  # ligatures: fi, ff, ffi
    "\uff21", "\u2460", "\u210c", "\u338f", "\u00bd",  # fullwidth A, circled 1, ...
    " ", "  ", ".", "-", "\t", "\u2019",
]
analysis_texts = st.one_of(
    st.lists(st.sampled_from(ANALYSIS_PIECES), max_size=30).map("".join),
    text_strategy,
)


def _nfkd_fold(text):
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _reference_terms(tokenizer, text):
    """The analysis chain over :func:`word_spans`, one span at a time."""
    if tokenizer.fold_accents:
        text = _nfkd_fold(text)
    if tokenizer.lowercase:
        text = text.lower()
    terms = []
    for span in word_spans(text):
        if tokenizer.remove_stopwords and span.text in STOPWORDS:
            continue
        terms.append(stem(span.text) if tokenizer.stem else span.text)
    return terms


TOKENIZERS = [
    Tokenizer(lowercase=a, remove_stopwords=b, stem=c, fold_accents=d)
    for a, b, c, d in itertools.product([False, True], repeat=4)
]


@given(analysis_texts)
@settings(max_examples=300)
def test_tokenize_equals_the_word_spans_chain_under_every_flag(text):
    for tokenizer in TOKENIZERS:
        assert tokenizer.tokenize(text) == _reference_terms(tokenizer, text)


@given(analysis_texts)
@settings(max_examples=300)
def test_strip_accents_is_the_nfkd_fold(text):
    assert strip_accents(text) == _nfkd_fold(text)


@given(analysis_texts, st.integers(min_value=1, max_value=4096))
def test_memoized_hash_slot_is_the_blake2b_slot(term, dimensions):
    value = int.from_bytes(
        hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest(), "big"
    )
    expected = (value % dimensions, 1.0 if value >> 63 else -1.0)
    assert _hashed_slot(term, dimensions) == expected
    assert _hashed_slot(term, dimensions) == expected  # a memo hit
