"""Tokenization for the retrieval and LLM substrates.

Two tokenizers live here:

* :class:`Tokenizer` — an analysis-chain tokenizer (lowercase, split on
  non-alphanumerics, optional stopword removal, optional Porter
  stemming).  It is what the inverted index and BM25 use, mirroring the
  Lucene ``StandardAnalyzer`` that Pyserini configures.  It yields the
  terms of :func:`word_spans` without building a :class:`Span` per
  token.
* :func:`word_spans` — offset-preserving tokenization used by the claim
  extractor and the synthetic attention model, which need to know where
  in the raw source text each token sits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..errors import ValidationError
from .normalize import strip_accents
from .stemmer import PorterStemmer
from .stopwords import STOPWORDS

_TOKEN_RE = re.compile(r"[A-Za-z0-9']+")
_APOSTROPHE_RE = re.compile(r"'+")


@dataclass(frozen=True)
class Span:
    """A token with its character offsets into the source string."""

    text: str
    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


def word_spans(text: str) -> List[Span]:
    """Split ``text`` into word spans, preserving character offsets.

    Tokens are maximal runs of letters, digits and apostrophes; the
    apostrophes are kept in the span but trimmed from ``Span.text`` so
    possessives ("Djokovic's") match the bare entity.
    """
    spans = []
    for match in _TOKEN_RE.finditer(text):
        raw = _APOSTROPHE_RE.sub("", match.group(0))
        if raw:
            spans.append(Span(text=raw, start=match.start(), end=match.end()))
    return spans


class Tokenizer:
    """Configurable analysis chain producing index/query terms.

    Parameters
    ----------
    lowercase:
        Fold case before further processing (default True).
    remove_stopwords:
        Drop terms in :data:`repro.textproc.stopwords.STOPWORDS`.
    stem:
        Apply the Porter stemmer to each surviving term.
    fold_accents:
        Strip combining accents ("Świątek" -> "swiatek") so names typed
        without diacritics still match.
    """

    def __init__(
        self,
        lowercase: bool = True,
        remove_stopwords: bool = True,
        stem: bool = True,
        fold_accents: bool = True,
    ) -> None:
        self.lowercase = lowercase
        self.remove_stopwords = remove_stopwords
        self.stem = stem
        self.fold_accents = fold_accents
        self._stemmer = PorterStemmer()

    def tokenize(self, text: str) -> List[str]:
        """Return the list of analyzed terms for ``text`` (order kept).

        The terms of :func:`word_spans`, taken from the regex matches
        directly: no :class:`Span` is built per token.
        """
        if self.fold_accents:
            text = strip_accents(text)
        if self.lowercase:
            text = text.lower()
        stopwords = STOPWORDS if self.remove_stopwords else ()
        stem = self._stemmer if self.stem else None
        terms: List[str] = []
        for term in _TOKEN_RE.findall(text):
            if "'" in term:
                term = term.replace("'", "")
                if not term:
                    continue
            if term in stopwords:
                continue
            if stem is not None:
                term = stem(term)
            terms.append(term)
        return terms

    def tokenize_unique(self, text: str) -> set:
        """Return the set of distinct analyzed terms for ``text``."""
        return set(self.tokenize(text))

    def __call__(self, text: str) -> List[str]:
        return self.tokenize(text)


def ngrams(terms: Sequence[str], n: int) -> Iterable[tuple]:
    """Yield successive n-grams (tuples) over an analyzed term sequence."""
    if n <= 0:
        raise ValidationError("n must be positive")
    for i in range(len(terms) - n + 1):
        yield tuple(terms[i : i + n])


#: A shared default tokenizer instance (the common configuration).
DEFAULT_TOKENIZER = Tokenizer()
