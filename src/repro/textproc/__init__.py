"""Text processing substrate: tokenization, stemming, normalization.

These utilities back both the retrieval index (term analysis) and the
simulated LLM (answer normalization, offset-preserving token spans).
"""

from .normalize import (
    answers_equal,
    normalize_answer,
    normalize_entity,
    strip_accents,
)
from .stemmer import PorterStemmer, stem
from .stopwords import STOPWORDS
from .tokenizer import DEFAULT_TOKENIZER, Span, Tokenizer, ngrams, word_spans

__all__ = [
    "answers_equal",
    "normalize_answer",
    "normalize_entity",
    "strip_accents",
    "PorterStemmer",
    "stem",
    "STOPWORDS",
    "DEFAULT_TOKENIZER",
    "Span",
    "Tokenizer",
    "ngrams",
    "word_spans",
]
