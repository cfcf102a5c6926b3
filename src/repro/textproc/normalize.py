"""Answer normalization, exactly as specified in the RAGE paper.

    "Before comparing against the original answer, we convert answers to
    lowercase, remove punctuation, and trim whitespace."

All answer comparisons in the counterfactual searches and insight
analyses go through :func:`normalize_answer` so two surface forms of the
same answer ("Roger Federer." vs "roger federer") are treated as equal.
"""

from __future__ import annotations

import re
import unicodedata

_PUNCTUATION_RE = re.compile(r"[^\w\s]", re.UNICODE)
_WHITESPACE_RE = re.compile(r"\s+")


def strip_accents(text: str) -> str:
    """Return ``text`` with combining accents removed (NFKD fold).

    ASCII text is returned as it is: NFKD maps every ASCII character to
    itself and none is a combining mark.
    """
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_answer(answer: str) -> str:
    """Canonicalize an LLM answer for equality comparison.

    Lowercases, strips accents, removes punctuation, and collapses runs
    of whitespace to single spaces with no leading/trailing space.
    The function is idempotent: ``normalize_answer(normalize_answer(x))``
    equals ``normalize_answer(x)``.
    """
    text = strip_accents(answer).lower()
    text = _PUNCTUATION_RE.sub(" ", text)
    text = _WHITESPACE_RE.sub(" ", text)
    return text.strip()


def answers_equal(left: str, right: str) -> bool:
    """Return True when the two answers are equal after normalization."""
    return normalize_answer(left) == normalize_answer(right)


def normalize_entity(name: str) -> str:
    """Canonical key for an entity mention (same folding as answers)."""
    return normalize_answer(name)
