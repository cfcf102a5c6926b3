"""English stopword list used by the retrieval and LLM substrates.

The list is a compact, dependency-free subset of the classic SMART/Lucene
stopword lists: determiners, pronouns, auxiliaries, conjunctions, and
high-frequency prepositions.  It intentionally excludes comparative and
superlative adjectives (``best``, ``most``, ``latest`` ...) because the
question-intent parser in :mod:`repro.llm.intents` relies on them.
"""

from __future__ import annotations

from typing import FrozenSet

#: Words removed during indexing and query analysis.
STOPWORDS: FrozenSet[str] = frozenset(
    {
        "a", "an", "the", "this", "that", "these", "those",
        "i", "me", "my", "we", "our", "ours", "you", "your", "yours",
        "he", "him", "his", "she", "her", "hers", "it", "its",
        "they", "them", "their", "theirs",
        "am", "is", "are", "was", "were", "be", "been", "being",
        "do", "does", "did", "doing", "have", "has", "had", "having",
        "will", "would", "shall", "should", "can", "could", "may",
        "might", "must",
        "and", "or", "but", "nor", "so", "yet", "if", "then", "else",
        "because", "while", "although", "though",
        "of", "at", "by", "for", "with", "about", "against", "between",
        "into", "through", "during", "before", "after", "above", "below",
        "to", "from", "up", "down", "in", "out", "on", "off", "over",
        "under", "again", "further", "once", "here", "there", "when",
        "where", "why", "how", "all", "any", "both", "each", "few",
        "other", "some", "such", "no", "not", "only", "own", "same",
        "than", "too", "very", "just", "also", "as", "per", "via",
        "who", "whom", "whose", "which", "what",
    }
)
