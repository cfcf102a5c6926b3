"""Exception hierarchy for the repro (RAGE) library.

Every error raised deliberately by this package derives from
:class:`RageError`, so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class RageError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(RageError):
    """An invalid configuration value was supplied."""


class ValidationError(RageError, ValueError):
    """A caller-supplied argument failed a library precondition.

    Also derives from :class:`ValueError` so pre-taxonomy callers that
    catch the builtin keep working.
    """


class RetrievalError(RageError):
    """The retrieval substrate could not satisfy a request."""


class DocumentError(RetrievalError, ValueError):
    """A document is malformed or conflicts with the corpus.

    Dual-inherits :class:`ValueError` for backward compatibility with
    callers written before the taxonomy covered corpus construction.
    """


class EmptyIndexError(RetrievalError):
    """A query was issued against an index with no documents."""


class UnknownDocumentError(RetrievalError):
    """A document identifier does not exist in the corpus or index."""


class UnscoredDocumentError(RetrievalError, KeyError):
    """A document has no entry in a ``{doc_id: score}`` mapping of
    retrieval scores (it matched no query term, or is not indexed).

    Also derives from :class:`KeyError`, the mapping protocol's miss.
    """


class PromptError(RageError):
    """A prompt could not be built or parsed."""


class GenerationError(RageError):
    """The language model failed to produce an answer."""


class GenerationTimeoutError(GenerationError):
    """A per-call deadline expired before the model answered.

    ``prompts`` holds the prompt(s) that timed out; sibling calls in the
    same batch are always driven to completion first, so the error
    identifies exactly the hung work, never the whole batch.
    """

    def __init__(self, prompts, timeout: float) -> None:
        self.prompts = tuple(prompts)
        self.timeout = timeout
        shown = self.prompts[0] if self.prompts else "?"
        extra = f" (+{len(self.prompts) - 1} more)" if len(self.prompts) > 1 else ""
        super().__init__(
            f"generation exceeded {timeout}s for prompt {shown[:80]!r}{extra}"
        )


class BatchContractError(GenerationError, RuntimeError):
    """A batch backend broke the one-result-per-prompt alignment contract.

    Dual-inherits :class:`RuntimeError`: this is a backend programming
    error, and pre-taxonomy callers trap it as such.
    """


class StoreDecodeError(RageError, ValueError):
    """A persisted store record could not be decoded.

    Dual-inherits :class:`ValueError` so the store's corruption-as-miss
    handling (and older callers) keep catching the builtin.
    """


class TransportError(GenerationError):
    """An HTTP transport failure the remote adapter could not recover."""


class TransportTimeoutError(TransportError):
    """A remote request exceeded its per-request timeout."""


class HttpStatusError(TransportError):
    """The remote endpoint answered with a non-success status."""

    def __init__(self, status: int, message: str, retry_after=None) -> None:
        self.status = status
        self.retry_after = retry_after
        super().__init__(f"HTTP {status}: {message}")


class MalformedResponseError(TransportError):
    """The remote endpoint's body could not be parsed as a completion."""


class NoProviderAvailableError(GenerationError):
    """Every provider in a router pool was unavailable or failed.

    Raised by :class:`~repro.llm.router.RouterLLM` when the failover
    walk exhausts the pool: each provider either had its circuit
    breaker open or failed the request.  ``failures`` maps provider
    name to why, in the order the router walked the pool.
    """

    def __init__(self, failures) -> None:
        self.failures = dict(failures)
        detail = "; ".join(
            f"{name}: {why}" for name, why in self.failures.items()
        )
        super().__init__(
            f"no provider available ({detail or 'empty pool'})"
        )


class SearchBudgetError(RageError):
    """A perturbation search was configured with a non-positive budget."""


class PerturbationError(RageError):
    """A perturbation is inconsistent with the context it applies to."""


class AssignmentError(RageError):
    """The assignment solver received an infeasible or malformed instance."""


class DatasetError(RageError):
    """A built-in dataset could not be constructed or located."""
