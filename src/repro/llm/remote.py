"""Remote chat-completions adapter: RAGE over an HTTP LLM endpoint.

:class:`RemoteLLM` implements the :class:`~repro.llm.base.LanguageModel`
contract — sync ``generate`` plus native-async ``agenerate`` — against
an OpenAI- or Anthropic-style chat endpoint.  The adapter is a pure
payload builder/parser: throttling, timeouts and retries live in the
:class:`~repro.llm.transport.HttpClient` it owns, one client per
adapter so the token bucket and usage accounting are shared by every
concurrent call, whichever execution backend drives them.

Deliberately *no* ``generate_batch``: a chat endpoint takes one prompt
per request, so fanning a batch out is the execution backend's job —
``threaded:N`` runs ``generate`` on ``N`` threads and ``asyncio:N``
gathers ``agenerate`` behind an ``N``-wide semaphore on a loop whose
thread pool is ``N`` wide, which is how the backend's capacity reaches
the wire.  A native batch entry point here would take precedence on
every backend, swallow that bound and reintroduce unbounded fan-out.

Providers
---------
``openai``
    ``POST {base_url}/chat/completions`` with a ``messages`` payload,
    ``Authorization: Bearer`` auth, answer at
    ``choices[0].message.content``, usage in
    ``usage.prompt_tokens``/``completion_tokens``.
``anthropic``
    ``POST {base_url}/v1/messages`` with ``x-api-key`` +
    ``anthropic-version`` headers, answer in the first ``text`` content
    block, usage in ``usage.input_tokens``/``output_tokens``.

API keys come from the environment (``api_key_env`` names the
variable) so key material never sits in configs or reports; a missing
variable is a :class:`~repro.errors.ConfigError` at construction, not
a 401 mid-explanation.  Keyless construction is allowed for local
endpoints (fakes, proxies, self-hosted gateways).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError, MalformedResponseError
from .base import GenerationResult, TokenUsage
from .transport import (
    DEFAULT_TIMEOUT,
    HttpClient,
    HttpTransport,
    RetryPolicy,
    TokenBucket,
)

#: Default completion budget sent to providers that require one
#: (Anthropic's ``max_tokens`` is mandatory).
DEFAULT_MAX_TOKENS = 256

ANTHROPIC_VERSION = "2023-06-01"


def parse_model_spec(spec: str) -> Tuple[str, str]:
    """Split a ``remote:<provider>:<model>`` spec.

    The CLI's ``--model`` and ``--provider`` flags take model specs
    (see :func:`~repro.llm.factory.create_llm`); this parses (and
    validates) the remote form — e.g.
    ``remote:openai:gpt-4o-mini`` or ``remote:anthropic:claude-3-5-haiku``.
    """
    parts = spec.split(":", 2)
    if len(parts) != 3 or parts[0] != "remote" or not parts[1] or not parts[2]:
        raise ConfigError(
            f"invalid remote model spec {spec!r} "
            "(expected remote:<provider>:<model>)"
        )
    provider = parts[1].strip().lower()
    if provider not in _FORMATS:
        raise ConfigError(
            f"unknown remote provider {provider!r} "
            f"(expected one of {sorted(_FORMATS)})"
        )
    return provider, parts[2].strip()


@dataclass
class UsageStats:
    """Aggregated per-session usage for one :class:`RemoteLLM`.

    Counts successful generations only — a failed call that never
    produced an answer has no usage to aggregate (its attempts are
    visible in the transport stats instead).
    """

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens across the session."""
        return self.prompt_tokens + self.completion_tokens


class _ProviderFormat:
    """One provider dialect: URL, headers, payload shape, parsing."""

    name = "abstract"
    default_base_url = ""
    path = ""

    def headers(self, api_key: Optional[str]) -> Dict[str, str]:
        raise NotImplementedError

    def payload(
        self, model: str, prompt: str, temperature: float, max_tokens: int
    ) -> Dict[str, object]:
        raise NotImplementedError

    def parse(self, payload: Mapping[str, object]) -> Tuple[str, TokenUsage]:
        raise NotImplementedError

    @staticmethod
    def _usage_field(payload: Mapping[str, object], key: str) -> int:
        usage = payload.get("usage")
        if not isinstance(usage, dict):
            return 0
        value = usage.get(key, 0)
        return int(value) if isinstance(value, (int, float)) else 0


class _OpenAIFormat(_ProviderFormat):
    name = "openai"
    default_base_url = "https://api.openai.com/v1"
    path = "/chat/completions"

    def headers(self, api_key: Optional[str]) -> Dict[str, str]:
        return {"Authorization": f"Bearer {api_key}"} if api_key else {}

    def payload(
        self, model: str, prompt: str, temperature: float, max_tokens: int
    ) -> Dict[str, object]:
        return {
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }

    def parse(self, payload: Mapping[str, object]) -> Tuple[str, TokenUsage]:
        try:
            choices = payload["choices"]
            message = choices[0]["message"]  # type: ignore[index]
            answer = message["content"]  # type: ignore[index]
        except (KeyError, IndexError, TypeError) as error:
            raise MalformedResponseError(
                f"openai response missing choices[0].message.content: {error!r}"
            ) from error
        if not isinstance(answer, str):
            raise MalformedResponseError(
                f"openai message content is {type(answer).__name__}, not str"
            )
        return answer, TokenUsage(
            prompt_tokens=self._usage_field(payload, "prompt_tokens"),
            completion_tokens=self._usage_field(payload, "completion_tokens"),
        )


class _AnthropicFormat(_ProviderFormat):
    name = "anthropic"
    default_base_url = "https://api.anthropic.com"
    path = "/v1/messages"

    def headers(self, api_key: Optional[str]) -> Dict[str, str]:
        headers = {"anthropic-version": ANTHROPIC_VERSION}
        if api_key:
            headers["x-api-key"] = api_key
        return headers

    def payload(
        self, model: str, prompt: str, temperature: float, max_tokens: int
    ) -> Dict[str, object]:
        return {
            "model": model,
            "max_tokens": max_tokens,
            "temperature": temperature,
            "messages": [{"role": "user", "content": prompt}],
        }

    def parse(self, payload: Mapping[str, object]) -> Tuple[str, TokenUsage]:
        blocks = payload.get("content")
        if not isinstance(blocks, list):
            raise MalformedResponseError("anthropic response missing content blocks")
        texts = [
            block.get("text")
            for block in blocks
            if isinstance(block, dict) and block.get("type") == "text"
        ]
        if not texts or not all(isinstance(text, str) for text in texts):
            raise MalformedResponseError(
                "anthropic response has no text content block"
            )
        return "".join(texts), TokenUsage(  # type: ignore[arg-type]
            prompt_tokens=self._usage_field(payload, "input_tokens"),
            completion_tokens=self._usage_field(payload, "output_tokens"),
        )


_FORMATS: Dict[str, _ProviderFormat] = {
    fmt.name: fmt for fmt in (_OpenAIFormat(), _AnthropicFormat())
}


class RemoteLLM:
    """A remote chat-completions endpoint as a :class:`LanguageModel`.

    Parameters
    ----------
    provider:
        ``"openai"`` or ``"anthropic"`` (the payload dialect).
    model:
        The provider-side model identifier.
    base_url:
        Endpoint root; defaults to the provider's public API.  Point it
        at a fake server, a proxy or a self-hosted gateway for hermetic
        runs.
    api_key / api_key_env:
        Explicit key, or the *name* of the environment variable holding
        it (naming a variable that is unset raises
        :class:`~repro.errors.ConfigError` immediately).  Both omitted
        = unauthenticated (local endpoints).
    timeout:
        Per-request timeout in seconds.
    rate_limit / rate_burst:
        Token-bucket throttle shared by every concurrent call;
        ``None`` = unthrottled.  A burst without a rate would be inert
        and raises :class:`~repro.errors.ConfigError`.
    retry:
        The :class:`~repro.llm.transport.RetryPolicy`; default retries
        429/transient-5xx/timeouts/malformed bodies with capped
        exponential backoff.
    temperature / max_tokens:
        Generation parameters (part of the persistent-cache identity).
    prompt_price / completion_price:
        Optional $ per **million** tokens; when set,
        :meth:`usage_cost` prices the session.
    transport / client:
        Injection points for tests; ``client`` overrides everything
        transport-related.
    """

    def __init__(
        self,
        provider: str,
        model: str,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        api_key_env: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        temperature: float = 0.0,
        max_tokens: int = DEFAULT_MAX_TOKENS,
        prompt_price: Optional[float] = None,
        completion_price: Optional[float] = None,
        transport: Optional[HttpTransport] = None,
        client: Optional[HttpClient] = None,
        seed: int = 0,
    ) -> None:
        fmt = _FORMATS.get(provider.strip().lower())
        if fmt is None:
            raise ConfigError(
                f"unknown remote provider {provider!r} "
                f"(expected one of {sorted(_FORMATS)})"
            )
        if not model:
            raise ConfigError("remote model id must be non-empty")
        if max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {max_tokens}")
        if rate_burst is not None and rate_limit is None:
            raise ConfigError("rate_burst only affects a rate limit; set rate_limit")
        self._format = fmt
        self.provider = fmt.name
        self.model = model
        self.base_url = (base_url or fmt.default_base_url).rstrip("/")
        if not self.base_url.startswith(("http://", "https://")):
            raise ConfigError(
                f"base_url must be http(s), got {self.base_url!r}"
            )
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.prompt_price = prompt_price
        self.completion_price = completion_price
        self._api_key = self._resolve_key(api_key, api_key_env)
        if client is not None:
            self._client = client
        else:
            limiter = (
                TokenBucket(rate_limit, burst=rate_burst)
                if rate_limit is not None
                else None
            )
            self._client = HttpClient(
                transport=transport,
                rate_limiter=limiter,
                retry=retry,
                timeout=timeout,
                seed=seed,
            )
        self.usage = UsageStats()
        self._usage_lock = threading.Lock()

    @staticmethod
    def _resolve_key(
        api_key: Optional[str], api_key_env: Optional[str]
    ) -> Optional[str]:
        if api_key is not None:
            return api_key
        if api_key_env is None:
            return None
        value = os.environ.get(api_key_env)
        if not value:
            raise ConfigError(
                f"api_key_env {api_key_env!r} is not set in the environment"
            )
        return value

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        """Identifier for reports and cache keys."""
        return f"remote:{self.provider}/{self.model}"

    @property
    def cache_params(self) -> Dict[str, object]:
        """Persistent-cache identity beyond the name.

        Two same-named remote models answering through different
        endpoints or generation settings must not share store entries;
        the API key is deliberately excluded (it selects an account,
        not an answer distribution — and must never be hashed into
        on-disk artifacts).
        """
        return {
            "base_url": self.base_url,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }

    @property
    def client(self) -> HttpClient:
        """The shared transport client (stats, limiter, retry policy)."""
        return self._client

    # -- generation --------------------------------------------------------

    @property
    def _url(self) -> str:
        return self.base_url + self._format.path

    def _request_parts(
        self, prompt: str
    ) -> Tuple[Dict[str, object], Dict[str, str]]:
        payload = self._format.payload(
            self.model, prompt, self.temperature, self.max_tokens
        )
        return payload, self._format.headers(self._api_key)

    def _finish(
        self, prompt: str, raw: Mapping[str, object]
    ) -> GenerationResult:
        answer, usage = self._format.parse(raw)
        with self._usage_lock:
            self.usage.calls += 1
            self.usage.prompt_tokens += usage.prompt_tokens
            self.usage.completion_tokens += usage.completion_tokens
        return GenerationResult(
            answer=answer,
            prompt=prompt,
            attention=None,
            usage=usage,
            diagnostics={"provider": self.provider, "endpoint": self._url},
        )

    def generate(self, prompt: str) -> GenerationResult:
        """One throttled, retried HTTP completion for ``prompt``."""
        payload, headers = self._request_parts(prompt)
        raw = self._client.post_json(self._url, payload, headers)
        return self._finish(prompt, raw)

    async def agenerate(self, prompt: str) -> GenerationResult:
        """Async :meth:`generate`: same policy stack, awaited sleeps.

        This is the entry point that makes ``asyncio:N`` pay off — the
        backend gathers per-prompt calls behind its in-flight bound
        while the event loop overlaps every in-flight request.
        """
        payload, headers = self._request_parts(prompt)
        raw = await self._client.apost_json(self._url, payload, headers)
        return self._finish(prompt, raw)

    # -- accounting --------------------------------------------------------

    def usage_cost(self) -> Optional[float]:
        """Session cost in dollars, when prices are configured."""
        if self.prompt_price is None or self.completion_price is None:
            return None
        return (
            self.usage.prompt_tokens * self.prompt_price
            + self.usage.completion_tokens * self.completion_price
        ) / 1_000_000.0

    def usage_lines(self) -> List[str]:
        """Human-readable usage summary (the CLI's ``--stats`` block)."""
        stats = self._client.stats
        lines = [
            f"Remote usage: {self.usage.calls} completions via {self.name}; "
            f"{self.usage.prompt_tokens} prompt + "
            f"{self.usage.completion_tokens} completion tokens",
            f"Transport: {stats.requests} requests "
            f"({stats.retries} retries, {stats.throttle_waits} throttled, "
            f"{stats.backoff_seconds:.2f}s backoff)",
        ]
        cost = self.usage_cost()
        if cost is not None:
            lines.append(f"Estimated cost: ${cost:.6f}")
        return lines
