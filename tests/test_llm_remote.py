"""RemoteLLM suites: provider dialects, async parity, fault policy,
capacity across the cache boundary, engine/CLI wiring.

Hermetic throughout — every HTTP request lands on the in-process
FakeLLMServer (the conftest network guard enforces it).
"""

from __future__ import annotations

import json

import pytest

from fakes import FakeLLMServer, Fault, simulated_answer_fn

from repro import Rage, RageConfig, RemoteLLM, SimulatedLLM
from repro.app.cli import main as cli_main
from repro.core.evaluate import ContextEvaluator
from repro.datasets import load_use_case
from repro.errors import (
    ConfigError,
    HttpStatusError,
    MalformedResponseError,
    TransportTimeoutError,
)
from repro.exec import AsyncioBackend, SerialBackend
from repro.exec.backend import run_coroutine
from repro.llm.cache import CachingLLM
from repro.llm.factory import create_llm
from repro.llm.remote import parse_model_spec
from repro.llm.store import PromptStore
from repro.llm.transport import HttpResponse, HttpTransport, RetryPolicy

FAST_RETRY = RetryPolicy(
    max_attempts=6, base_delay=0.005, max_delay=0.02, jitter=0.0
)


class CapturingTransport(HttpTransport):
    """Returns a canned body; records the exact request it was sent."""

    def __init__(self, body: bytes) -> None:
        self.body = body
        self.requests = []

    def request(self, method, url, headers, body, timeout):
        self.requests.append(
            {"method": method, "url": url, "headers": dict(headers),
             "payload": json.loads(body.decode("utf-8")), "timeout": timeout}
        )
        return HttpResponse(200, {}, self.body)


OPENAI_BODY = json.dumps(
    {
        "choices": [{"message": {"role": "assistant", "content": "Paris"}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 2},
    }
).encode()

ANTHROPIC_BODY = json.dumps(
    {
        "content": [{"type": "text", "text": "Par"}, {"type": "text", "text": "is"}],
        "usage": {"input_tokens": 5, "output_tokens": 3},
    }
).encode()


# ---------------------------------------------------------------------------
# Model specs and construction


def test_parse_model_spec():
    assert parse_model_spec("remote:openai:gpt-4o-mini") == ("openai", "gpt-4o-mini")
    assert parse_model_spec("remote:anthropic:claude-3-5-haiku") == (
        "anthropic",
        "claude-3-5-haiku",
    )
    for bad in ("remote:openai", "simulated", "remote::m", "remote:hf:m", ""):
        with pytest.raises(ConfigError):
            parse_model_spec(bad)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        RemoteLLM("nobody", "m")
    with pytest.raises(ConfigError):
        RemoteLLM("openai", "")
    with pytest.raises(ConfigError):
        RemoteLLM("openai", "m", base_url="ftp://x")
    with pytest.raises(ConfigError):
        RemoteLLM("openai", "m", max_tokens=0)


def test_api_key_env_resolution(monkeypatch):
    monkeypatch.setenv("FAKE_KEY_VAR", "sk-test-123")
    llm = RemoteLLM("openai", "m", api_key_env="FAKE_KEY_VAR")
    transport = CapturingTransport(OPENAI_BODY)
    llm._client.transport = transport
    llm.generate("q")
    assert transport.requests[0]["headers"]["Authorization"] == "Bearer sk-test-123"
    monkeypatch.delenv("FAKE_KEY_VAR")
    with pytest.raises(ConfigError):
        RemoteLLM("openai", "m", api_key_env="FAKE_KEY_VAR")


def test_identity_and_cache_params():
    llm = RemoteLLM(
        "openai", "gpt-x", base_url="http://h:1/v1", temperature=0.5, max_tokens=9,
        api_key="secret",
    )
    assert llm.name == "remote:openai/gpt-x"
    assert llm.cache_params == {
        "base_url": "http://h:1/v1",
        "temperature": 0.5,
        "max_tokens": 9,
    }
    # Key material never leaks into content addressing.
    assert "secret" not in json.dumps(llm.cache_params)


# ---------------------------------------------------------------------------
# Provider dialects


def test_openai_request_shape_and_parse():
    transport = CapturingTransport(OPENAI_BODY)
    llm = RemoteLLM(
        "openai", "gpt-x", base_url="http://h:1/v1", api_key="k",
        temperature=0.3, max_tokens=42, transport=transport,
    )
    result = llm.generate("what is the capital?")
    sent = transport.requests[0]
    assert sent["url"] == "http://h:1/v1/chat/completions"
    assert sent["payload"] == {
        "model": "gpt-x",
        "messages": [{"role": "user", "content": "what is the capital?"}],
        "temperature": 0.3,
        "max_tokens": 42,
    }
    assert sent["headers"]["Authorization"] == "Bearer k"
    assert result.answer == "Paris"
    assert result.usage.prompt_tokens == 7
    assert result.usage.completion_tokens == 2


def test_anthropic_request_shape_and_parse():
    transport = CapturingTransport(ANTHROPIC_BODY)
    llm = RemoteLLM(
        "anthropic", "claude-x", base_url="http://h:1", api_key="k",
        max_tokens=64, transport=transport,
    )
    result = llm.generate("q")
    sent = transport.requests[0]
    assert sent["url"] == "http://h:1/v1/messages"
    assert sent["payload"]["max_tokens"] == 64
    assert sent["headers"]["x-api-key"] == "k"
    assert "anthropic-version" in sent["headers"]
    assert result.answer == "Paris"  # text blocks concatenated
    assert result.usage.prompt_tokens == 5
    assert result.usage.completion_tokens == 3


def test_schema_mismatch_is_not_retried():
    """Valid JSON with the wrong shape is a contract violation, not a
    transient glitch: exactly one request, MalformedResponseError."""
    transport = CapturingTransport(b'{"choices": []}')
    llm = RemoteLLM("openai", "m", base_url="http://h:1", transport=transport)
    with pytest.raises(MalformedResponseError):
        llm.generate("q")
    assert len(transport.requests) == 1


def test_usage_accounting_aggregates_and_prices():
    transport = CapturingTransport(OPENAI_BODY)
    llm = RemoteLLM(
        "openai", "m", base_url="http://h:1", transport=transport,
        prompt_price=1.0, completion_price=10.0,  # $ per million tokens
    )
    for _ in range(3):
        llm.generate("q")
    assert llm.usage.calls == 3
    assert llm.usage.prompt_tokens == 21
    assert llm.usage.completion_tokens == 6
    assert llm.usage.total_tokens == 27
    assert llm.usage_cost() == pytest.approx((21 * 1.0 + 6 * 10.0) / 1e6)
    assert any("21 prompt" in line for line in llm.usage_lines())
    unpriced = RemoteLLM("openai", "m", base_url="http://h:1", transport=transport)
    assert unpriced.usage_cost() is None


# ---------------------------------------------------------------------------
# Async parity (the PR 3 regression invariants, now over HTTP)


def test_remote_resolves_to_async_single_rung():
    """No batch entry point: the asyncio backend gathers ``agenerate``."""
    with FakeLLMServer() as server:
        llm = RemoteLLM("openai", "m", base_url=server.base_url, retry=FAST_RETRY)
        assert not hasattr(llm, "generate_batch")
        assert not hasattr(llm, "agenerate_batch")
        awaited = []
        agenerate = llm.agenerate

        async def spy(prompt):
            awaited.append(prompt)
            return await agenerate(prompt)

        llm.agenerate = spy
        AsyncioBackend().run(llm, ["a", "b"])
    assert sorted(awaited) == ["a", "b"]


def test_sync_async_batch_parity_byte_identical():
    prompts = ["alpha", "beta", "gamma", "alpha"]
    with FakeLLMServer() as server:
        llm = RemoteLLM("openai", "m", base_url=server.base_url, retry=FAST_RETRY)
        sync_one = [llm.generate(p).answer for p in prompts]
        async_one = [run_coroutine(llm.agenerate(p)).answer for p in prompts]
        sync_batch = [r.answer for r in SerialBackend().run(llm, prompts)]
        async_batch = [r.answer for r in AsyncioBackend().run(llm, prompts)]
    assert sync_one == async_one == sync_batch == async_batch
    assert len(set(sync_one)) == 3  # distinct prompts, distinct answers


def test_capacity_survives_cache_boundary():
    """The backend behind the cache bounds concurrent HTTP."""
    prompts = [f"prompt {i}" for i in range(12)]
    with FakeLLMServer(latency=0.02) as server:
        llm = RemoteLLM("openai", "m", base_url=server.base_url, retry=FAST_RETRY)
        cached = CachingLLM(llm)
        results = cached.generate_batch(prompts, run=AsyncioBackend(3).run)
        assert len(results) == 12
        assert 1 <= server.max_inflight <= 3


def test_evaluator_inherits_backend_capacity_over_http(big_three):
    """evaluate_many through asyncio:N + cache: inflight stays <= N."""
    with FakeLLMServer(
        answer_fn=simulated_answer_fn(big_three.knowledge), latency=0.02
    ) as server:
        llm = RemoteLLM("openai", "m", base_url=server.base_url, retry=FAST_RETRY)
        probe = Rage.from_corpus(
            big_three.corpus,
            SimulatedLLM(knowledge=big_three.knowledge),
            config=RageConfig(k=big_three.k),
        )
        context = probe.retrieve(big_three.query)
        backend = AsyncioBackend(max_inflight=4)
        evaluator = ContextEvaluator(CachingLLM(llm), context, backend=backend)
        ids = context.doc_ids()
        orderings = [ids[:n] for n in range(1, len(ids) + 1)] + [ids]
        evaluations = evaluator.evaluate_many(orderings)
        assert len(evaluations) == len(orderings)
        assert 1 <= server.max_inflight <= 4
        # The duplicate full-context ordering cost no extra request.
        assert server.request_count == len(ids)


# ---------------------------------------------------------------------------
# Fault policy end-to-end


def test_fault_recovery_transparent_to_caller():
    with FakeLLMServer() as server:
        llm = RemoteLLM("openai", "m", base_url=server.base_url, retry=FAST_RETRY)
        clean = llm.generate("hello").answer
        server.add_faults(
            Fault(kind="status", status=429, retry_after=0.01),
            Fault(kind="status", status=502),
            Fault(kind="malformed"),
            Fault(kind="truncated"),
        )
        assert llm.generate("hello") .answer == clean
        assert llm.client.stats.retries == 4


def test_unrecoverable_status_surfaces():
    with FakeLLMServer() as server:
        llm = RemoteLLM("openai", "m", base_url=server.base_url, retry=FAST_RETRY)
        server.add_fault(Fault(kind="status", status=401))
        with pytest.raises(HttpStatusError) as err:
            llm.generate("q")
        assert err.value.status == 401
        assert server.request_count == 1


def test_persistent_429_exhausts_and_surfaces():
    with FakeLLMServer() as server:
        llm = RemoteLLM(
            "openai", "m", base_url=server.base_url,
            retry=RetryPolicy(max_attempts=3, base_delay=0.005, jitter=0.0),
        )
        for _ in range(3):
            server.add_fault(Fault(kind="status", status=429))
        with pytest.raises(HttpStatusError) as err:
            llm.generate("q")
        assert err.value.status == 429
        assert server.request_count == 3


def test_timeout_fault_retried_then_recovered():
    with FakeLLMServer() as server:
        llm = RemoteLLM(
            "openai", "m", base_url=server.base_url,
            timeout=0.1, retry=FAST_RETRY,
        )
        server.add_fault(Fault(kind="timeout", delay=0.6))
        assert llm.generate("q").answer.startswith("echo:")
        assert llm.client.stats.retries == 1


def test_timeout_exhaustion_raises_transport_timeout():
    with FakeLLMServer() as server:
        llm = RemoteLLM(
            "openai", "m", base_url=server.base_url,
            timeout=0.08, retry=RetryPolicy(max_attempts=1),
        )
        server.add_fault(Fault(kind="timeout", delay=0.6))
        with pytest.raises(TransportTimeoutError):
            llm.generate("q")


# ---------------------------------------------------------------------------
# Disk store: warm repeats make zero HTTP calls


def test_warm_prompt_store_zero_http_requests(tmp_path):
    prompts = ["p1", "p2", "p3"]
    with FakeLLMServer() as server:
        def session():
            store = PromptStore(tmp_path / "store")
            llm = RemoteLLM(
                "openai", "m", base_url=server.base_url, retry=FAST_RETRY
            )
            cached = CachingLLM(llm, store=store)
            return [cached.generate(p).answer for p in prompts]

        cold = session()
        assert server.request_count == len(prompts)
        warm = session()
        assert warm == cold
        assert server.request_count == len(prompts)  # not one more request


def test_store_splits_on_remote_cache_params(tmp_path):
    """Same model name, different endpoint settings: no entry sharing."""
    with FakeLLMServer() as server:
        store = PromptStore(tmp_path / "store")
        first = CachingLLM(
            RemoteLLM(
                "openai", "m", base_url=server.base_url,
                max_tokens=16, retry=FAST_RETRY,
            ),
            store=store,
        )
        second = CachingLLM(
            RemoteLLM(
                "openai", "m", base_url=server.base_url,
                max_tokens=32, retry=FAST_RETRY,
            ),
            store=store,
        )
        first.generate("same prompt")
        second.generate("same prompt")
        assert server.request_count == 2  # no cross-config hit


# ---------------------------------------------------------------------------
# Factory + CLI wiring


def test_config_validates_remote_fields(capsys):
    """Spec shapes are the factory's to check; value ranges are the
    constructors' (HttpClient, TokenBucket, RetryPolicy), reached
    through the factory's flags or set on RemoteLLM directly."""
    create_llm(model="remote:openai:m", base_url="http://h:1")  # fine
    with pytest.raises(ConfigError):
        create_llm(model="remote:nope:m")
    with pytest.raises(ConfigError):
        create_llm(model="remote:openai:m", base_url="not-a-url")
    with pytest.raises(ConfigError):
        create_llm(model="remote:openai:m", timeout=0)
    with pytest.raises(ConfigError):
        create_llm(model="remote:openai:m", rate=-1)
    with pytest.raises(ConfigError):
        RemoteLLM("openai", "m", rate_limit=1.0, rate_burst=0)
    with pytest.raises(ConfigError):
        create_llm(retries=-1)
    with pytest.raises(ConfigError):
        RemoteLLM("openai", "m", retry=RetryPolicy(budget=-0.5))
    # The local dispatch deadline is still the config's to check.
    assert cli_main(["ask", "--use-case", "big_three", "--timeout", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_rejects_inert_remote_fields_without_model_spec():
    """Remote-only knobs without a remote model must fail loudly —
    a mistyped CLI run must not 'succeed' on the simulated model."""
    for kwargs in (
        {"base_url": "http://h:1"},
        {"api_key_env": "SOME_KEY"},
        {"rate": 5.0},
        {"model": "simulated", "rate": 5.0},
        {"providers": ["fallback:simulated"], "base_url": "http://h:1"},
    ):
        with pytest.raises(ConfigError, match="remote"):
            create_llm(**kwargs)
    with pytest.raises(ConfigError, match="rate_limit"):
        RemoteLLM("openai", "m", rate_burst=2)
    # timeout and retries stay valid alone: the deadline also governs
    # local dispatch, and retries has a default.
    assert isinstance(create_llm(timeout=5.0, retries=2), SimulatedLLM)
    RageConfig(request_timeout=5.0)


def test_engine_remote_timeout_lives_in_transport_only(big_three, monkeypatch):
    """Finding-3 regression, on the CLI path: for a remote model the
    deadline is per HTTP request (retries stay reachable); no
    dispatch-level deadline is stacked on top."""
    from repro.app import cli as cli_module

    sessions = []
    original = cli_module.RageSession.for_use_case

    def spy(case, config=None, llm=None):
        sessions.append(original(case, config=config, llm=llm))
        return sessions[-1]

    monkeypatch.setattr(cli_module.RageSession, "for_use_case", staticmethod(spy))
    with FakeLLMServer(answer_fn=simulated_answer_fn(big_three.knowledge)) as server:
        # A stalled first attempt is retried — the configured retries
        # are reachable because each attempt gets its own deadline.
        server.add_fault(Fault(kind="timeout", delay=1.0))
        status = cli_main(
            [
                "ask",
                "--use-case", "big_three",
                "--model", "remote:openai:fake-model",
                "--base-url", server.base_url,
                "--timeout", "0.2",
                "--retries", "3",
            ]
        )
    assert status == 0
    rage = sessions[0].rage
    assert rage.config.request_timeout is None
    assert rage.backend.timeout is None
    assert isinstance(rage.llm, CachingLLM)
    remote = rage.llm.inner
    assert remote.client.timeout == 0.2
    assert remote.client.stats.retries >= 1


def test_create_llm_builds_remote_model_from_flags():
    llm = create_llm(
        model="remote:anthropic:claude-x",
        base_url="http://h:9",
        timeout=3.0,
        rate=5.0,
        retries=2,
    )
    assert llm.name == "remote:anthropic/claude-x"
    assert llm.base_url == "http://h:9"
    assert llm.client.timeout == 3.0
    assert llm.client.rate_limiter is not None
    assert llm.client.rate_limiter.rate == 5.0
    assert llm.client.retry.max_attempts == 3
    assert llm.client.retry.budget == RetryPolicy().budget
    # No model flag: the simulated model over the given knowledge.
    case = load_use_case("big_three")
    default = create_llm(case.knowledge)
    assert isinstance(default, SimulatedLLM)
    assert default.cache_params == SimulatedLLM(knowledge=case.knowledge).cache_params


def test_engine_builds_remote_model_and_answers(big_three):
    with FakeLLMServer(answer_fn=simulated_answer_fn(big_three.knowledge)) as server:
        rage = Rage.from_corpus(
            big_three.corpus,
            create_llm(model="remote:openai:fake-model", base_url=server.base_url),
            config=RageConfig(k=big_three.k),
        )
        answered = rage.ask(big_three.query)
        assert server.request_count > 0
    reference = Rage.from_corpus(
        big_three.corpus,
        SimulatedLLM(knowledge=big_three.knowledge),
        config=RageConfig(k=big_three.k),
    ).ask(big_three.query)
    assert answered.answer == reference.answer


def test_cli_remote_model_ask_and_stats(capsys):
    case = load_use_case("big_three")
    with FakeLLMServer(answer_fn=simulated_answer_fn(case.knowledge)) as server:
        status = cli_main(
            [
                "ask",
                "--use-case", "big_three",
                "--model", "remote:openai:fake-model",
                "--base-url", server.base_url,
                "--retries", "1",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "Answer:" in out
        assert server.request_count > 0


def test_cli_report_stats_prints_remote_usage(capsys):
    case = load_use_case("big_three")
    with FakeLLMServer(answer_fn=simulated_answer_fn(case.knowledge)) as server:
        status = cli_main(
            [
                "report",
                "--use-case", "big_three",
                "--model", "remote:openai:fake-model",
                "--base-url", server.base_url,
                "--stats",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "Remote usage:" in out
        assert "Transport:" in out


def test_cli_rejects_bad_remote_spec(capsys):
    status = cli_main(["ask", "--use-case", "big_three", "--model", "remote:x"])
    assert status == 2
    assert "error:" in capsys.readouterr().err
