"""RouterLLM suites: breaker lifecycle, failover, hedging, wiring.

The two-server failover sections are hermetic: every HTTP request lands
on an in-process FakeLLMServer (the conftest network guard enforces
it), and "dead provider" means a loopback port that was bound once and
released, so connections are refused instantly.
"""

from __future__ import annotations

import asyncio

import pytest

from fakes import FakeLLMServer, Fault, simulated_answer_fn

from repro import Rage, RageConfig, RemoteLLM, RouterLLM, SimulatedLLM
from repro.app.cli import main as cli_main
from repro.app.server import encode_json, report_payload
from repro.datasets import load_use_case
from repro.errors import (
    ConfigError,
    NoProviderAvailableError,
    TransportError,
)
from repro.exec import AsyncioBackend
from repro.llm.base import GenerationResult, TokenUsage
from repro.llm.factory import FALLBACK_SIMULATED, create_llm
from repro.llm.router import BreakerState, CircuitBreaker
from repro.llm.transport import RetryPolicy, TokenBucket

NO_RETRY = RetryPolicy(max_attempts=1)


class FakeClock:
    """Injectable monotonic clock the breaker tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class EchoLLM:
    """Deterministic member: optional initial failures, optional delay."""

    def __init__(
        self,
        name: str,
        answer: str = "ok",
        fail_first: int = 0,
        delay: float = 0.0,
        offer_async: bool = True,
    ) -> None:
        self._name = name
        self.answer = answer
        self.fail_first = fail_first
        self.delay = delay
        self.calls = 0
        if not offer_async:
            self.agenerate = None  # type: ignore[assignment]

    @property
    def name(self) -> str:
        return self._name

    def _serve(self, prompt: str) -> GenerationResult:
        self.calls += 1
        if self.calls <= self.fail_first:
            raise TransportError(f"{self._name} fault #{self.calls}")
        return GenerationResult(
            answer=self.answer, prompt=prompt, usage=TokenUsage(1, 1)
        )

    def generate(self, prompt: str) -> GenerationResult:
        result = self._serve(prompt)
        return result

    async def agenerate(self, prompt: str) -> GenerationResult:  # type: ignore[misc]
        if self.delay:
            await asyncio.sleep(self.delay)
        return self._serve(prompt)


def _dead_base_url() -> str:
    """A loopback URL nothing listens on (connections refused)."""
    with FakeLLMServer() as probe:
        url = probe.base_url
    return url


# ---------------------------------------------------------------------------
# CircuitBreaker lifecycle


def test_breaker_trips_after_exactly_n_consecutive_failures():
    breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=FakeClock())
    for _ in range(2):
        assert breaker.try_claim()
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.consecutive_failures == 2
    assert breaker.try_claim()
    breaker.record_failure()  # the third consecutive failure trips it
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1
    assert not breaker.try_claim()


def test_breaker_success_resets_the_consecutive_count():
    breaker = CircuitBreaker(threshold=2, cooldown=10.0, clock=FakeClock())
    breaker.try_claim()
    breaker.record_failure()
    breaker.try_claim()
    breaker.record_success()
    assert breaker.consecutive_failures == 0
    breaker.try_claim()
    breaker.record_failure()  # 1 of 2 again, not 2 of 2
    assert breaker.state is BreakerState.CLOSED


def test_breaker_half_open_grants_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
    breaker.try_claim()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.try_claim()  # cooldown not elapsed
    clock.advance(5.0)
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.try_claim()  # the probe
    assert not breaker.try_claim()  # probe slot is exclusive
    assert not breaker.available


def test_breaker_probe_success_recloses():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
    breaker.try_claim()
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.try_claim()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.reclosures == 1
    assert breaker.consecutive_failures == 0


def test_breaker_probe_failure_reopens_for_a_fresh_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
    breaker.try_claim()
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.try_claim()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    clock.advance(4.9)
    assert not breaker.try_claim()
    clock.advance(0.1)
    assert breaker.try_claim()


def test_breaker_abort_releases_the_probe_slot_without_deciding():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
    breaker.try_claim()
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.try_claim()
    breaker.abort()
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.try_claim()  # the slot is claimable again


def test_breaker_validates_parameters():
    with pytest.raises(ConfigError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ConfigError):
        CircuitBreaker(cooldown=-1.0)


# ---------------------------------------------------------------------------
# RouterLLM construction and identity


def test_router_rejects_empty_pool_and_duplicate_names():
    with pytest.raises(ConfigError):
        RouterLLM([])
    with pytest.raises(ConfigError):
        RouterLLM([EchoLLM("twin"), EchoLLM("twin")])
    with pytest.raises(ConfigError):
        RouterLLM([EchoLLM("a"), EchoLLM("b")], hedge_delay=0.0)


def test_router_keys_same_named_members_by_endpoint():
    router = RouterLLM(
        [
            RemoteLLM("openai", "m", base_url="http://a:1"),
            RemoteLLM("openai", "m", base_url="http://b:2"),
            EchoLLM("solo"),
        ]
    )
    assert list(router.health) == [
        "remote:openai/m@http://a:1",
        "remote:openai/m@http://b:2",
        "solo",
    ]
    assert [entry["name"] for entry in router.provider_stats()] == list(
        router.health
    )
    # The store key stays the bare names plus each member's params.
    assert router.name == "router(remote:openai/m+remote:openai/m+solo)"
    assert [p["name"] for p in router.cache_params["providers"]] == [
        "remote:openai/m",
        "remote:openai/m",
        "solo",
    ]
    with pytest.raises(ConfigError, match="duplicate provider names"):
        RouterLLM(
            [
                RemoteLLM("openai", "m", base_url="http://a:1"),
                RemoteLLM("openai", "m", base_url="http://a:1/"),
            ]
        )


def test_router_cache_params_merge_every_member_identity():
    sim = SimulatedLLM()
    router = RouterLLM([EchoLLM("prim"), sim])
    params = router.cache_params
    assert [p["name"] for p in params["providers"]] == ["prim", sim.name]
    assert params["providers"][1]["params"] == dict(sim.cache_params)
    assert router.name == f"router(prim+{sim.name})"


def test_router_cache_params_identical_regardless_of_member_health():
    # The store key must not depend on which member happens to serve.
    members = lambda: [EchoLLM("prim"), EchoLLM("back")]  # noqa: E731
    healthy = RouterLLM(members())
    degraded = RouterLLM(members(), breaker_threshold=1)
    degraded_members = degraded.members
    degraded_members[0].fail_first = 10
    degraded.generate("q")  # primary fails; fallback serves
    assert healthy.cache_params == degraded.cache_params


# ---------------------------------------------------------------------------
# Sync failover


def test_sync_failover_to_next_provider():
    primary = EchoLLM("prim", fail_first=1)
    backup = EchoLLM("back", answer="served-by-backup")
    router = RouterLLM([primary, backup])
    result = router.generate("q")
    assert result.answer == "served-by-backup"
    assert router.stats.requests == 1
    assert router.stats.failovers == 1
    assert router.health["prim"].failures == 1
    assert router.health["back"].successes == 1


def test_sync_breaker_opens_and_skips_the_dead_primary():
    primary = EchoLLM("prim", fail_first=100)
    backup = EchoLLM("back")
    router = RouterLLM([primary, backup], breaker_threshold=2)
    for _ in range(5):
        assert router.generate("q").answer == "ok"
    # Exactly threshold requests reached the primary; the rest skipped.
    assert primary.calls == 2
    assert router.health["prim"].breaker.trips == 1
    assert router.health["prim"].breaker.state is BreakerState.OPEN
    assert router.stats.failovers == 5


def test_sync_half_open_probe_recovers_the_primary():
    clock = FakeClock()
    primary = EchoLLM("prim", fail_first=1)
    backup = EchoLLM("back", answer="backup")
    router = RouterLLM(
        [primary, backup], breaker_threshold=1, breaker_cooldown=5.0,
        clock=clock,
    )
    assert router.generate("q").answer == "backup"  # trip + failover
    assert router.generate("q").answer == "backup"  # skipped while open
    assert primary.calls == 1
    clock.advance(5.0)
    assert router.generate("q").answer == "ok"  # probe succeeds
    assert router.health["prim"].breaker.reclosures == 1
    assert router.health["prim"].breaker.state is BreakerState.CLOSED
    assert router.generate("q").answer == "ok"  # back to normal priority


def test_sync_exhausted_pool_names_every_failure():
    router = RouterLLM(
        [EchoLLM("prim", fail_first=9), EchoLLM("back", fail_first=9)]
    )
    with pytest.raises(NoProviderAvailableError) as excinfo:
        router.generate("q")
    assert set(excinfo.value.failures) == {"prim", "back"}
    assert "TransportError" in excinfo.value.failures["prim"]
    assert router.stats.exhausted == 1


def test_sync_non_transport_errors_propagate_unchanged():
    class BuggyLLM:
        name = "buggy"

        def generate(self, prompt):
            raise ValueError("not a health signal")

    router = RouterLLM([BuggyLLM(), EchoLLM("back")])
    with pytest.raises(ValueError):
        router.generate("q")
    # No failure recorded: the breaker only counts transport faults.
    assert router.health["buggy"].breaker.consecutive_failures == 0


# ---------------------------------------------------------------------------
# Async failover and hedging


def test_async_failover_matches_sync():
    primary = EchoLLM("prim", fail_first=1)
    backup = EchoLLM("back", answer="async-backup")
    router = RouterLLM([primary, backup])
    result = asyncio.run(router.agenerate("q"))
    assert result.answer == "async-backup"
    assert router.stats.failovers == 1


def test_async_walk_uses_to_thread_for_sync_only_members():
    sync_only = EchoLLM("sync-only", offer_async=False)
    router = RouterLLM([sync_only])
    result = asyncio.run(router.agenerate("q"))
    assert result.answer == "ok"
    assert sync_only.calls == 1


def test_hedge_fires_and_backup_wins_under_tail_latency():
    primary = EchoLLM("prim", delay=0.5)
    backup = EchoLLM("back", answer="hedged", delay=0.0)
    router = RouterLLM([primary, backup], hedge=True, hedge_delay=0.02)
    result = asyncio.run(router.agenerate("q"))
    assert result.answer == "hedged"
    assert router.stats.hedges_fired == 1
    assert router.stats.hedges_won == 1
    assert router.health["back"].hedges_fired == 1
    assert router.health["back"].hedges_won == 1
    # The cancelled primary said nothing about its health.
    assert router.health["prim"].breaker.state is BreakerState.CLOSED
    assert router.health["prim"].failures == 0


def test_hedge_primary_wins_when_fast_enough():
    primary = EchoLLM("prim", answer="primary", delay=0.0)
    backup = EchoLLM("back", answer="hedged")
    router = RouterLLM([primary, backup], hedge=True, hedge_delay=0.2)
    result = asyncio.run(router.agenerate("q"))
    assert result.answer == "primary"
    assert router.stats.hedges_fired == 0
    assert backup.calls == 0


def test_hedge_falls_back_to_failover_with_one_available_member():
    router = RouterLLM([EchoLLM("only")], hedge=True, hedge_delay=0.01)
    assert asyncio.run(router.agenerate("q")).answer == "ok"
    assert router.stats.hedges_fired == 0


def test_hedge_without_delay_or_p95_history_does_not_fire():
    primary = EchoLLM("prim", delay=0.05)
    backup = EchoLLM("back")
    router = RouterLLM([primary, backup], hedge=True)  # delay=None, no p95
    assert asyncio.run(router.agenerate("q")).answer == "ok"
    assert router.stats.hedges_fired == 0


def test_hedge_uses_observed_p95_once_history_exists():
    primary = EchoLLM("prim", delay=0.0)
    backup = EchoLLM("back", answer="hedged")
    router = RouterLLM([primary, backup], hedge=True)

    async def scenario():
        for _ in range(3):  # build a (tiny) latency window on the primary
            await router.agenerate("warm")
        primary.delay = 0.5  # tail-latency burst, way past its p95
        return await router.agenerate("q")

    result = asyncio.run(scenario())
    assert result.answer == "hedged"
    assert router.stats.hedges_fired == 1


@pytest.mark.parametrize("width, backup_won", [(1, 0), (2, 1)])
def test_hedged_backup_shares_the_asyncio_backends_capacity(width, backup_won):
    """A backup waits for a free slot in the loop's thread pool like any
    other request: on ``asyncio:1`` the slow primary holds the only
    slot, so the backup cannot start, let alone win, before it answers."""
    with FakeLLMServer(latency=0.3) as slow, FakeLLMServer(latency=0.1) as fast:
        router = RouterLLM(
            [
                RemoteLLM("openai", "slow", base_url=slow.base_url, retry=NO_RETRY),
                RemoteLLM("openai", "fast", base_url=fast.base_url, retry=NO_RETRY),
            ],
            hedge=True,
            hedge_delay=0.02,
        )
        (result,) = AsyncioBackend(width).run(router, ["q"])
    assert result.prompt == "q"
    assert router.stats.hedges_fired == 1
    assert router.stats.hedges_won == backup_won


def test_cancelled_hedge_loser_refunds_its_rate_limit_reservation():
    bucket = TokenBucket(rate=0.1, burst=1)

    class BucketedSlowLLM:
        name = "bucketed"

        async def agenerate(self, prompt):
            await bucket.aacquire()
            try:
                return GenerationResult(answer="slow", prompt=prompt)
            except asyncio.CancelledError:
                bucket.cancel()
                raise

    # Drain the bucket so the primary's aacquire() must sleep out a
    # ~10s wait — the hedge then cancels it mid-wait, exercising
    # aacquire's cancellation-refund path.
    assert bucket.reserve() == 0.0
    router = RouterLLM(
        [BucketedSlowLLM(), EchoLLM("back", answer="hedged")],
        hedge=True,
        hedge_delay=0.02,
    )
    result = asyncio.run(router.agenerate("q"))
    assert result.answer == "hedged"
    assert router.stats.hedges_won == 1
    # The loser's reservation came back: refund our own drain and the
    # bucket admits immediately again (without the refund this would
    # report a ~10s wait).
    bucket.cancel()
    admitted, wait = bucket.try_acquire()
    assert admitted and wait == 0.0


def test_hedge_both_racers_failing_falls_back_to_the_pool():
    primary = EchoLLM("prim", fail_first=9, delay=0.05)
    backup = EchoLLM("back", fail_first=9)
    last = EchoLLM("last", answer="rescued")
    router = RouterLLM([primary, backup, last], hedge=True, hedge_delay=0.01)
    result = asyncio.run(router.agenerate("q"))
    assert result.answer == "rescued"
    assert router.stats.failovers == 1


# ---------------------------------------------------------------------------
# Hermetic two-server failover (RemoteLLM members)


def _remote(model_id: str, base_url: str) -> RemoteLLM:
    return RemoteLLM("openai", model_id, base_url=base_url, retry=NO_RETRY)


def _case_router(case, primary_url, backup_url, **kwargs) -> RouterLLM:
    return RouterLLM(
        [_remote("fake-a", primary_url), _remote("fake-b", backup_url)],
        **kwargs,
    )


def _report_bytes(case, llm) -> bytes:
    rage = Rage.from_corpus(case.corpus, llm, config=RageConfig(k=case.k))
    return encode_json(report_payload(rage.explain(case.query)))


def test_two_server_failover_report_bytes_are_identical():
    case = load_use_case("big_three")
    answers = simulated_answer_fn(case.knowledge)
    with FakeLLMServer(answer_fn=answers) as server_a:
        with FakeLLMServer(answer_fn=answers) as server_b:
            healthy = _report_bytes(
                case,
                _case_router(case, server_a.base_url, server_b.base_url),
            )
            healthy_served_by_a = server_a.request_count
            assert healthy_served_by_a > 0
            assert server_b.request_count == 0

            degraded = _report_bytes(
                case,
                _case_router(case, _dead_base_url(), server_b.base_url),
            )
            # Every request failed over to server B...
            assert server_b.request_count > 0
    # ...and the report the client saw is byte-for-byte the same.
    assert degraded == healthy


def test_two_server_breaker_trips_after_exactly_n_failures():
    with FakeLLMServer() as server_b:
        router = _case_router(
            None, _dead_base_url(), server_b.base_url, breaker_threshold=3
        )
        for _ in range(6):
            router.generate("q")
        primary = router.health["remote:openai/fake-a"]
        assert primary.calls == 3  # then the open breaker skips it
        assert primary.breaker.trips == 1
        assert router.stats.failovers == 6


def test_two_server_half_open_probe_recovers_after_faults():
    clock = FakeClock()
    with FakeLLMServer() as server_a:
        with FakeLLMServer() as server_b:
            server_a.add_faults(Fault(status=500), Fault(status=500))
            router = _case_router(
                None,
                server_a.base_url,
                server_b.base_url,
                breaker_threshold=2,
                breaker_cooldown=5.0,
                clock=clock,
            )
            router.generate("q1")  # A 500s (1/2), B serves
            router.generate("q2")  # A 500s (2/2) -> trip, B serves
            primary = router.health["remote:openai/fake-a"]
            assert primary.breaker.state is BreakerState.OPEN
            router.generate("q3")  # open: A skipped without a request
            assert server_a.request_count == 2
            clock.advance(5.0)
            router.generate("q4")  # half-open probe; A is healthy again
            assert primary.breaker.state is BreakerState.CLOSED
            assert primary.breaker.reclosures == 1
            assert server_a.request_count == 3
            # Recovered: the primary serves at full priority again.
            router.generate("q5")
            assert server_a.request_count == 4
            assert server_b.request_count == 3


def test_two_server_connection_reset_and_slow_drip_fail_over():
    with FakeLLMServer() as server_a:
        with FakeLLMServer() as server_b:
            server_a.add_faults(
                Fault(kind="connection-reset"),
                Fault(kind="slow-drip", delay=0.5),
            )
            router = RouterLLM(
                [
                    RemoteLLM(
                        "openai", "fake-a", base_url=server_a.base_url,
                        timeout=0.1, retry=NO_RETRY,
                    ),
                    _remote("fake-b", server_b.base_url),
                ]
            )
            for _ in range(2):
                assert router.generate("q").answer.startswith("echo:")
            assert router.health["remote:openai/fake-a"].failures == 2
            assert server_b.request_count == 2


# ---------------------------------------------------------------------------
# Factory and CLI wiring


def test_parse_provider_spec_shapes():
    pool = create_llm(
        providers=(
            FALLBACK_SIMULATED,
            "remote:openai:gpt",
            "remote:openai:gpt@http://127.0.0.1:1",
        )
    )
    assert isinstance(pool.members[0], SimulatedLLM)
    assert pool.members[1].base_url == "https://api.openai.com/v1"
    assert pool.members[2].base_url == "http://127.0.0.1:1"
    for spec in (
        "fallback:other",
        "remote:openai:gpt@ftp://nope",
        "local:thing",
    ):
        with pytest.raises(ConfigError):
            create_llm(providers=(spec,))


def test_create_llm_wires_pool_specs_and_defaults():
    case = load_use_case("big_three")
    chain = create_llm(
        case.knowledge,
        providers=(
            "remote:openai:a@http://127.0.0.1:1",
            "remote:anthropic:b",
            FALLBACK_SIMULATED,
        ),
        base_url="http://127.0.0.1:2",
        timeout=4.0,
        retries=1,
        breaker_threshold=7,
        hedge=True,
        hedge_delay=0.25,
    )
    assert isinstance(chain, RouterLLM)
    members = chain.members
    assert members[0].base_url == "http://127.0.0.1:1"  # per-spec pin
    assert members[1].base_url == "http://127.0.0.1:2"  # --base-url default
    assert all(m.client.timeout == 4.0 for m in members[:2])
    assert all(m.client.retry.max_attempts == 2 for m in members[:2])
    assert isinstance(members[2], SimulatedLLM)
    assert members[2].knowledge is case.knowledge
    assert chain.hedge and chain.hedge_delay == 0.25
    assert chain.health[members[0].name].breaker.threshold == 7
    default = create_llm(providers=(FALLBACK_SIMULATED,))
    assert default.health[default.members[0].name].breaker.threshold == 5


def test_create_llm_without_providers_builds_single_remote():
    assert isinstance(create_llm(model="remote:openai:gpt"), RemoteLLM)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"breaker_threshold": 3},
        {"hedge": True},
        {"hedge_delay": 0.5},
        {"model": "remote:openai:gpt", "hedge": True},
    ],
)
def test_create_llm_rejects_pool_flags_without_a_pool(kwargs):
    with pytest.raises(ConfigError, match="provider pool"):
        create_llm(**kwargs)


def test_create_llm_rejects_hedge_delay_without_hedge():
    with pytest.raises(ConfigError, match="hedge_delay without hedge"):
        create_llm(providers=(FALLBACK_SIMULATED,), hedge_delay=0.5)


def test_cli_pool_timeout_bounds_each_request_not_the_failover_walk(capsys):
    """--timeout is the primary's transport deadline, enforced once:
    a 0.5 s primary times out at 0.3 s and the pool fails over, instead
    of a 0.3 s dispatch deadline over the whole walk failing the call."""
    case = load_use_case("big_three")
    with FakeLLMServer(
        answer_fn=simulated_answer_fn(case.knowledge), latency=0.5
    ) as slow:
        code = cli_main(
            [
                "ask",
                "--use-case", "big_three",
                "--provider", f"remote:openai:slow@{slow.base_url}",
                "--provider", FALLBACK_SIMULATED,
                "--retries", "0",
                "--timeout", "0.3",
            ]
        )
        assert slow.request_count == 1
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Answer:   Roger Federer" in captured.out


def test_cli_pool_serves_one_model_behind_two_endpoints(capsys):
    """README's Resilience pool: the same model on two endpoints,
    then the simulated fallback.  With the first endpoint dead, the
    second one answers and each endpoint keeps its own entry."""
    case = load_use_case("big_three")
    dead = _dead_base_url()
    with FakeLLMServer(answer_fn=simulated_answer_fn(case.knowledge)) as backup:
        live = backup.base_url
        code = cli_main(
            [
                "report",
                "--use-case", "big_three",
                "--base-url", dead,
                "--provider", "remote:openai:fake-model",
                "--provider", f"remote:openai:fake-model@{live}",
                "--provider", FALLBACK_SIMULATED,
                "--retries", "0",
                "--stats",
            ]
        )
        assert backup.request_count > 0
    out = capsys.readouterr().out
    assert code == 0
    assert "Answer:   Roger Federer" in out
    assert "Router: 3 providers" in out
    assert f"  remote:openai/fake-model@{dead}: open," in out
    assert f"  remote:openai/fake-model@{live}: closed," in out
    fallback = next(
        line for line in out.splitlines() if line.startswith("  simulated-llm")
    )
    assert ": closed, 0 calls," in fallback


def test_cli_provider_pool_falls_back_to_simulated(capsys):
    dead = _dead_base_url()
    code = cli_main(
        [
            "ask",
            "--use-case", "big_three",
            "--provider", f"remote:openai:fake-a@{dead}",
            "--provider", FALLBACK_SIMULATED,
            "--retries", "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Roger Federer" in out


@pytest.mark.parametrize("backend", [None, "serial", "threaded:4"])
def test_cli_rejects_hedge_off_the_asyncio_backend(capsys, backend):
    """Only ``RouterLLM.agenerate`` races a backup, and only the asyncio
    backend calls it: elsewhere ``--hedge`` would silently do nothing."""
    argv = [
        "ask",
        "--use-case", "big_three",
        "--provider", f"remote:openai:a@{_dead_base_url()}",
        "--provider", FALLBACK_SIMULATED,
        "--hedge",
    ]
    if backend is not None:
        argv += ["--backend", backend]
    assert cli_main(argv) == 2
    assert "--hedge requires --backend asyncio" in capsys.readouterr().err


def test_cli_hedges_on_the_asyncio_backend(capsys):
    case = load_use_case("big_three")
    answer_fn = simulated_answer_fn(case.knowledge)
    with FakeLLMServer(answer_fn=answer_fn, latency=0.3) as slow, FakeLLMServer(
        answer_fn=answer_fn
    ) as fast:
        code = cli_main(
            [
                "ask",
                "--use-case", "big_three",
                "--provider", f"remote:openai:slow@{slow.base_url}",
                "--provider", f"remote:openai:fast@{fast.base_url}",
                "--hedge", "--hedge-delay", "0.02",
                "--backend", "asyncio:4",
            ]
        )
        assert slow.request_count == 1
        assert fast.request_count == 1  # the backup fired
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Answer:   Roger Federer" in captured.out


def test_cli_rejects_model_and_provider_together(capsys):
    code = cli_main(
        [
            "ask",
            "--use-case", "big_three",
            "--model", "remote:openai:gpt",
            "--provider", FALLBACK_SIMULATED,
        ]
    )
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_report_stats_prints_router_attribution(capsys):
    code = cli_main(
        [
            "report",
            "--use-case", "big_three",
            "--provider", FALLBACK_SIMULATED,
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Router: 1 providers" in out
    assert "simulated-llm" in out
