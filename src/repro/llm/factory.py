"""The command line's model factory: model flags in, one model out.

The engine never builds a model; it is handed one.  Library callers
construct :class:`~repro.llm.remote.RemoteLLM` and
:class:`~repro.llm.router.RouterLLM` directly.  :func:`create_llm`
turns the CLI's ten model flags into those same objects, so every
``rage`` subcommand takes one path from flags to model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ConfigError
from .base import LanguageModel
from .knowledge import KnowledgeBase
from .remote import RemoteLLM, parse_model_spec
from .router import DEFAULT_BREAKER_THRESHOLD, RouterLLM
from .simulated import SimulatedLLM
from .transport import DEFAULT_TIMEOUT, RetryPolicy

#: Provider spec naming the deterministic simulated model as the last
#: rung of a failover pool.
FALLBACK_SIMULATED = "fallback:simulated"


def create_llm(
    knowledge: Optional[KnowledgeBase] = None,
    *,
    model: Optional[str] = None,
    providers: Optional[Sequence[str]] = None,
    base_url: Optional[str] = None,
    api_key_env: Optional[str] = None,
    timeout: Optional[float] = None,
    rate: Optional[float] = None,
    retries: Optional[int] = None,
    breaker_threshold: Optional[int] = None,
    hedge: bool = False,
    hedge_delay: Optional[float] = None,
) -> LanguageModel:
    """Build the model that the CLI's model flags name.

    ``model`` is ``None`` or ``"simulated"`` (the deterministic model
    over ``knowledge``) or ``remote:<provider>:<model>``.  ``providers``
    instead names an ordered failover pool: each entry is
    ``remote:<provider>:<model>[@<base_url>]`` (``base_url`` is the
    endpoint of entries without ``@``) or ``fallback:simulated``.

    Every remote endpoint gets ``timeout`` as its per-request transport
    deadline, ``rate`` (requests/second) as its token bucket and
    ``retries`` extra attempts; a pool gets ``breaker_threshold``,
    ``hedge`` and ``hedge_delay``.  ``None`` keeps the constructor's
    default.  A model without a remote endpoint ignores ``timeout``:
    the caller applies it as ``RageConfig.request_timeout``.

    Only the checks that no constructor makes live here: model and pool
    are exclusive, spec shapes, and flags that would be silently inert.
    Value ranges are the constructors' to reject.
    """
    if model == "simulated":
        model = None
    if model is not None and providers is not None:
        raise ConfigError(
            "model and providers are mutually exclusive: the provider "
            "pool *is* the model (put the spec in providers instead)"
        )
    # RemoteLLM checks the scheme too, but a pool whose remote members
    # all pin their own endpoint never hands base_url to one.
    if base_url is not None and not base_url.startswith(("http://", "https://")):
        raise ConfigError(f"base_url must be http(s), got {base_url!r}")
    retry = None if retries is None else RetryPolicy(max_attempts=retries + 1)

    def remote(provider: str, model_id: str, pinned: Optional[str]) -> RemoteLLM:
        return RemoteLLM(
            provider,
            model_id,
            base_url=pinned or base_url,
            api_key_env=api_key_env,
            timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
            rate_limit=rate,
            retry=retry,
        )

    if providers is None:
        members: List[LanguageModel] = [
            SimulatedLLM(knowledge=knowledge)
            if model is None
            else remote(*parse_model_spec(model), None)
        ]
    else:
        members = []
        for spec in providers:
            if spec == FALLBACK_SIMULATED:
                members.append(SimulatedLLM(knowledge=knowledge))
            elif spec.startswith("fallback:"):
                raise ConfigError(
                    f"unknown fallback spec {spec!r}: only "
                    f"{FALLBACK_SIMULATED!r} is supported"
                )
            else:
                head, _, pinned = spec.partition("@")
                members.append(remote(*parse_model_spec(head), pinned or None))
    if not any(isinstance(member, RemoteLLM) for member in members):
        # Silently ignoring these would let a mistyped run "succeed"
        # on the simulated model while the user believes their
        # endpoint was exercised.
        _reject_inert(
            "remote models",
            "name a remote:<provider>:<model> model or pool member",
            base_url=base_url,
            api_key_env=api_key_env,
            rate=rate,
        )
    if providers is None:
        _reject_inert(
            "a provider pool",
            "name providers",
            breaker_threshold=breaker_threshold,
            hedge=hedge or None,
            hedge_delay=hedge_delay,
        )
        return members[0]
    if hedge_delay is not None and not hedge:
        raise ConfigError("hedge_delay without hedge has no effect")
    return RouterLLM(
        members,
        breaker_threshold=(
            DEFAULT_BREAKER_THRESHOLD
            if breaker_threshold is None
            else breaker_threshold
        ),
        hedge=hedge,
        hedge_delay=hedge_delay,
    )


def _reject_inert(target: str, hint: str, **flags: object) -> None:
    inert = [name for name, value in flags.items() if value is not None]
    if inert:
        raise ConfigError(
            f"{', '.join(inert)} only affect {target}; {hint} (or drop them)"
        )
