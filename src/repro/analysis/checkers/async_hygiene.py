"""``async-hygiene``: no blocking primitives inside ``async def``.

An event loop multiplexes every in-flight request through one thread;
a single blocking call inside a coroutine stalls *all* of them.  The
asyncio backend (PR 3) and the async transport (PR 4) were designed
around this — blocking work is either awaited natively or shipped to a
worker thread via ``asyncio.to_thread``.

Flagged inside ``async def`` bodies in library code:

* ``time.sleep(...)`` — use ``await asyncio.sleep(...)``;
* synchronous HTTP/sockets (``urllib.request.*``, ``http.client.*``,
  ``socket.*``) — use the transport's ``arequest``;
* blocking ``.acquire()`` on a lock without ``await`` — hold
  ``threading`` locks only via short ``with`` blocks, or use asyncio
  primitives;
* bare ``.generate(...)`` / ``.generate_batch(...)`` model calls —
  await ``agenerate`` or wrap in ``asyncio.to_thread``
  (passing the *method reference* to ``to_thread`` is fine and not
  flagged).

Nested synchronous ``def`` bodies are skipped: they may legitimately
run on a worker thread.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional

from ..model import Checker, Finding, register
from ..source import SourceFile, resolve_call_target

#: Exact call targets that block the loop.
_BLOCKING_CALLS = frozenset({"time.sleep"})

#: Dotted prefixes whose calls mean synchronous network I/O.
_BLOCKING_PREFIXES = ("urllib.request.", "http.client.", "socket.")

#: Model entry points with async twins.
_SYNC_MODEL_CALLS = frozenset({"generate", "generate_batch"})


@register
class AsyncHygieneChecker(Checker):
    rule = "async-hygiene"
    description = (
        "blocking call (time.sleep / sync HTTP / Lock.acquire / bare "
        "generate) inside `async def` stalls the whole event loop"
    )

    def applies(self, source: SourceFile) -> bool:
        return source.in_library

    def check(self, source: SourceFile) -> Iterable[Finding]:
        imports = source.import_map
        for node in ast.walk(source.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._walk_async_body(source, node, imports)

    def _walk_async_body(
        self,
        source: SourceFile,
        node: ast.AST,
        imports: Dict[str, str],
        awaited: bool = False,
    ) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                continue  # sync closure: may run on a worker thread
            if isinstance(child, ast.Call) and not awaited:
                message = self._blocking_message(child, imports)
                if message is not None:
                    yield self.finding(source, child.lineno, message)
            yield from self._walk_async_body(
                source, child, imports, awaited=isinstance(child, ast.Await)
            )

    def _blocking_message(
        self, call: ast.Call, imports: Dict[str, str]
    ) -> Optional[str]:
        target = resolve_call_target(call, imports)
        if target is not None:
            if target in _BLOCKING_CALLS:
                return (
                    f"`{target}(...)` blocks the event loop — use "
                    "`await asyncio.sleep(...)`"
                )
            for prefix in _BLOCKING_PREFIXES:
                if target.startswith(prefix):
                    return (
                        f"synchronous network call `{target}(...)` inside "
                        "`async def` — use the async transport "
                        "(`arequest`) or `asyncio.to_thread`"
                    )
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == "acquire" and not _nonblocking_acquire(call):
                return (
                    "blocking `.acquire()` inside `async def` parks the "
                    "loop — await an asyncio primitive or keep the lock "
                    "to a short `with` block"
                )
            if func.attr in _SYNC_MODEL_CALLS:
                return (
                    f"bare `.{func.attr}(...)` inside `async def` — await "
                    "`agenerate`, or ship the sync call through "
                    "`asyncio.to_thread`"
                )
        return None


def _nonblocking_acquire(call: ast.Call) -> bool:
    """``lock.acquire(blocking=False)`` (or ``acquire(False)``) is fine."""
    if call.args and isinstance(call.args[0], ast.Constant):
        return call.args[0].value is False
    for keyword in call.keywords:
        if keyword.arg == "blocking" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is False
    return False
