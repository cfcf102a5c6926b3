"""``leaked-resource``: claims must reach a release on exception paths.

The interprocedural successor to the old syntactic ``acquire-release``
rule.  Two project-bitten claim kinds:

* ``TokenBucket.reserve()`` claims a rate-limiter slot.  If anything
  after the claim raises, the slot must be refunded with ``cancel()``
  — the PR 5 reservation-leak bug let N abandoned waiters starve the
  N+1th arrival forever.
* ``open()`` / ``fdopen()`` outside a ``with`` leaks the descriptor on
  any exception before ``close()``.

What "reaches a release" means here is whole-program: the release may
live in a *callee*.  A function is safe for a claim kind when either

* it calls ``cancel()``/``close()`` itself from an ``except`` handler
  or ``finally`` block, or
* a cleanup-path call site dispatches (through the resolved call
  graph, transitively) to a function that performs the release —
  ``try: ... finally: self._finish()`` where ``_finish`` cancels is no
  longer a false positive.

A claim-and-return tail (nothing after the claim can raise) is exempt,
as before.  A claim whose release is only on the *straight-line* path
— ``f = open(...); work(); f.close()`` — is still a true positive: an
exception in ``work()`` never reaches the close.

Scoped to library code: tests deliberately poke ``reserve()`` bare to
measure refill behavior.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..graph import CallGraph
from ..model import Finding, ProjectChecker, register
from ..source import library_path

#: Claim kind -> the release call that squares it.
_RELEASE_FOR = {"reserve": "cancel", "open": "close", "fdopen": "close"}

_RELEASE_LEAVES = frozenset(_RELEASE_FOR.values())


def _releases_anywhere(index, graph: CallGraph) -> Dict[str, Set[str]]:
    """Release leaves each function may perform, transitively."""
    anywhere: Dict[str, Set[str]] = {q: set() for q in index.functions}
    changed = True
    while changed:
        changed = False
        for qualname in sorted(index.functions):
            func = index.functions[qualname]
            table = anywhere[qualname]
            before = len(table)
            for site in func.calls:
                leaf = site.target.rsplit(".", 1)[-1]
                if leaf in _RELEASE_LEAVES:
                    table.add(leaf)
            for resolved in graph.calls.get(qualname, ()):
                for target in resolved.targets:
                    table |= anywhere.get(target, set())
            if len(table) != before:
                changed = True
    return anywhere


@register
class LeakedResourceChecker(ProjectChecker):
    rule = "leaked-resource"
    description = (
        "reserve()/open() with no cancel()/close() reachable on an "
        "exception path — releases in callees count (interprocedural)"
    )

    def check_project(self, index) -> Iterable[Finding]:
        graph = CallGraph(index)
        anywhere = _releases_anywhere(index, graph)
        for qualname in sorted(index.functions):
            func = index.functions[qualname]
            if not func.claims or library_path(func.path) is None:
                continue
            protected: Set[str] = set(func.cleanup_releases)
            for resolved in graph.calls.get(qualname, ()):
                if not resolved.site.in_cleanup:
                    continue
                for target in resolved.targets:
                    protected |= anywhere.get(target, set())
            for claim in func.claims:
                if claim.kind == "reserve" and claim.tail_trivial:
                    # Claim-and-return: nothing after the reserve can
                    # raise.  Opens get no such pass — handing an
                    # unmanaged handle to the caller is exactly the
                    # shape that leaks, and deserves at least an
                    # explicit suppression.
                    continue
                release = _RELEASE_FOR.get(claim.kind)
                if release is None or release in protected:
                    continue
                if claim.kind == "reserve":
                    message = (
                        f"`{func.name}` reserves a slot but no `cancel()` "
                        "is reachable on an exception path (here or in a "
                        "cleanup-path callee) — an interrupted caller "
                        "leaks the reservation and starves later arrivals"
                    )
                else:
                    message = (
                        f"`{claim.kind}(...)` outside a `with` and with no "
                        "`close()` reachable on a cleanup path leaks the "
                        "file descriptor on any exception before close()"
                    )
                yield Finding(
                    path=func.path,
                    line=claim.line,
                    rule=self.rule,
                    message=message,
                )
