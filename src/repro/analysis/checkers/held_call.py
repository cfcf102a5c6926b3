"""``held-call``: no known-blocking call while a lock is held.

Holding a lock across a blocking operation turns a mutual-exclusion
region into a serialization point: every other thread needing that
lock stalls for the full duration of a sleep, a synchronous HTTP
round-trip, or a model generation.  The project's hot paths were all
*designed* around this — ``TokenBucket`` computes its wait under the
lock but sleeps outside it, ``CoalescingBackend._flush`` snapshots the
window under ``_window_lock`` and runs the inner backend after
releasing — and this rule keeps that shape from regressing.

Blocking is what the symbol layer classified: ``time.sleep``,
synchronous network modules (``urllib.request``/``http.client``/
``socket``), ``.generate``/``.generate_batch``/``.run`` dispatches,
and ``.wait()`` on anything *other* than the held lock
(``Condition.wait`` on the lock it wraps releases it while parked —
that one shape is the sanctioned exception and is not flagged).

Scoped to library code: test fakes (``LatencyLLM`` and friends) sleep
under their locks deliberately to simulate slow providers.
"""

from __future__ import annotations

from typing import Iterable

from ..graph import LockModel
from ..model import Finding, ProjectChecker, register
from ..source import library_path


def _waits_on_held_condition(model, func, site, held) -> bool:
    """``cond.wait()`` where ``cond`` wraps a held lock is sanctioned.

    ``Condition(self._lock)`` aliases the lock it wraps, so waiting on
    the condition while holding that lock *releases* it while parked —
    the one legal blocking-while-holding shape.  The symbol layer's
    syntactic carve-out only sees ``wait`` on the held name itself;
    this is the alias-aware, whole-program version.
    """
    if site.target.rsplit(".", 1)[-1] != "wait":
        return False
    if site.form == "self_attr":
        ref = f"self.{site.attr}"
    elif site.form == "dotted" and site.target.count(".") == 1:
        ref = site.target.split(".", 1)[0]
    else:
        return False
    lock = model.resolve_ref(func, ref)
    return lock is not None and lock in held


@register
class HeldCallChecker(ProjectChecker):
    rule = "held-call"
    description = (
        "blocking call (sleep / sync I/O / generate / backend run) "
        "while holding a lock serializes every peer thread"
    )

    def check_project(self, index) -> Iterable[Finding]:
        model = LockModel(index)
        for qualname in sorted(index.functions):
            func = index.functions[qualname]
            if library_path(func.path) is None:
                continue
            for site in func.calls:
                if site.blocking is None or not site.held:
                    continue
                held = sorted(
                    lock
                    for lock in (
                        model.resolve_ref(func, ref) for ref in site.held
                    )
                    if lock is not None
                )
                if not held:
                    continue
                if _waits_on_held_condition(model, func, site, held):
                    continue
                yield Finding(
                    path=func.path,
                    line=site.line,
                    rule=self.rule,
                    message=(
                        f"{site.blocking} while holding "
                        f"{', '.join(held)} — every thread contending on "
                        "the lock stalls for the call's full duration; "
                        "move the blocking work outside the `with` block"
                    ),
                )
