"""Project-native static analysis for the repro codebase.

A stdlib-``ast`` lint engine encoding the invariants this project
learned the hard way (see each checker's docstring for the bug that
motivated it).  Per-file rules see one module at a time; *project*
rules reason over the whole-program index built by
:mod:`repro.analysis.graph` (symbol tables, a conservative call graph,
and interprocedural lock-set summaries):

========================  ==================================================
rule                      invariant
========================  ==================================================
``lock-discipline``       counter mutation in lock-owning classes happens
                          under the lock
``lock-order``            the global acquired-while-holding graph is
                          acyclic — every cycle is a latent AB/BA deadlock
``held-call``             no known-blocking call (generate, transport
                          I/O, ``time.sleep``) runs while a lock is held
``leaked-resource``       ``reserve()``/``open()`` reach ``cancel()``/
                          ``close()`` on exception paths — releases in
                          cleanup-path *callees* count
``async-hygiene``         no blocking primitives inside ``async def``
``error-taxonomy``        library failures derive from ``repro.errors``
``test-network-isolation``  suites import no socket machinery outside
                          ``tests/fakes/``
``determinism``           no ambient randomness/clocks in ``core/``,
                          ``combinatorics/`` and ``retrieval/``
``swallowed-error``       no silent ``except: pass`` in library code
========================  ==================================================

Run it with ``rage lint [paths]`` or ``python -m repro.analysis``;
suppress a deliberate exception inline with
``# repro: disable=RULE -- why``.
The dynamic twin of ``lock-order`` lives in
:mod:`repro.analysis.watchdog` (``RAGE_LOCK_WATCHDOG=1``).
"""

from __future__ import annotations

from .engine import AnalysisResult, analyze_paths, analyze_source
from .model import Checker, Finding, all_checkers, register

__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "all_checkers",
    "analyze_paths",
    "analyze_source",
    "register",
]
