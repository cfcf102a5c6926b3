"""Whole-program analysis layer: symbols, call graph, lock model.

The per-file checkers in :mod:`repro.analysis.checkers` are
syntax-local by design; this package is what lets rules reason *across*
function and module boundaries:

* :mod:`~repro.analysis.graph.symbols` — a project-wide symbol table
  (modules, classes with bases and attribute types, functions with
  per-call-site facts) built from plain-data per-module summaries;
* :mod:`~repro.analysis.graph.callgraph` — conservative call-graph
  construction over those summaries: direct calls, ``self.``/``cls.``
  method dispatch through the known class hierarchy, module-qualified
  calls (unresolvable calls contribute nothing — the graph only
  asserts edges it is sure of);
* :mod:`~repro.analysis.graph.locks` — a registry giving every
  ``threading.Lock``/``RLock``/``Condition`` attribute in the tree a
  stable id, per-function lockset summaries (held-at-call-site vs
  acquired-inside) propagated interprocedurally to a fixpoint, and the
  acquired-while-holding order graph with cycle detection.

The runtime lock watchdog (:mod:`repro.analysis.watchdog`) feeds its
dynamically-observed acquisition edges through the same cycle
detector, so the static checker and the instrumented test run pin one
shared invariant.
"""

from __future__ import annotations

from .callgraph import CallGraph
from .locks import (
    LockModel,
    LockOrderGraph,
    Witness,
    describe_cycle,
    find_cycle_closing,
    find_cycles,
)
from .symbols import ModuleSummary, ProjectIndex, summarize

__all__ = [
    "CallGraph",
    "LockModel",
    "LockOrderGraph",
    "ModuleSummary",
    "ProjectIndex",
    "Witness",
    "describe_cycle",
    "find_cycle_closing",
    "find_cycles",
    "summarize",
]
