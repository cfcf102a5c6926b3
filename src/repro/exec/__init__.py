"""Execution layer: pluggable backends, the one place models are called.

See :mod:`repro.exec.backend` for the strategy catalogue; the
evaluator (:class:`repro.core.evaluate.ContextEvaluator`) submits every
generation through one of these, after the prompt cache, so
explanation algorithms stay oblivious to how calls are executed.
"""

from .backend import (
    DEFAULT_THREAD_WORKERS,
    AsyncioBackend,
    BackendStats,
    ExecutionBackend,
    SerialBackend,
    ThreadedBackend,
    make_backend,
)
from .coalesce import CoalescingBackend, WindowStats

__all__ = [
    "DEFAULT_THREAD_WORKERS",
    "AsyncioBackend",
    "BackendStats",
    "CoalescingBackend",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "WindowStats",
    "make_backend",
]
