"""Cross-request micro-batch windows over an execution backend.

Single-flight (:mod:`repro.llm.coalesce`) deduplicates *identical*
prompts; this layer merges *different* ones.  Concurrent tenants of a
serving process each submit their evaluation rounds through
:meth:`ExecutionBackend.run` as separate small batches, and each batch
pays its own model call.  A :class:`CoalescingBackend` holds the first
submission for a model open for up to ``window_ms`` milliseconds,
gathers every submission that arrives in that window — across requests,
tenants, and threads — and flushes them as **one** merged batch
through the wrapped backend.  Duplicate prompts across submissions are
sent once and fanned back out to every submitter in its own order.
Per-prompt runs (``ask()``'s full generation) skip the window and go
straight to the wrapped backend.

The window is opt-in (``RageConfig.batch_window_ms`` /
``--batch-window-ms``, default off) because it is a throughput/latency
trade: every participant waits out the window plus the merged flush,
which only pays off when the inner model rewards bigger batches (a
padded transformer batch, one HTTP round-trip) or requests genuinely
overlap.

The flush goes through the wrapped backend's normal ``run``, so its
per-prompt deadline still applies: a hung prompt fails after its
siblings complete, exactly as it would have in a solo batch.  The
window does widen the failure domain: an error raised by the merged
flush propagates to every submission in the window (each sees the same
exception), mirroring what the batch contract does for prompts of one
request.  The flush runs on a timer thread, never on a submitter, so a
submitter that dies cannot strand the window.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError
from ..llm.base import GenerationResult, LanguageModel
from ..llm.coalesce import Latch
from .backend import ExecutionBackend


@dataclass
class WindowStats:
    """Counters for one :class:`CoalescingBackend` window layer.

    ``submissions`` counts batches entering a window; ``windows`` the
    flushes dispatched; ``merged_windows`` the flushes that combined
    more than one submission (cross-request batching actually
    happened); ``flushed_prompts`` the deduplicated prompts dispatched
    across all flushes (so ``mean_flush_size`` is the average merged
    batch the inner backend saw).
    """

    submissions: int = 0
    windows: int = 0
    merged_windows: int = 0
    flushed_prompts: int = 0
    max_flush: int = 0

    @property
    def mean_flush_size(self) -> float:
        """Average deduplicated prompts per flush (0.0 when unused)."""
        if self.windows == 0:
            return 0.0
        return self.flushed_prompts / self.windows


class _Submission:
    """One caller's batch waiting for its window to flush."""

    __slots__ = ("prompts", "latch")

    def __init__(self, prompts: Sequence[str]) -> None:
        self.prompts = list(prompts)
        self.latch = Latch()

    def settle_aligned(
        self, results: Sequence[GenerationResult], index: Dict[str, int]
    ) -> None:
        self.latch.resolve([results[index[p]] for p in self.prompts])


class _Window:
    """The open submission set for one model's next flush."""

    __slots__ = ("model", "submissions", "timer")

    def __init__(self, model: LanguageModel) -> None:
        self.model = model
        self.submissions: List[_Submission] = []
        self.timer: Optional[threading.Timer] = None


class CoalescingBackend(ExecutionBackend):
    """Wrap any backend with a cross-request micro-batch window.

    Construction takes the wrapped backend and the window width in
    milliseconds (must be > 0 — ``None``/off means simply not wrapping).
    ``capacity`` and ``timeout`` are the inner backend's; this layer
    adds scheduling, not concurrency.  ``stats`` (inherited) counts the
    submissions this layer accepted, ``window_stats`` the flush-side
    picture; the inner backend's own ``stats`` then show the merged
    batches it actually received.
    """

    def __init__(self, inner: ExecutionBackend, window_ms: float) -> None:
        if not window_ms or window_ms <= 0:
            raise ConfigError(
                f"window_ms must be > 0 milliseconds, got {window_ms!r}"
            )
        super().__init__()
        self.inner = inner
        self.window_ms = float(window_ms)
        self.name = f"coalesce:{window_ms:g}ms+{inner.name}"
        self.capacity = inner.capacity
        self.timeout = inner.timeout
        self.window_stats = WindowStats()
        # One window per wrapped model may be open at a time; the
        # registry and all submission bookkeeping happen under this
        # lock.  Flushes (real model calls) never hold it.
        self._window_lock = threading.Lock()
        self._pending: Dict[int, _Window] = {}

    def run(
        self, model: LanguageModel, prompts: Sequence[str], per_prompt: bool = False
    ) -> List[GenerationResult]:
        if per_prompt:
            return self.inner.run(model, prompts, per_prompt=True)
        if not prompts:
            return []
        with self._track(len(prompts)):
            submission = self._enlist(model, prompts)
            return submission.latch.wait()

    def _enlist(self, model: LanguageModel, prompts: Sequence[str]) -> _Submission:
        """Join (or open) the model's current window; maybe arm its timer.

        The timer — not the first submitter — owns the flush, so a
        submitter that dies can never strand the other participants of
        its window.
        """
        submission = _Submission(prompts)
        started: Optional[threading.Timer] = None
        with self._window_lock:
            window = self._pending.get(id(model))
            if window is None:
                window = _Window(model)
                self._pending[id(model)] = window
                timer = threading.Timer(
                    self.window_ms / 1000.0, self._flush, args=(window,)
                )
                timer.daemon = True
                window.timer = timer
                started = timer
            window.submissions.append(submission)
            self.window_stats.submissions += 1
        if started is not None:
            started.start()
        return submission

    def _flush(self, window: _Window) -> None:
        """Close ``window`` and dispatch its merged batch (timer thread)."""
        with self._window_lock:
            if self._pending.get(id(window.model)) is window:
                del self._pending[id(window.model)]
            submissions = list(window.submissions)
        unique: List[str] = []
        index: Dict[str, int] = {}
        for submission in submissions:
            for prompt in submission.prompts:
                if prompt not in index:
                    index[prompt] = len(unique)
                    unique.append(prompt)
        try:
            results = self.inner.run(window.model, unique)
        except BaseException as error:
            for submission in submissions:
                submission.latch.reject(error)
            return
        with self._window_lock:
            self.window_stats.windows += 1
            self.window_stats.flushed_prompts += len(unique)
            self.window_stats.max_flush = max(
                self.window_stats.max_flush, len(unique)
            )
            if len(submissions) > 1:
                self.window_stats.merged_windows += 1
        for submission in submissions:
            submission.settle_aligned(results, index)
