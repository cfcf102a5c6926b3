"""A hermetic, in-process fake chat-completions server.

Speaks both provider dialects :class:`repro.llm.remote.RemoteLLM`
emits — OpenAI (``POST .../chat/completions``) and Anthropic
(``POST .../v1/messages``) — on a loopback port, deterministically:

* **Scriptable answers** — ``answer_fn(prompt) -> str`` decides every
  completion (wrap a :class:`~repro.llm.simulated.SimulatedLLM` via
  :func:`simulated_answer_fn` to serve the demo worlds over HTTP); the
  default echoes a digest of the prompt.
* **Fault injection** — queue :class:`Fault` objects and the next
  requests fail in controlled ways: arbitrary statuses (429 with
  ``Retry-After``, 500, ...), a stall longer than the client timeout,
  malformed JSON, a truncated body (Content-Length lies, connection
  closes early), a mid-body TCP reset, or a slow-drip body that stalls
  past the read timeout.  Each fault is consumed by exactly one
  request.
* **Request journal** — every request that reaches the handler is
  recorded (path, prompt, headers, monotonic timestamp, fault applied),
  so tests can assert *zero HTTP traffic* for warm-cache runs and
  compute observed request rates for limiter compliance.
* **Concurrency tracking** — ``max_inflight`` records how many
  requests the (threading) server ever held at once, each from its
  arrival until its response starts, which is how the E17 benchmark
  proves ``asyncio:N`` actually saturates.

The server binds ``127.0.0.1`` on an ephemeral port; nothing here ever
touches a non-loopback address, so the suites run with the
:mod:`~fakes.network_guard` active.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Deque, Dict, List, Optional


@dataclass
class Fault:
    """One injected failure, consumed by the next matching request.

    ``kind`` is one of:

    ``"status"``
        Answer with ``status`` (and ``Retry-After: retry_after`` when
        set) and a JSON error body.
    ``"timeout"``
        Stall ``delay`` seconds before answering normally — longer
        than the client's timeout, so the client gives up first.
    ``"malformed"``
        200 with a body that is not JSON.
    ``"truncated"``
        200 whose ``Content-Length`` promises more bytes than are sent
        before the connection closes.
    ``"connection-reset"``
        200 headers, half the body, then a hard TCP reset (``SO_LINGER``
        zero) — the client sees ``ConnectionResetError`` mid-read, not
        a clean close.
    ``"slow-drip"``
        200 with the full ``Content-Length``, half the body, then a
        ``delay``-second stall between chunks — longer than the
        client's read timeout, so the client gives up mid-body.
    """

    kind: str = "status"
    status: int = 500
    retry_after: Optional[float] = None
    delay: float = 0.5


@dataclass
class JournalEntry:
    """One observed request."""

    path: str
    method: str
    prompt: Optional[str]
    payload: Optional[Dict[str, object]]
    headers: Dict[str, str]
    time: float
    fault: Optional[str] = None


def simulated_answer_fn(knowledge) -> Callable[[str], str]:
    """An ``answer_fn`` that answers like the demo SimulatedLLM.

    Lets the fake server serve a real use-case world over HTTP, so a
    remote-adapter report is comparable answer-for-answer with the
    in-process engine.
    """
    from repro.llm.simulated import SimulatedLLM

    model = SimulatedLLM(knowledge=knowledge)
    lock = threading.Lock()

    def answer(prompt: str) -> str:
        with lock:  # SimulatedLLM makes no thread-safety promises
            return model.generate(prompt).answer

    return answer


def _default_answer_fn(prompt: str) -> str:
    return "echo:" + hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]


class _Handler(BaseHTTPRequestHandler):
    # Quiet: unit tests must not spray access logs into pytest output.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    #: Whether the request being handled still counts as in flight.  It
    #: stops counting when its response starts: counted until the
    #: handler returns, a serial client that already has its answer and
    #: has sent its next request would read as two in flight.
    _counted = False

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        srv: FakeLLMServer = self.server.fake  # type: ignore[attr-defined]
        srv._enter()
        self._counted = True
        try:
            self._handle(srv)
        except BrokenPipeError:
            pass  # client gave up (timeout tests do this on purpose)
        finally:
            self._uncount()

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._uncount()
        super().send_response(code, message)

    def _uncount(self) -> None:
        if self._counted:
            self._counted = False
            self.server.fake._exit()  # type: ignore[attr-defined]

    def _handle(self, srv: "FakeLLMServer") -> None:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = None
        prompt = self._extract_prompt(payload)
        fault = srv._next_fault()
        srv._journal_append(
            JournalEntry(
                path=self.path,
                method="POST",
                prompt=prompt,
                payload=payload,
                headers={k.lower(): v for k, v in self.headers.items()},
                time=time.monotonic(),
                fault=fault.kind if fault else None,
            )
        )
        if srv.latency > 0:
            time.sleep(srv.latency)

        if fault is not None and fault.kind == "status":
            body = json.dumps({"error": {"message": f"injected {fault.status}"}})
            self.send_response(fault.status)
            if fault.retry_after is not None:
                self.send_header("Retry-After", str(fault.retry_after))
            self._finish_json(body)
            return
        if fault is not None and fault.kind == "timeout":
            time.sleep(fault.delay)
            # fall through: answer normally, to whoever is still there
        if fault is not None and fault.kind == "malformed":
            self.send_response(200)
            self._finish_json('{"choices": [ THIS IS NOT JSON')
            return
        if fault is not None and fault.kind == "truncated":
            body = self._completion_body(srv, prompt)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body) + 64))
            self.end_headers()
            self.wfile.write(body[: max(1, len(body) // 2)])
            self.wfile.flush()
            self.close_connection = True
            return
        if fault is not None and fault.kind == "connection-reset":
            body = self._completion_body(srv, prompt)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body[: max(1, len(body) // 2)])
            self.wfile.flush()
            # SO_LINGER with a zero timeout turns the upcoming close
            # into an RST, not a FIN: the client's in-progress read
            # fails with ECONNRESET instead of a short (clean) read.
            # The close itself stays with socketserver's close_request
            # teardown so finish() never writes to a dead socket.
            self.connection.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            self.close_connection = True
            return
        if fault is not None and fault.kind == "slow-drip":
            body = self._completion_body(srv, prompt)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body[: max(1, len(body) // 2)])
            self.wfile.flush()
            time.sleep(fault.delay)
            try:
                self.wfile.write(body[max(1, len(body) // 2):])
            except OSError:
                pass  # the client timed out and hung up, as intended
            return

        if self.path.endswith("/chat/completions") or self.path.endswith(
            "/v1/messages"
        ):
            if prompt is None:
                self.send_response(400)
                self._finish_json(json.dumps({"error": "no prompt in payload"}))
                return
            self.send_response(200)
            self._finish_json(self._completion_body(srv, prompt).decode("utf-8"))
            return
        self.send_response(404)
        self._finish_json(json.dumps({"error": f"unknown path {self.path}"}))

    def _finish_json(self, body: str) -> None:
        data = body.encode("utf-8")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    @staticmethod
    def _extract_prompt(payload: Optional[Dict[str, object]]) -> Optional[str]:
        if not isinstance(payload, dict):
            return None
        messages = payload.get("messages")
        if not isinstance(messages, list) or not messages:
            return None
        content = messages[-1].get("content") if isinstance(messages[-1], dict) else None
        return content if isinstance(content, str) else None

    def _completion_body(self, srv: "FakeLLMServer", prompt: Optional[str]) -> bytes:
        answer = srv.answer_fn(prompt or "")
        prompt_tokens = len((prompt or "").split())
        completion_tokens = len(answer.split())
        if self.path.endswith("/v1/messages"):
            payload: Dict[str, object] = {
                "id": "msg_fake",
                "type": "message",
                "role": "assistant",
                "content": [{"type": "text", "text": answer}],
                "usage": {
                    "input_tokens": prompt_tokens,
                    "output_tokens": completion_tokens,
                },
            }
        else:
            payload = {
                "id": "chatcmpl_fake",
                "object": "chat.completion",
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": answer},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                    "total_tokens": prompt_tokens + completion_tokens,
                },
            }
        return json.dumps(payload).encode("utf-8")


class _Listener(ThreadingHTTPServer):
    """One thread per request; a 16-wide round of connections must not
    overflow the listen backlog (the stdlib's 5), or the kernel drops
    SYNs and the client retransmits a second later.  The backlog is a
    class attribute because the base class listens inside its
    constructor."""

    daemon_threads = True
    request_queue_size = socket.SOMAXCONN


class FakeLLMServer:
    """The scriptable loopback server (see module docstring).

    Use as a context manager::

        with FakeLLMServer(answer_fn=simulated_answer_fn(kb)) as server:
            llm = RemoteLLM("openai", "fake-model", base_url=server.base_url)
            ...

    ``journal`` (and the convenience ``request_count`` /
    ``prompts_seen``) observe traffic; ``add_fault`` queues failures.
    """

    def __init__(
        self,
        answer_fn: Optional[Callable[[str], str]] = None,
        latency: float = 0.0,
    ) -> None:
        self.answer_fn = answer_fn or _default_answer_fn
        self.latency = latency
        self.journal: List[JournalEntry] = []
        self._faults: Deque[Fault] = deque()
        self._lock = threading.Lock()
        self.inflight = 0
        self.max_inflight = 0
        self._httpd: Optional[_Listener] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FakeLLMServer":
        assert self._httpd is None, "server already started"
        httpd = _Listener(("127.0.0.1", 0), _Handler)
        httpd.fake = self  # the handler reaches back through self.server.fake
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.01},
            name="fake-llm-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "FakeLLMServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def base_url(self) -> str:
        assert self._httpd is not None, "server not started"
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    # -- scripting ---------------------------------------------------------

    def add_fault(self, fault: Fault) -> None:
        """Queue one fault; consumed by the next request, FIFO."""
        with self._lock:
            self._faults.append(fault)

    def add_faults(self, *faults: Fault) -> None:
        for fault in faults:
            self.add_fault(fault)

    # -- observation -------------------------------------------------------

    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.journal)

    def prompts_seen(self) -> List[str]:
        with self._lock:
            return [e.prompt for e in self.journal if e.prompt is not None]

    def request_times(self) -> List[float]:
        """Monotonic arrival timestamps, sorted."""
        with self._lock:
            return sorted(entry.time for entry in self.journal)

    def max_requests_per_window(self, window: float = 1.0) -> int:
        """Highest request count observed in any sliding ``window``."""
        times = self.request_times()
        best = 0
        lo = 0
        for hi, stamp in enumerate(times):
            while stamp - times[lo] > window:
                lo += 1
            best = max(best, hi - lo + 1)
        return best

    def clear_journal(self) -> None:
        with self._lock:
            self.journal.clear()

    # -- handler callbacks -------------------------------------------------

    def _next_fault(self) -> Optional[Fault]:
        with self._lock:
            return self._faults.popleft() if self._faults else None

    def _journal_append(self, entry: JournalEntry) -> None:
        with self._lock:
            self.journal.append(entry)

    def _enter(self) -> None:
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def _exit(self) -> None:
        with self._lock:
            self.inflight -= 1
