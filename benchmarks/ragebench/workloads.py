"""The four seeded RAGE workloads.

Each workload has an ``*_inputs(seed, size)`` generator — pure, so the
same seed gives equal inputs — and a runner that sets up (several
times, timed), drives a closed loop for the requested seconds, and
checks the outputs with untimed reference work.  The program under
test only ever sees the generated inputs.  ``explain_cpu`` and
``retrieval_churn`` run their inputs as a round repeated at least
:data:`MIN_ROUNDS` times and keep each request's fastest repeat (see
:func:`fastest_repeats`).

``size`` is ``"full"`` for measurement and ``"smoke"`` for the
self-tests: the same code on tiny worlds.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from layers import counter_delta, engine_counters, merge_counters, report_counters
from recorder import Instrumentation

from fakes import CountingLLM, LatencyLLM, http_json
from repro import Rage, RageConfig, SimulatedLLM
from repro.app.server import RageServer, encode_json, report_payload
from repro.app.session import RageSession
from repro.datasets import load_use_case
from repro.datasets.synthetic import (
    make_superlative_world,
    make_timeline_world,
    random_corpus,
)
from repro.llm.store import PromptStore
from repro.retrieval.document import Document
from repro.retrieval.sqlindex import SqliteSearcher, make_retrieval_scorer, open_index

#: The E15 explain shape: every combination, sampled orderings, and a
#: bounded counterfactual budget.
EXPLAIN_KWARGS = dict(permutation_sample=40, stability_sample=40)
MAX_EVALUATIONS = 48

#: A median needs ten samples beyond it, so every run measures at least
#: this many requests of its headline kind, however long that takes.
MIN_REQUESTS = 20

#: The in-process workloads repeat one seeded round of requests at
#: least this many times, and keep each request's fastest repeat.
MIN_ROUNDS = 2

#: Seconds between the repeats of a set-up that takes well under one.
SETUP_GAP_S = {"full": 1.0, "smoke": 0.0}

#: Report fields that count cost rather than describe the explanation;
#: the exact (unpruned, uncached) path legitimately differs in them.
ACCOUNTING_FIELDS = ("llm_calls", "plan", "implied", "pruned")

WORLD_MAKERS = {"timeline": make_timeline_world, "superlative": make_superlative_world}


@dataclass
class Run:
    """One measured pass of a workload."""

    seed: int
    seconds: float
    size: str
    workdir: Path
    instrumentation: Optional[Instrumentation] = None

    def request(self):
        """Context of one request: its spans share an id when traced."""
        if self.instrumentation is None:
            return nullcontext()
        return self.instrumentation.recorder.request()

    def model(self, llm: Any) -> Any:
        """The model behind the cache, wrapped for ``llm.model`` spans
        when traced."""
        if self.instrumentation is None:
            return llm
        return self.instrumentation.model(llm)

    @contextmanager
    def measured(self) -> Iterator["Meter"]:
        """The measured phase; the layer wrappers are installed for it
        when this pass is traced."""
        if self.instrumentation is not None:
            self.instrumentation.install()
        try:
            yield Meter(self)
        finally:
            if self.instrumentation is not None:
                self.instrumentation.uninstall()


@dataclass
class Result:
    """What one pass measured and checked."""

    setup_s: List[float]
    latencies: Dict[str, List[float]]
    headline: Sequence[str]
    active_s: float
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    store_bytes_per_entry: float = 0.0
    client_seconds: List[float] = field(default_factory=list)
    notes: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per kind, each distinct request's fastest repeat over the rounds;
    #: empty for a workload that does not repeat rounds.
    best: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def requests(self) -> List[float]:
        """Latencies of the headline requests (the end-to-end ones)."""
        return [t for kind in self.headline for t in self.latencies.get(kind, [])]


def fastest_repeats(times: Sequence[Sequence[float]]) -> List[float]:
    """Each request's fastest repeat (requests that never completed are
    left out).

    Other tenants of a shared host slow this process by up to a third
    for seconds at a time; a request repeated a few rounds apart almost
    always has one repeat that ran unslowed, so its fastest repeat is
    what the code costs, whichever phases the run happened to meet.
    """
    return [min(repeats) for repeats in times if repeats]


class Meter:
    """Active wall time of the measured phase, minus pauses."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.started = time.perf_counter()
        self.paused_s = 0.0

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Untimed, untraced reference work inside the measured phase."""
        instrumentation = self.run.instrumentation
        started = time.perf_counter()
        try:
            with instrumentation.recorder.muted() if instrumentation else nullcontext():
                yield
        finally:
            self.paused_s += time.perf_counter() - started

    def active_s(self) -> float:
        return time.perf_counter() - self.started - self.paused_s


def timed_setups(
    reps: int, build: Callable[[int], Any], discard: Callable[[Any], None], gap_s: float = 0.0
):
    """Run ``build`` ``reps`` times, ``gap_s`` apart; keep the last,
    discard the others.

    A set-up much shorter than a second runs wholly inside one of the
    host's speed phases; the gap lets its repeats meet different ones.
    """
    seconds, kept = [], None
    for rep in range(reps):
        if rep:
            time.sleep(gap_s)
        started = time.perf_counter()
        built = build(rep)
        seconds.append(time.perf_counter() - started)
        if kept is not None:
            discard(kept)
        kept = built
    return seconds, kept


def _failure(failures: List[str], what: str, error: BaseException) -> None:
    failures.append(f"{what}: {type(error).__name__}: {error}")


def _without_accounting(payload: Dict[str, Any]) -> bytes:
    return encode_json(
        {key: value for key, value in payload.items() if key not in ACCOUNTING_FIELDS}
    )


def _explain_engine(world, k: int, llm, **config) -> Rage:
    return Rage.from_corpus(
        world.corpus,
        llm,
        config=RageConfig(k=k, max_evaluations=MAX_EVALUATIONS, **config),
    )


def _world(spec: Tuple[str, int, int]):
    kind, k, seed = spec
    return WORLD_MAKERS[kind](k, seed=seed)


# -- explain_cpu -------------------------------------------------------------

#: The request shapes of one round, one fresh seeded world each.
#: Timeline k=6 is three requests in four so the median request lands
#: inside a group of like requests, not on the boundary between two.
#: How much the lattice prunes, and so what an explain costs, depends
#: on the world (timeline k=6: 105-151 model calls; superlative k=5:
#: 73-120; at k=8 and above one world can cost twice another), so a
#: round holds 12 worlds to keep one seed's round within a few percent
#: of another's.
EXPLAIN_SHAPES = {
    "full": [("timeline", 6), ("superlative", 5), ("timeline", 6), ("timeline", 6)] * 3,
    "smoke": [("timeline", 4), ("superlative", 3)],
}

#: The model's wait per prompt, a fast local model's.  It makes about
#: half of an explain waiting: a shared host's speed drifts by a fifth
#: over minutes, which no repeat within one run escapes, and it moves
#: only the computing half.  Attention, plan and lattice work stay the
#: other half, so a saving there still shows.
EXPLAIN_LATENCY = 0.005


class WaitingLLM:
    """``inner``'s answers after ``latency`` seconds per prompt.

    Unlike ``fakes.LatencyLLM`` it keeps the batch entry point, so the
    engine dispatches to it, and the simulated model computes, exactly
    as they do for the bare model.
    """

    def __init__(self, inner: Any, latency: float) -> None:
        self.inner = inner
        self.latency = latency

    @property
    def name(self) -> str:
        return f"waiting({self.inner.name})"

    def generate(self, prompt: str) -> Any:
        time.sleep(self.latency)
        return self.inner.generate(prompt)

    def generate_batch(self, prompts: Sequence[str]) -> List[Any]:
        time.sleep(self.latency * len(prompts))
        return self.inner.generate_batch(prompts)


def explain_inputs(seed: int, size: str) -> Dict[str, Any]:
    """One round of world specs, plus which requests to re-run on the
    exact path (one timeline and one superlative)."""
    rng = random.Random(f"explain_cpu:{seed}")
    specs = [(kind, k, rng.randrange(2**31)) for kind, k in EXPLAIN_SHAPES[size]]
    checked = [
        rng.choice([i for i, spec in enumerate(specs) if spec[0] == kind])
        for kind in ("timeline", "superlative")
    ]
    return {"specs": specs, "checked": sorted(checked)}


def explain_cpu(run: Run) -> Result:
    inputs = explain_inputs(run.seed, run.size)
    specs = inputs["specs"]

    def build(rep: int):
        worlds = [_world(spec) for spec in specs]
        # Warm lazy imports and module caches on a tiny world.
        warm = make_superlative_world(3, seed=rep)
        _explain_engine(warm, 3, SimulatedLLM(knowledge=warm.knowledge)).explain(
            warm.query, **EXPLAIN_KWARGS
        )
        return worlds

    setup_s, worlds = timed_setups(5, build, lambda worlds: None, gap_s=SETUP_GAP_S[run.size])
    times: List[List[float]] = [[] for _ in specs]
    failures: List[str] = []
    counters: Dict[str, float] = {}
    reports: List[Tuple[int, Any]] = []
    attempted = rounds = 0
    with run.measured() as meter:
        while rounds < MIN_ROUNDS or meter.active_s() < run.seconds:
            for index, (spec, world) in enumerate(zip(specs, worlds)):
                llm = run.model(
                    WaitingLLM(SimulatedLLM(knowledge=world.knowledge), EXPLAIN_LATENCY)
                )
                attempted += 1
                started = time.perf_counter()
                try:
                    with run.request():
                        rage = _explain_engine(world, spec[1], llm, backend="serial")
                        report = rage.explain(world.query, **EXPLAIN_KWARGS)
                except Exception as error:  # a failed request is counted, not fatal
                    _failure(failures, f"explain {spec}", error)
                else:
                    times[index].append(time.perf_counter() - started)
                    merge_counters(counters, engine_counters(rage))
                    reports.append((index, report))
            rounds += 1
        active_s = meter.active_s()

    # Every repeat of a world explains it alike; the checked worlds'
    # explanations equal the exact (unpruned, uncached) path's.
    first: Dict[int, bytes] = {}
    for index, report in reports:
        payload = report_payload(report)
        merge_counters(counters, report_counters(payload))
        body = _without_accounting(payload)
        if first.setdefault(index, body) != body:
            failures.append(f"repeat of request {index} explains it differently")
    for index in inputs["checked"]:
        kind, k, _ = specs[index]
        world = worlds[index]
        if index not in first:
            failures.append(f"checked request {index} did not complete")
            continue
        exact = _explain_engine(
            world, k, SimulatedLLM(knowledge=world.knowledge),
            plan_pruning=False, cache=False, backend="serial",
        ).explain(world.query, **EXPLAIN_KWARGS)
        if first[index] != _without_accounting(report_payload(exact)):
            failures.append(f"request {index} ({kind}, k={k}) differs from the exact path")
    latencies = [t for repeats in times for t in repeats]
    return Result(
        setup_s=setup_s,
        latencies={"explain": latencies},
        headline=("explain",),
        active_s=active_s,
        attempted=attempted,
        failures=failures,
        counters=counters,
        best={"explain": fastest_repeats(times)},
        notes={
            "rounds": (rounds, "count"),
            "explains_per_s": (len(latencies) / active_s, "1/s"),
            "llm_calls_per_explain": (
                counters.get("cache.misses", 0) / max(len(latencies), 1), "calls"
            ),
        },
    )


# -- serve_mixed -------------------------------------------------------------

SERVE_TENANTS = ["t0", "t1", "t2", "t3"]
SERVE_CLIENTS = 2
#: The remote-API stand-in's wait per model call.  Long enough that
#: requests wait on the model more than they compute (as E18 does),
#: so the GIL-bound CPU share, which a shared host slows unevenly,
#: does not set the latency.
SERVE_LATENCY = 0.1
#: Popular questions the previous server lifetime left in the disk store.
SERVE_POPULAR = {"full": 6, "smoke": 2}
#: Served /explain bodies re-derived in process, per run (untimed).
SERVE_CHECKED = {"full": 8, "smoke": 2}
SERVE_QUESTIONS = [
    None,  # the use case's own question
    "Who is the best tennis player by head to head record?",
    "Who won the most weeks at number one?",
    "Who is the best tennis player by Grand Slam titles?",
    "Who is the greatest tennis player of all time?",
]
SERVE_PREFIXES = ["", "Quick question: ", "Please tell me: ", "In your view, "]


def serve_inputs(seed: int, size: str) -> Dict[str, Any]:
    """Popular questions and (client, tenant, question, explain?) items.

    Clients own disjoint tenants.  Every third /ask is followed by an
    /explain.  Three questions in ten are the popular ones, in turn, so
    every tenant poses each of them; the rest are fresh paraphrases.
    The seed picks the wording of every paraphrase.
    """
    rng = random.Random(f"serve_mixed:{seed}")
    base_query = load_use_case("big_three").query

    def paraphrase() -> str:
        base = rng.choice(SERVE_QUESTIONS) or base_query
        return f"{rng.choice(SERVE_PREFIXES)}{base} (ticket {rng.randrange(10**6)})"

    popular = [paraphrase() for _ in range(SERVE_POPULAR[size])]
    items: List[Tuple[int, str, str, bool]] = []
    for i in range(4000 if size == "full" else 200):
        if i % 10 in (2, 5, 8):
            question = popular[(i // 10 * 3 + i % 10 // 3) % len(popular)]
        else:
            question = paraphrase()
        client = i % SERVE_CLIENTS
        tenant = SERVE_TENANTS[client * 2 + (i // SERVE_CLIENTS) % 2]
        items.append((client, tenant, question, i % 3 == 2))
    return {"popular": popular, "items": items}


def serve_mixed(run: Run) -> Result:
    case = load_use_case("big_three")
    inputs = serve_inputs(run.seed, run.size)
    items = inputs["items"]

    def build(rep: int) -> Tuple[RageServer, Path]:
        cache_dir = run.workdir / f"store-{rep}"
        config = dict(k=case.k, cache_dir=str(cache_dir))
        # The previous lifetime answered and explained the popular
        # questions, so this one restarts warm from the disk store.
        # Same model class, so the same store keys; no wait.
        previous = RageSession(
            Rage.from_corpus(
                case.corpus,
                LatencyLLM(SimulatedLLM(knowledge=case.knowledge), latency=0.0),
                config=RageConfig(**config),
            )
        )
        for question in inputs["popular"]:
            previous.pose(question)
            previous.report()
        llm = run.model(
            LatencyLLM(SimulatedLLM(knowledge=case.knowledge), latency=SERVE_LATENCY)
        )
        rage = Rage.from_corpus(
            case.corpus, llm, config=RageConfig(backend="threaded:8", **config)
        )
        server = RageServer(rage, SERVE_TENANTS, default_query=case.query).start()
        # Ready means answering: one round trip on the canonical
        # question, which the paraphrased stream never poses verbatim.
        status, _, data = http_json.post_json(f"{server.base_url}/ask", {"tenant": "t0"})
        if status != 200:
            server.close()
            raise RuntimeError(f"warm-up /ask answered {status}: {data[:200]!r}")
        return server, cache_dir

    def discard(built: Tuple[RageServer, Path]) -> None:
        built[0].close()
        shutil.rmtree(built[1], ignore_errors=True)

    setup_s, (server, cache_dir) = timed_setups(3, build, discard)
    stop = threading.Event()
    per_client: List[Dict[str, Any]] = [
        {"ask": [], "explain": [], "bodies": [], "failures": [], "attempted": 0}
        for _ in range(SERVE_CLIENTS)
    ]

    def post(record: Dict[str, Any], kind: str, body: Dict[str, str]) -> Optional[bytes]:
        record["attempted"] += 1
        started = time.perf_counter()
        with run.request():
            status, _, data = http_json.post_json(f"{server.base_url}/{kind}", body)
        if status != 200:
            record["failures"].append(f"/{kind} {body} -> {status} {data[:200]!r}")
            return None
        record[kind].append(time.perf_counter() - started)
        return data

    def client(index: int) -> None:
        record = per_client[index]
        mine = [item for item in items if item[0] == index]
        try:
            for _, tenant, question, explain in mine:
                if stop.is_set():
                    return
                if post(record, "ask", {"tenant": tenant, "query": question}) is None:
                    continue
                if explain:
                    body = post(record, "explain", {"tenant": tenant})
                    if body is not None:
                        record["bodies"].append((question, body))
            record["failures"].append(f"client {index} ran out of inputs")
        except Exception as error:  # the loop must end to be joined
            _failure(record["failures"], f"client {index}", error)

    before = engine_counters(server.rage)
    threads = [
        threading.Thread(target=client, args=(index,), name=f"ragebench-client-{index}")
        for index in range(SERVE_CLIENTS)
    ]
    try:
        with run.measured() as meter:
            for thread in threads:
                thread.start()
            while meter.active_s() < run.seconds or sum(
                len(r["ask"]) + len(r["explain"]) for r in per_client
            ) < MIN_REQUESTS:
                if not any(thread.is_alive() for thread in threads):
                    break
                time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
            active_s = meter.active_s()
        counters = counter_delta(before, engine_counters(server.rage))
    finally:
        stop.set()
        server.close()
    failures = [f for r in per_client for f in r["failures"]]
    failures += [f"{t.name} did not stop" for t in threads if t.is_alive()]

    bodies = [body for r in per_client for body in r["bodies"]]
    rng = random.Random(f"serve_mixed-check:{run.seed}")
    by_question = dict(bodies)
    reference = Rage.from_corpus(
        case.corpus, SimulatedLLM(knowledge=case.knowledge), config=RageConfig(k=case.k)
    )
    session = RageSession(reference)
    checked = rng.sample(sorted(by_question), min(SERVE_CHECKED[run.size], len(by_question)))
    for question in checked:
        session.pose(question)
        expected = encode_json(report_payload(session.report()))
        for asked, body in bodies:
            if asked == question and body != expected:
                failures.append(f"/explain for {question!r} differs from in-process")
    latencies = {
        kind: [t for r in per_client for t in r[kind]] for kind in ("ask", "explain")
    }
    client_seconds = latencies["ask"] + latencies["explain"]
    entries, total_bytes = PromptStore(cache_dir).usage()
    for _, body in bodies:
        merge_counters(counters, report_counters(http_json.body_json(body)))
    return Result(
        setup_s=setup_s,
        latencies=latencies,
        headline=("ask", "explain"),
        active_s=active_s,
        attempted=sum(r["attempted"] for r in per_client),
        failures=failures,
        counters=counters,
        client_seconds=client_seconds,
        store_bytes_per_entry=total_bytes / max(entries, 1),
        notes={
            "llm_calls_per_request": (
                counters.get("cache.misses", 0) / max(len(client_seconds), 1), "calls"
            ),
            "explains_checked": (len(checked), "count"),
        },
    )


# -- store_replay ------------------------------------------------------------

#: (k, pool size).  Timeline worlds only: their explain costs barely
#: vary with the seed, so a replay's cost does not depend on which pool
#: member it hits.
STORE_POOL = {"full": (6, 4), "smoke": (3, 2)}
STORE_NEW_EVERY = 16


def store_inputs(seed: int, size: str) -> Dict[str, Any]:
    """A pool of timeline worlds and a request stream: every
    ``STORE_NEW_EVERY``-th request explains a brand-new world, the rest
    replay the pool round-robin."""
    rng = random.Random(f"store_replay:{seed}")
    k, pool_size = STORE_POOL[size]
    pool = [("timeline", k, rng.randrange(2**31)) for _ in range(pool_size)]
    stream = []
    for i in range(4000 if size == "full" else 200):
        if i % STORE_NEW_EVERY == STORE_NEW_EVERY - 1:
            stream.append(("new", ("timeline", k, rng.randrange(2**31))))
        else:
            stream.append(("replay", i % pool_size))
    return {"pool": pool, "stream": stream}


def store_replay(run: Run) -> Result:
    inputs = store_inputs(run.seed, run.size)
    pool_worlds = [_world(spec) for spec in inputs["pool"]]

    def build(rep: int):
        cache_dir = run.workdir / f"store-{rep}"
        cold = []
        for spec, world in zip(inputs["pool"], pool_worlds):
            rage = _explain_engine(
                world, spec[1], SimulatedLLM(knowledge=world.knowledge),
                cache_dir=str(cache_dir),
            )
            cold.append(encode_json(report_payload(rage.explain(world.query, **EXPLAIN_KWARGS))))
        return cache_dir, cold

    setup_s, (cache_dir, cold) = timed_setups(
        3, build, lambda built: shutil.rmtree(built[0], ignore_errors=True)
    )
    latencies: Dict[str, List[float]] = {"replay": [], "new": []}
    failures: List[str] = []
    counters: Dict[str, float] = {}
    reports: List[Tuple[str, Any, Any, int]] = []
    i = 0
    with run.measured() as meter:
        while meter.active_s() < run.seconds or i < MIN_REQUESTS:
            kind, what = inputs["stream"][i % len(inputs["stream"])]
            spec = inputs["pool"][what] if kind == "replay" else what
            world = pool_worlds[what] if kind == "replay" else _world(spec)
            counting = CountingLLM(SimulatedLLM(knowledge=world.knowledge))
            llm = run.model(counting)
            started = time.perf_counter()
            try:
                with run.request():
                    rage = _explain_engine(world, spec[1], llm, cache_dir=str(cache_dir))
                    report = rage.explain(world.query, **EXPLAIN_KWARGS)
            except Exception as error:  # a failed request is counted, not fatal
                _failure(failures, f"{kind} {spec}", error)
            else:
                latencies[kind].append(time.perf_counter() - started)
                merge_counters(counters, engine_counters(rage))
                reports.append((kind, what, report, counting.calls))
            i += 1
        active_s = meter.active_s()

    replay_calls = 0
    for kind, what, report, calls in reports:
        payload = report_payload(report)
        merge_counters(counters, report_counters(payload))
        body = encode_json(payload)
        if kind != "replay":
            continue
        replay_calls += calls
        if calls:
            failures.append(f"replay of pool world {what} made {calls} model calls")
        if body != cold[what]:
            failures.append(f"replay of pool world {what} differs from its cold body")
    entries, total_bytes = PromptStore(cache_dir).usage()
    bytes_per_entry = total_bytes / max(entries, 1)
    explains = len(latencies["replay"]) + len(latencies["new"])
    return Result(
        setup_s=setup_s,
        latencies=latencies,
        headline=("replay", "new"),
        active_s=active_s,
        attempted=i,
        failures=failures,
        counters=counters,
        store_bytes_per_entry=bytes_per_entry,
        notes={
            "explains_per_s": (explains / active_s, "1/s"),
            "store_bytes_per_entry": (bytes_per_entry, "B"),
            "replay_model_calls": (replay_calls, "calls"),
        },
    )


# -- retrieval_churn ---------------------------------------------------------

CHURN_DOCS = {"full": 4000, "smoke": 300}
#: Ops in one round; a round takes about 5 s on a 2-vCPU host.
CHURN_ROUND = {"full": 200, "smoke": 40}
CHURN_K = 5
CHURN_PLANTED = 5
CHURN_WRITE_EVERY = 10
CHURN_VOCAB = 500
PROBE_QUERY = "needle haystack signal"


def _words(rng: random.Random, count: int) -> str:
    return " ".join(f"word{rng.randrange(CHURN_VOCAB):04d}" for _ in range(count))


def churn_inputs(seed: int, size: str) -> Dict[str, Any]:
    """Corpus parameters and one round of ops: searches (5% of them
    planted probes, 5% sampled for the fresh-index check), one add or
    update every ``CHURN_WRITE_EVERY`` ops.  A write names its document;
    :func:`_churn_document` gives it fresh text in every round."""
    rng = random.Random(f"retrieval_churn:{seed}")
    num_docs = CHURN_DOCS[size]
    ops: List[Tuple] = []
    for i in range(CHURN_ROUND[size]):
        if i % CHURN_WRITE_EVERY == CHURN_WRITE_EVERY - 1:
            if rng.random() < 0.7:
                ops.append(("add", f"churn-{seed}-{i:04d}"))
            else:
                target = rng.randrange(CHURN_PLANTED, num_docs)
                ops.append(("update", f"rand-{seed}-{target:05d}"))
        elif rng.random() < 0.05:
            ops.append(("probe", PROBE_QUERY, False))
        else:
            ops.append(("search", _words(rng, rng.randint(3, 5)), rng.random() < 0.05))
    return {"num_docs": num_docs, "corpus_seed": seed, "ops": ops}


def _churn_document(seed: int, position: int, round_: int, op: Tuple[str, str]) -> Document:
    """What write ``op`` at ``position`` stores in round ``round_``: an
    add makes a new document every round, an update rewrites its target."""
    text = _words(random.Random(f"retrieval_churn:{seed}:{position}:{round_}"), 40)
    doc_id = f"{op[1]}-{round_}" if op[0] == "add" else op[1]
    return Document(doc_id=doc_id, text=text)


def _fresh_ranking(index_dir: Path, query: str) -> List[Tuple[str, float]]:
    """The ranking a freshly opened index (cold caches) gives ``query``."""
    index = open_index(str(index_dir), dense=True)
    try:
        searcher = SqliteSearcher(
            index, scorer=make_retrieval_scorer(index, mode="hybrid", fusion="minmax", alpha=0.5)
        )
        result = searcher.search(query, k=CHURN_K)
        return [(s.document.doc_id, s.score) for s in result.sources]
    finally:
        index.close()


def retrieval_churn(run: Run) -> Result:
    inputs = churn_inputs(run.seed, run.size)
    corpus, planted = random_corpus(
        inputs["num_docs"], seed=inputs["corpus_seed"], num_relevant=CHURN_PLANTED
    )

    def build(rep: int):
        index_dir = run.workdir / f"index-{rep}"
        rage = Rage.from_corpus(
            corpus,
            SimulatedLLM(),
            config=RageConfig(k=CHURN_K, index_dir=str(index_dir), retrieval_mode="hybrid"),
        )
        return index_dir, rage

    def discard(built) -> None:
        built[1].index.close()
        shutil.rmtree(built[0], ignore_errors=True)

    setup_s, (index_dir, rage) = timed_setups(3, build, discard)
    ops = inputs["ops"]
    times: List[List[float]] = [[] for _ in ops]
    failures: List[str] = []
    sampled: List[Tuple[str, List[Tuple[str, float]]]] = []
    checked = attempted = rounds = 0

    def search(position: int, query: str) -> Optional[List[Tuple[str, float]]]:
        started = time.perf_counter()
        try:
            with run.request():
                context = rage.retrieve(query, k=CHURN_K)
        except Exception as error:  # a failed search is counted, not fatal
            _failure(failures, f"search {query!r}", error)
            return None
        times[position].append(time.perf_counter() - started)
        return [(s.document.doc_id, s.retrieval_score) for s in context.sources]

    def write(position: int, op: Tuple[str, str]) -> None:
        apply = rage.index.add if op[0] == "add" else rage.index.update
        document = _churn_document(run.seed, position, rounds, op)
        started = time.perf_counter()
        try:
            with run.request():
                apply(document)
        except Exception as error:  # a failed write is counted, not fatal
            _failure(failures, f"{op[0]} {document.doc_id}", error)
        else:
            times[position].append(time.perf_counter() - started)

    def check_sampled() -> None:
        # Rankings taken since the last commit must match a cold index
        # on the same file before the next write changes it.
        nonlocal checked
        for query, ranking in sampled:
            checked += 1
            if _fresh_ranking(index_dir, query) != ranking:
                failures.append(f"stale ranking for {query!r}")
        sampled.clear()

    try:
        with run.measured() as meter:
            while rounds < MIN_ROUNDS or meter.active_s() < run.seconds:
                for position, op in enumerate(ops):
                    attempted += 1
                    if op[0] in ("add", "update"):
                        with meter.paused():
                            check_sampled()
                        write(position, op)
                        continue
                    ranking = search(position, op[1])
                    if ranking is None:
                        continue
                    if op[0] == "probe" and {doc for doc, _ in ranking} != set(planted):
                        failures.append(f"probe ranked {ranking} without the planted {planted}")
                    elif op[2]:
                        sampled.append((op[1], ranking))
                rounds += 1
            active_s = meter.active_s()
        check_sampled()
    finally:
        rage.index.close()
    groups: Dict[str, List[List[float]]] = {"search": [], "write": []}
    for op, repeats in zip(ops, times):
        groups["write" if op[0] in ("add", "update") else "search"].append(repeats)
    latencies = {kind: [t for repeats in g for t in repeats] for kind, g in groups.items()}
    writes = latencies["write"]
    return Result(
        setup_s=setup_s,
        latencies=latencies,
        headline=("search",),
        active_s=active_s,
        attempted=attempted,
        failures=failures,
        best={kind: fastest_repeats(g) for kind, g in groups.items()},
        notes={
            "rounds": (rounds, "count"),
            "index_write_p50_ms": (
                statistics.median(writes) * 1000 if writes else 0.0, "ms"
            ),
            "writes": (len(writes), "count"),
            "rankings_checked": (checked, "count"),
        },
    )


WORKLOADS: Dict[str, Callable[[Run], Result]] = {
    "explain_cpu": explain_cpu,
    "serve_mixed": serve_mixed,
    "store_replay": store_replay,
    "retrieval_churn": retrieval_churn,
}

INPUTS: Dict[str, Callable[[int, str], Any]] = {
    "explain_cpu": explain_inputs,
    "serve_mixed": serve_inputs,
    "store_replay": store_inputs,
    "retrieval_churn": churn_inputs,
}
