"""``rage`` — the command-line face of the reproduction.

Subcommands mirror the demo tool's panels:

    rage ask        --use-case big_three
    rage insights   --use-case big_three --mode combinations
    rage insights   --use-case us_open --mode permutations --sample 40
    rage counterfactual --use-case big_three --direction top_down
    rage counterfactual --use-case us_open --kind permutation
    rage optimal    --use-case big_three -s 5
    rage report     --use-case player_of_the_year --html report.html
    rage list

Each command prints the same artifacts the paper's UI displays (pie
chart, rules, tables, counterfactual sentences) as plain text; ``rage
report --html`` additionally writes the standalone HTML page.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..analysis.cli import add_lint_arguments, run_lint
from ..core.counterfactual import SearchDirection
from ..core.engine import RageConfig
from ..datasets.base import available_use_cases
from ..errors import RageError
from ..llm.base import LanguageModel
from ..llm.factory import create_llm
from ..llm.remote import RemoteLLM
from ..llm.router import RouterLLM
from ..viz.ascii import (
    render_combination_counterfactual,
    render_combination_insights,
    render_optimal_permutations,
    render_permutation_counterfactual,
    render_permutation_insights,
)
from ..viz.html import write_report_html
from .session import RageSession


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rage",
        description="Counterfactual explanations for retrieval-augmented LLMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--use-case",
            default="big_three",
            choices=available_use_cases(),
            help="built-in demo dataset",
        )
        p.add_argument("--query", default=None, help="override the canonical question")
        p.add_argument("--k", type=int, default=None, help="retrieval depth override")
        p.add_argument(
            "--no-prune",
            action="store_true",
            help="disable answer-implication plan pruning (evaluate every "
            "perturbation with a real LLM call)",
        )
        p.add_argument(
            "--backend",
            default=None,
            metavar="SPEC",
            help="execution backend for evaluation batches: serial, "
            "threaded[:N] (thread pool) or asyncio[:N] (event loop, "
            "at most N calls in flight)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent generation store: content-addressed disk cache "
            "shared across runs (a repeated report answers warm with zero "
            "real LLM calls)",
        )
        p.add_argument(
            "--model",
            default=None,
            metavar="SPEC",
            help="model to explain: 'simulated' (default; the deterministic "
            "demo model) or 'remote:<provider>:<model>' for an HTTP "
            "chat-completions endpoint (providers: openai, anthropic)",
        )
        p.add_argument(
            "--base-url",
            default=None,
            metavar="URL",
            help="remote endpoint root (default: the provider's public API); "
            "point at a local gateway or fake server for hermetic runs",
        )
        p.add_argument(
            "--api-key-env",
            default=None,
            metavar="VAR",
            help="name of the environment variable holding the remote API key "
            "(the key itself never appears on the command line)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-call deadline: a hung prompt fails that prompt instead "
            "of stalling the batch (for a remote model or pool, the "
            "timeout of each HTTP request)",
        )
        p.add_argument(
            "--rate",
            type=float,
            default=None,
            metavar="RPS",
            help="remote rate limit in requests/second (token bucket shared "
            "across all concurrent calls)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            metavar="N",
            help="additional attempts after a retryable remote fault "
            "(429/5xx/timeout/malformed body); default 3",
        )
        p.add_argument(
            "--provider",
            action="append",
            dest="providers",
            default=None,
            metavar="SPEC",
            help="add a provider to a failover pool (repeatable; order is "
            "priority): 'remote:<provider>:<model>[@<base_url>]' or "
            "'fallback:simulated'; mutually exclusive with --model",
        )
        p.add_argument(
            "--hedge",
            action="store_true",
            help="fire a hedged backup request on the next healthy provider "
            "when the primary exceeds the hedge delay (requires --provider)",
        )
        p.add_argument(
            "--hedge-delay",
            type=float,
            default=None,
            metavar="SECONDS",
            help="hedging trigger delay (default: the primary's observed "
            "p95 latency; requires --hedge)",
        )
        p.add_argument(
            "--breaker-threshold",
            type=int,
            default=None,
            metavar="N",
            help="consecutive transport failures before a provider's "
            "circuit breaker opens (default 5; requires --provider)",
        )
        p.add_argument(
            "--no-single-flight",
            action="store_true",
            help="disable single-flight coalescing of concurrent identical "
            "cache misses (restores the every-miss-dispatches path)",
        )
        p.add_argument(
            "--batch-window-ms",
            type=float,
            default=None,
            metavar="MS",
            help="cross-request micro-batch window: hold evaluation batches "
            "up to MS milliseconds and flush them merged as one native "
            "batch (default: off)",
        )
        p.add_argument(
            "--index-dir",
            default=None,
            metavar="DIR",
            help="persistent SQLite retrieval index: the corpus is synced "
            "incrementally (unchanged documents are never re-analyzed) and "
            "a warm restart serves queries without rebuilding",
        )
        p.add_argument(
            "--retrieval-mode",
            choices=("bm25", "dense", "hybrid"),
            default=None,
            help="context ranking: sparse bm25 (default), dense cosine, or "
            "hybrid fusion of both (dense/hybrid require --index-dir)",
        )
        p.add_argument(
            "--fusion",
            choices=("minmax", "rrf"),
            default=None,
            help="hybrid fusion strategy: min-max-normalized linear fusion "
            "or reciprocal-rank fusion (requires --retrieval-mode hybrid)",
        )
        p.add_argument(
            "--hybrid-alpha",
            type=float,
            default=None,
            metavar="A",
            help="sparse-side weight of the hybrid fusion, in [0, 1] "
            "(default 0.5; requires --retrieval-mode hybrid)",
        )

    p_ask = sub.add_parser("ask", help="retrieve a context and answer the question")
    add_common(p_ask)

    p_ins = sub.add_parser("insights", help="combination or permutation insights")
    add_common(p_ins)
    p_ins.add_argument(
        "--mode",
        choices=("combinations", "permutations"),
        default="combinations",
    )
    p_ins.add_argument("--sample", type=int, default=None, help="random sample size s")

    p_cf = sub.add_parser("counterfactual", help="search for a counterfactual")
    add_common(p_cf)
    p_cf.add_argument(
        "--kind", choices=("combination", "permutation"), default="combination"
    )
    p_cf.add_argument(
        "--direction",
        choices=tuple(d.value for d in SearchDirection),
        default=SearchDirection.TOP_DOWN.value,
    )
    p_cf.add_argument("--target", default=None, help="flip to this specific answer")

    p_opt = sub.add_parser("optimal", help="top-s optimal permutations")
    add_common(p_opt)
    p_opt.add_argument("-s", type=int, default=5, help="number of placements")

    p_sal = sub.add_parser(
        "salience", help="per-source influence and order stability"
    )
    add_common(p_sal)
    p_sal.add_argument("--answer", default=None, help="answer to contrast against")
    p_sal.add_argument("--sample", type=int, default=None, help="combination sample size")

    p_agr = sub.add_parser(
        "agreement", help="highlight source agreement and disagreement"
    )
    add_common(p_agr)

    p_rep = sub.add_parser("report", help="full explanation report")
    add_common(p_rep)
    p_rep.add_argument("--sample", type=int, default=None, help="insight sample size")
    p_rep.add_argument("--html", default=None, help="also write an HTML report here")
    p_rep.add_argument(
        "--markdown", default=None, help="also write a Markdown report here"
    )
    p_rep.add_argument(
        "--stats",
        action="store_true",
        help="print LLM-call and prompt-cache statistics after the report",
    )

    p_serve = sub.add_parser(
        "serve", help="serve ask/explain over HTTP for multiple tenants"
    )
    add_common(p_serve)
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--tenants",
        default="default",
        metavar="NAMES",
        help="comma-separated tenant names; each gets a private session "
        "and admission bucket over the shared engine",
    )
    p_serve.add_argument(
        "--admit-rate",
        type=float,
        default=None,
        metavar="RPS",
        help="per-tenant admission rate (requests/second); exhausted "
        "tenants get 429 + Retry-After (default: unlimited)",
    )
    p_serve.add_argument(
        "--admit-burst",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant admission burst (requires --admit-rate)",
    )

    p_index = sub.add_parser(
        "index", help="administer a persistent retrieval index"
    )
    p_index.add_argument(
        "action",
        choices=("build", "add", "update", "stats"),
        help="build: sync a use-case corpus into the index (incremental; "
        "unchanged documents are skipped); add/update: index one document "
        "given --doc-id and --text; stats: document/vocabulary counts and "
        "on-disk size",
    )
    p_index.add_argument(
        "--index-dir",
        required=True,
        metavar="DIR",
        help="the index directory (same value as ask/serve --index-dir)",
    )
    p_index.add_argument(
        "--use-case",
        default="big_three",
        choices=available_use_cases(),
        help="corpus to sync on build",
    )
    p_index.add_argument(
        "--dense",
        action="store_true",
        help="equip a newly created index with dense vectors "
        "(needed later for --retrieval-mode dense/hybrid)",
    )
    p_index.add_argument("--doc-id", default=None, help="document id for add/update")
    p_index.add_argument("--text", default=None, help="document text for add/update")
    p_index.add_argument("--title", default="", help="document title for add/update")

    p_cache = sub.add_parser(
        "cache", help="administer a persistent generation store"
    )
    p_cache.add_argument(
        "action",
        choices=("stats", "clear", "path"),
        help="stats: entries, bytes and lifetime hit rate; "
        "clear: delete every entry; path: print the store directory",
    )
    p_cache.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the store directory (same value as report --cache-dir)",
    )

    sub.add_parser("list", help="list the built-in use cases")
    sub.add_parser(
        "verify", help="re-check every paper narrative claim (PASS/FAIL table)"
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the project-native static analysis suite",
    )
    add_lint_arguments(p_lint)
    return parser


def _model(args: argparse.Namespace, case) -> LanguageModel:
    """The model the common CLI flags name (see :func:`create_llm`)."""
    return create_llm(
        case.knowledge,
        model=args.model,
        providers=args.providers,
        base_url=args.base_url,
        api_key_env=args.api_key_env,
        timeout=args.timeout,
        rate=args.rate,
        retries=args.retries,
        breaker_threshold=args.breaker_threshold,
        hedge=args.hedge,
        hedge_delay=args.hedge_delay,
    )


def _has_transport(llm: LanguageModel) -> bool:
    """Whether the model has a remote endpoint, which owns ``--timeout``."""
    members = llm.members if isinstance(llm, RouterLLM) else (llm,)
    return any(isinstance(member, RemoteLLM) for member in members)


def _config_overrides(
    args: argparse.Namespace, case, llm: LanguageModel
) -> dict:
    """Translate common CLI flags into :class:`RageConfig` overrides."""
    overrides = dict(k=case.k)
    if args.k is not None:
        overrides["k"] = args.k
    if getattr(args, "no_prune", False):
        overrides["plan_pruning"] = False
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "cache_dir", None) is not None:
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "timeout", None) is not None and not _has_transport(llm):
        # A remote endpoint already enforces --timeout per HTTP request;
        # a dispatch deadline on top would cut its retries and the
        # pool's failover walk short.
        overrides["request_timeout"] = args.timeout
    if getattr(args, "no_single_flight", False):
        overrides["single_flight"] = False
    if getattr(args, "batch_window_ms", None) is not None:
        overrides["batch_window_ms"] = args.batch_window_ms
    if getattr(args, "index_dir", None) is not None:
        overrides["index_dir"] = args.index_dir
    if getattr(args, "retrieval_mode", None) is not None:
        overrides["retrieval_mode"] = args.retrieval_mode
    if getattr(args, "fusion", None) is not None:
        overrides["fusion"] = args.fusion
    if getattr(args, "hybrid_alpha", None) is not None:
        overrides["hybrid_alpha"] = args.hybrid_alpha
    return overrides


def _session(args: argparse.Namespace) -> RageSession:
    from ..datasets.base import load_use_case

    case = load_use_case(args.use_case)
    llm = _model(args, case)
    config = RageConfig(**_config_overrides(args, case, llm))
    session = RageSession.for_use_case(case, config=config, llm=llm)
    if args.query:
        session.pose(args.query)
    return session


def _serve_command(args: argparse.Namespace) -> int:
    """``rage serve``: the multi-tenant ask/explain HTTP service."""
    import signal
    import threading

    from ..datasets.base import load_use_case
    from .server import RageServer

    case = load_use_case(args.use_case)
    llm = _model(args, case)
    config = RageConfig(**_config_overrides(args, case, llm))
    tenants = [name.strip() for name in args.tenants.split(",") if name.strip()]
    server = RageServer.for_use_case(
        case,
        tenants,
        config=config,
        llm=llm,
        admit_rate=args.admit_rate,
        admit_burst=args.admit_burst,
        default_query=args.query or case.query,
        host=args.host,
        port=args.port,
    )
    server.start()
    # SIGTERM (the supervisor's stop signal) takes the same graceful
    # path as Ctrl-C: raise KeyboardInterrupt in the main thread so the
    # finally-block drains in-flight requests before the socket closes.
    # Signals only deliver to the main thread; tests drive this function
    # from workers, where registration would raise.
    previous_handler = None
    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:

        def _on_sigterm(signum, frame):
            raise KeyboardInterrupt

        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        admission = (
            f"{args.admit_rate}/s burst {server.admit_burst}"
            if args.admit_rate is not None
            else "unlimited"
        )
        print(f"rage serve: {server.base_url}")
        print(f"tenants:    {', '.join(server.tenant_names())} ({admission})")
        print("endpoints:  POST /ask  POST /explain  GET /metrics  GET /healthz")
        sys.stdout.flush()
        server.join()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight requests)")
    finally:
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous_handler)
        server.close()
    return 0


def _index_command(args: argparse.Namespace) -> int:
    """``rage index {build,add,update,stats} --index-dir DIR``."""
    from pathlib import Path

    from ..datasets.base import load_use_case
    from ..retrieval import DB_NAME, Document, open_index

    root = Path(args.index_dir).expanduser()
    if args.action == "stats":
        # Inspection must not create the index it was asked to inspect
        # (a typo'd --index-dir should be flagged, not materialized).
        if not (root / DB_NAME).is_file():
            print(f"error: no index database at {root / DB_NAME}", file=sys.stderr)
            return 2
        with open_index(root) as index:
            stats = index.stats
            dense = "yes" if index.embedder is not None else "no"
            print(f"Index:      {index.path}")
            print(f"Documents:  {stats.num_documents}")
            print(f"Vocabulary: {stats.vocabulary_size}")
            print(f"Terms:      {stats.total_terms}")
            print(f"Dense:      {dense}")
            print(f"Bytes:      {index.size_bytes()}")
        return 0
    if args.action == "build":
        case = load_use_case(args.use_case)
        with open_index(root, dense=args.dense) as index:
            outcome = index.sync(case.corpus, remove_missing=True)
        print(
            f"synced {args.use_case} into {root}: "
            f"{outcome['added']} added, {outcome['updated']} updated, "
            f"{outcome['unchanged']} unchanged, {outcome['removed']} removed"
        )
        return 0
    # add / update index one explicit document.
    if args.doc_id is None or args.text is None:
        print(
            f"error: rage index {args.action} requires --doc-id and --text",
            file=sys.stderr,
        )
        return 2
    doc = Document(doc_id=args.doc_id, text=args.text, title=args.title)
    with open_index(root) as index:
        outcome = index.add(doc) if args.action == "add" else index.update(doc)
    print(f"{doc.doc_id}: {outcome}")
    return 0


def _cache_command(args: argparse.Namespace) -> int:
    """``rage cache {stats,clear,path} --cache-dir DIR``."""
    from pathlib import Path

    from ..llm.store import PromptStore

    root = Path(args.cache_dir).expanduser()
    if args.action == "path":
        print(root)
        return 0
    # Inspection must not create the directory it was asked to inspect
    # (a typo'd --cache-dir should be flagged, not materialized).
    if not root.is_dir():
        print(f"error: no store directory at {root}", file=sys.stderr)
        return 2
    store = PromptStore(root)
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entries from {store.root}")
        return 0
    meta = store.read_meta()
    lookups = meta.get("hits", 0) + meta.get("misses", 0)
    hit_rate = meta.get("hits", 0) / lookups if lookups else 0.0
    entries, nbytes = store.usage()
    print(f"Store:    {store.root}")
    print(f"Entries:  {entries}")
    print(f"Bytes:    {nbytes}")
    print(
        f"Lifetime: {meta.get('hits', 0)} hits / {meta.get('misses', 0)} misses "
        f"(hit rate {hit_rate:.2f}), {meta.get('writes', 0)} writes, "
        f"{meta.get('evictions', 0)} evictions, "
        f"{meta.get('corrupt', 0)} corrupt entries dropped"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except RageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Filesystem failures (an unwritable --cache-dir, a vanished
        # store) follow the same exit-2 contract as config errors.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name in available_use_cases():
            print(name)
        return 0

    if args.command == "verify":
        from .verify import render_checks, verify_all

        checks = verify_all()
        print(render_checks(checks))
        return 0 if all(check.passed for check in checks) else 1

    if args.command == "lint":
        return run_lint(args)

    if args.command == "cache":
        return _cache_command(args)

    if args.command == "index":
        return _index_command(args)

    if args.command == "serve":
        return _serve_command(args)

    session = _session(args)
    try:
        return _session_dispatch(args, session)
    finally:
        # Whatever the command, fold this session's disk-store traffic
        # into the lifetime counters `rage cache stats` reports.
        if session.rage.store is not None:
            session.rage.store.persist_stats()


def _session_dispatch(args: argparse.Namespace, session: RageSession) -> int:
    assert session.context is not None

    if args.command == "ask":
        print(f"Question: {session.query}")
        print(f"Context:  {' > '.join(session.context.doc_ids())}")
        print(f"Answer:   {session.answer}")
        return 0

    if args.command == "insights":
        if args.mode == "combinations":
            print(render_combination_insights(session.combination_insights(args.sample)))
        else:
            print(render_permutation_insights(session.permutation_insights(args.sample)))
        return 0

    if args.command == "counterfactual":
        if args.kind == "combination":
            result = session.combination_counterfactual(
                direction=args.direction, target_answer=args.target
            )
            print(render_combination_counterfactual(result))
        else:
            result = session.permutation_counterfactual(target_answer=args.target)
            print(render_permutation_counterfactual(result))
        return 0

    if args.command == "optimal":
        print(render_optimal_permutations(session.optimal_permutations(s=args.s)))
        return 0

    if args.command == "agreement":
        from ..core.agreement import analyze_agreement, render_agreement

        report = analyze_agreement(session.context)
        print(f"Context: {' > '.join(session.context.doc_ids())}")
        print()
        print(render_agreement(report))
        return 0

    if args.command == "salience":
        scores = session.rage.source_salience(
            session.query,
            context=session.context,
            answer=args.answer,
            sample_size=args.sample,
        )
        print(f"Source salience for answer {scores[0].answer!r}:")
        from ..viz.ascii import render_table

        rows = [
            (
                s.doc_id,
                f"{s.present_rate:.2f}",
                f"{s.absent_rate:.2f}",
                f"{s.contrast:+.2f}",
            )
            for s in scores
        ]
        print(render_table(("source", "P(ans|present)", "P(ans|absent)", "contrast"), rows))
        sample = 50 if session.context.k > 5 else None
        stability = session.rage.order_stability(
            session.query, context=session.context, sample_size=sample
        )
        flip = "none found" if stability.flip_tau is None else f"tau={stability.flip_tau:.3f}"
        print(
            f"\nOrder stability: {stability.stable_fraction * 100:.1f}% of "
            f"{stability.num_permutations} orders keep the answer "
            f"(most similar flip: {flip})"
        )
        return 0

    if args.command == "report":
        report = session.report(sample_size=args.sample)
        print(f"Question: {report.query}")
        print(f"Answer:   {report.answer}")
        print()
        print(render_combination_insights(report.combination_insights))
        print()
        if report.permutation_insights is not None:
            print(render_permutation_insights(report.permutation_insights))
            print()
        print(render_combination_counterfactual(report.top_down))
        print(render_combination_counterfactual(report.bottom_up))
        if report.permutation_counterfactual is not None:
            print(render_permutation_counterfactual(report.permutation_counterfactual))
        if report.stability is not None:
            stability = report.stability
            flip = (
                "none found"
                if stability.flip_tau is None
                else f"tau={stability.flip_tau:.3f}"
            )
            print(
                f"\nOrder stability: {stability.stable_fraction * 100:.1f}% of "
                f"{stability.num_permutations} sampled orders keep the answer "
                f"(most similar flip: {flip})"
            )
        if report.optimal:
            print()
            print("Optimal permutations:")
            print(render_optimal_permutations(report.optimal))
        if args.html:
            write_report_html(report, args.html)
            print(f"\nHTML report written to {args.html}")
        if args.markdown:
            from ..viz.markdown import write_report_markdown

            write_report_markdown(report, args.markdown)
            print(f"\nMarkdown report written to {args.markdown}")
        if args.stats:
            from ..llm.cache import CachingLLM

            print(f"\nEvaluation stats: {report.llm_calls} LLM calls")
            print(f"Backend: {session.rage.backend.name}")
            if report.plan_stats is not None:
                stats = report.plan_stats
                print(
                    f"Plan: {stats.requested} requested, "
                    f"{stats.dispatched} dispatched, "
                    f"{stats.implied} implied, {stats.pruned} pruned"
                )
            llm = session.rage.llm
            if isinstance(llm, CachingLLM):
                stats = llm.stats
                print(
                    f"Prompt cache: {stats.hits} hits / {stats.misses} misses "
                    f"(hit rate {stats.hit_rate:.2f}); "
                    f"{stats.batches} batches covering {stats.batched_prompts} "
                    f"prompts, {stats.batched_misses} reached the model"
                )
                if llm.flights is not None:
                    flights = llm.flights.stats
                    print(
                        f"Single-flight: {flights.flights} flights led, "
                        f"{flights.coalesced} waiters served, "
                        f"{flights.failures} failures"
                    )
            from ..exec.coalesce import CoalescingBackend

            backend = session.rage.backend
            if isinstance(backend, CoalescingBackend):
                window = backend.window_stats
                print(
                    f"Batch window ({backend.window_ms:g} ms): "
                    f"{window.windows} windows flushed "
                    f"({window.merged_windows} merged), "
                    f"mean flush size {window.mean_flush_size:.1f}, "
                    f"max {window.max_flush}"
                )
            inner = llm.inner if isinstance(llm, CachingLLM) else llm
            if isinstance(inner, (RemoteLLM, RouterLLM)):
                for line in inner.usage_lines():
                    print(line)
            store = session.rage.store
            if store is not None:
                cold = store.stats.writes
                warm = store.stats.hits
                if warm and cold:
                    run = "mixed"
                elif warm:
                    run = "warm"
                else:
                    run = "cold"
                entries, nbytes = store.usage()
                print(
                    f"Disk store ({run} run): {store.stats.hits} hits served "
                    f"from {store.root}, {cold} entries written; "
                    f"{entries} entries, {nbytes} bytes on disk"
                )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
