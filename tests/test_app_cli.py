"""CLI tests (argument parsing and command output)."""

import pytest

from repro.app.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "big_three" in out
    assert "us_open" in out
    assert "player_of_the_year" in out


def test_ask(capsys):
    assert main(["ask", "--use-case", "big_three"]) == 0
    out = capsys.readouterr().out
    assert "Roger Federer" in out
    assert "bigthree-1-match-wins" in out


def test_ask_custom_query(capsys):
    code = main(
        ["ask", "--use-case", "big_three", "--query",
         "Who is the best tennis player among the Big Three?"]
    )
    assert code == 0
    assert "Answer:" in capsys.readouterr().out


def test_insights_combinations(capsys):
    assert main(["insights", "--use-case", "big_three"]) == 0
    out = capsys.readouterr().out
    assert "Answer distribution" in out
    assert "Roger Federer" in out


def test_insights_permutations_sampled(capsys):
    code = main(
        ["insights", "--use-case", "us_open", "--mode", "permutations",
         "--sample", "12"]
    )
    assert code == 0
    assert "Permutation insights" in capsys.readouterr().out


def test_counterfactual_combination(capsys):
    assert main(["counterfactual", "--use-case", "big_three"]) == 0
    out = capsys.readouterr().out
    assert "Top-down counterfactual" in out


def test_counterfactual_bottom_up(capsys):
    code = main(
        ["counterfactual", "--use-case", "big_three", "--direction", "bottom_up"]
    )
    assert code == 0
    assert "Bottom-up counterfactual" in capsys.readouterr().out


def test_counterfactual_permutation(capsys):
    code = main(["counterfactual", "--use-case", "us_open", "--kind", "permutation"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Iga Swiatek" in out


def test_counterfactual_with_target(capsys):
    code = main(
        ["counterfactual", "--use-case", "big_three", "--target", "Rafael Nadal"]
    )
    assert code == 0
    assert "Rafael Nadal" in capsys.readouterr().out


def test_optimal(capsys):
    assert main(["optimal", "--use-case", "big_three", "-s", "3"]) == 0
    out = capsys.readouterr().out
    assert "rank" in out


def test_report_with_html(tmp_path, capsys):
    path = tmp_path / "out.html"
    code = main(
        ["report", "--use-case", "big_three", "--html", str(path)]
    )
    assert code == 0
    assert path.exists()
    assert "HTML report written" in capsys.readouterr().out


def test_report_with_markdown(tmp_path, capsys):
    path = tmp_path / "out.md"
    code = main(["report", "--use-case", "big_three", "--markdown", str(path)])
    assert code == 0
    content = path.read_text(encoding="utf-8")
    assert content.startswith("# RAGE explanation report")
    assert "Markdown report written" in capsys.readouterr().out


def test_report_large_use_case_sampled(capsys):
    code = main(["report", "--use-case", "player_of_the_year", "--sample", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Answer:   5" in out


def test_invalid_use_case_rejected():
    with pytest.raises(SystemExit):
        main(["ask", "--use-case", "bogus"])


def test_k_override(capsys):
    assert main(["ask", "--use-case", "big_three", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("bigthree-") == 2


def test_report_stats_prints_plan_line(capsys):
    code = main(["report", "--use-case", "big_three", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Evaluation stats:" in out
    assert "Plan:" in out
    assert "implied" in out and "pruned" in out and "dispatched" in out


def test_no_prune_flag_round_trips_through_config(capsys, monkeypatch):
    from repro.app import cli as cli_module

    captured = {}
    original = cli_module.RageSession.for_use_case

    def spy(case, config=None, llm=None):
        captured["config"] = config
        return original(case, config=config, llm=llm)

    monkeypatch.setattr(cli_module.RageSession, "for_use_case", staticmethod(spy))
    assert main(["report", "--use-case", "big_three", "--no-prune", "--stats"]) == 0
    assert captured["config"].plan_pruning is False
    out = capsys.readouterr().out
    assert "0 implied, 0 pruned" in out

    assert main(["report", "--use-case", "big_three"]) == 0
    assert captured["config"].plan_pruning is True


@pytest.mark.parametrize(
    "model_flags",
    [[], ["--model", "simulated"], ["--provider", "fallback:simulated"]],
)
def test_timeout_is_the_local_deadline_for_a_model_without_transport(
    monkeypatch, model_flags
):
    """No remote endpoint owns --timeout here, so it becomes the local
    deadline, which the execution backend enforces."""
    from repro.app import cli as cli_module

    sessions = []
    original = cli_module.RageSession.for_use_case

    def spy(case, config=None, llm=None):
        sessions.append(original(case, config=config, llm=llm))
        return sessions[-1]

    monkeypatch.setattr(cli_module.RageSession, "for_use_case", staticmethod(spy))
    argv = ["ask", "--use-case", "big_three", "--timeout", "5", *model_flags]
    assert main(argv) == 0
    rage = sessions[0].rage
    assert rage.config.request_timeout == 5.0
    assert rage.backend.timeout == 5.0


def test_no_prune_accepted_by_other_commands(capsys):
    assert main(["ask", "--use-case", "big_three", "--no-prune"]) == 0
    assert "Answer:" in capsys.readouterr().out


# -- execution backends and the persistent store ---------------------------


def test_backend_flag_round_trips_through_config(capsys):
    assert main(
        ["report", "--use-case", "big_three", "--backend", "asyncio:8", "--stats"]
    ) == 0
    out = capsys.readouterr().out
    assert "Backend: asyncio:8" in out


def test_backend_flag_rejects_bad_spec(capsys):
    assert main(["ask", "--use-case", "big_three", "--backend", "warp"]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_stats_prints_single_flight_line(capsys):
    assert main(["report", "--use-case", "big_three", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "Single-flight:" in out
    assert "flights led" in out and "waiters served" in out


def test_no_single_flight_flag_round_trips_through_config(capsys, monkeypatch):
    from repro.app import cli as cli_module

    captured = {}
    original = cli_module.RageSession.for_use_case

    def spy(case, config=None, llm=None):
        captured["config"] = config
        return original(case, config=config, llm=llm)

    monkeypatch.setattr(cli_module.RageSession, "for_use_case", staticmethod(spy))
    assert main(
        ["report", "--use-case", "big_three", "--no-single-flight", "--stats"]
    ) == 0
    assert captured["config"].single_flight is False
    out = capsys.readouterr().out
    assert "Single-flight:" not in out  # no registry, no counters

    assert main(["report", "--use-case", "big_three"]) == 0
    assert captured["config"].single_flight is True  # default ON


def test_batch_window_flag_round_trips_and_prints_stats(capsys):
    assert main(
        ["report", "--use-case", "big_three", "--batch-window-ms", "5", "--stats"]
    ) == 0
    out = capsys.readouterr().out
    assert "Backend: coalesce:5ms+serial" in out
    assert "Batch window (5 ms):" in out
    assert "windows flushed" in out


def test_batch_window_rejects_nonpositive(capsys):
    assert main(
        ["ask", "--use-case", "big_three", "--batch-window-ms", "0"]
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_report_stats_cold_then_warm_store(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    assert main(
        ["report", "--use-case", "big_three", "--cache-dir", cache_dir, "--stats"]
    ) == 0
    cold = capsys.readouterr().out
    assert "Disk store (cold run):" in cold
    assert "0 hits" in cold

    assert main(
        ["report", "--use-case", "big_three", "--cache-dir", cache_dir, "--stats"]
    ) == 0
    warm = capsys.readouterr().out
    assert "Disk store (warm run):" in warm
    assert "0 entries written" in warm

    # The two runs must render the same explanation artifacts: strip the
    # stats tail (cold/warm traffic legitimately differs) and compare.
    strip = lambda text: text.split("\nEvaluation stats:")[0]
    assert strip(cold) == strip(warm)


def test_cache_path_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    assert main(["cache", "path", "--cache-dir", cache_dir]) == 0
    assert cache_dir in capsys.readouterr().out

    assert main(
        ["report", "--use-case", "big_three", "--cache-dir", cache_dir]
    ) == 0
    capsys.readouterr()
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "cleared" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "Entries:  0" in capsys.readouterr().out


def test_cache_stats_reports_lifetime_hit_rate(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    for _ in range(2):
        assert main(
            ["report", "--use-case", "big_three", "--cache-dir", cache_dir,
             "--stats"]
        ) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "Store:" in out and "Bytes:" in out
    assert "hit rate 0.50" in out  # cold run all misses, warm run all hits


def test_lifetime_counters_persist_without_stats_flag(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    for _ in range(2):
        assert main(
            ["report", "--use-case", "big_three", "--cache-dir", cache_dir]
        ) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "hit rate 0.50" in out  # stats persisted even without --stats


def test_cache_stats_on_missing_dir_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["cache", "stats", "--cache-dir", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not missing.exists()  # inspection must not create the store


def test_cache_clear_on_missing_dir_is_an_error(tmp_path, capsys):
    assert main(["cache", "clear", "--cache-dir", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_store_oserror_follows_exit2_contract(monkeypatch, capsys):
    import repro.core.engine as engine_mod

    def refuse(*args, **kwargs):
        raise PermissionError("read-only filesystem")

    monkeypatch.setattr(engine_mod, "PromptStore", refuse)
    code = main(["ask", "--use-case", "big_three", "--cache-dir", "/x"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_serve_wires_config_end_to_end(monkeypatch, capsys):
    """`rage serve` builds the server from the CLI flags, binds, and
    prints the live URL; join() is stubbed so the test returns."""
    from repro.app.server import RageServer

    built = {}

    def fake_join(self, timeout=None):
        built["server"] = self

    monkeypatch.setattr(RageServer, "join", fake_join)
    code = main(
        [
            "serve",
            "--use-case", "big_three",
            "--port", "0",
            "--tenants", "alice, bob",
            "--admit-rate", "5",
            "--admit-burst", "2",
            "--backend", "threaded:2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rage serve: http://127.0.0.1:" in out
    assert "alice, bob" in out
    server = built["server"]
    assert server.tenant_names() == ["alice", "bob"]
    assert server.admit_rate == 5.0 and server.admit_burst == 2
    assert server.rage.backend.name == "threaded:2"
    assert server.default_query is not None
    assert server._httpd is None  # closed on the way out


def test_serve_rejects_bad_admission_config(capsys):
    code = main(["serve", "--port", "0", "--admit-burst", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_index_build_then_stats_round_trip(tmp_path, capsys):
    index_dir = str(tmp_path / "ix")
    assert main(["index", "build", "--index-dir", index_dir,
                 "--use-case", "big_three"]) == 0
    out = capsys.readouterr().out
    assert "synced big_three" in out
    assert "0 unchanged" in out

    # A second build is a pure no-op: nothing re-added, nothing touched.
    assert main(["index", "build", "--index-dir", index_dir,
                 "--use-case", "big_three"]) == 0
    out = capsys.readouterr().out
    assert "0 added" in out
    assert "0 updated" in out

    assert main(["index", "stats", "--index-dir", index_dir]) == 0
    out = capsys.readouterr().out
    assert "Documents:" in out
    assert "Dense:      no" in out


def test_index_add_update_lifecycle(tmp_path, capsys):
    index_dir = str(tmp_path / "ix")
    assert main(["index", "add", "--index-dir", index_dir,
                 "--doc-id", "note-1", "--text", "grass courts"]) == 0
    assert "note-1: added" in capsys.readouterr().out
    assert main(["index", "add", "--index-dir", index_dir,
                 "--doc-id", "note-1", "--text", "grass courts"]) == 0
    assert "note-1: unchanged" in capsys.readouterr().out
    assert main(["index", "update", "--index-dir", index_dir,
                 "--doc-id", "note-1", "--text", "clay courts"]) == 0
    assert "note-1: updated" in capsys.readouterr().out


def test_index_add_requires_doc_fields(tmp_path, capsys):
    code = main(["index", "add", "--index-dir", str(tmp_path / "ix")])
    assert code == 2
    assert "requires --doc-id and --text" in capsys.readouterr().err


def test_index_update_unknown_doc_is_an_error(tmp_path, capsys):
    code = main(["index", "update", "--index-dir", str(tmp_path / "ix"),
                 "--doc-id", "ghost", "--text", "boo"])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_index_stats_on_missing_db_is_an_error(tmp_path, capsys):
    code = main(["index", "stats", "--index-dir", str(tmp_path / "nowhere")])
    assert code == 2
    assert "no index database" in capsys.readouterr().err
    assert not (tmp_path / "nowhere").exists()


def test_ask_with_persistent_index(tmp_path, capsys):
    index_dir = str(tmp_path / "ix")
    assert main(["ask", "--use-case", "big_three",
                 "--index-dir", index_dir]) == 0
    out = capsys.readouterr().out
    assert "Roger Federer" in out
    # The corpus got synced into the persistent index as a side effect.
    assert main(["index", "stats", "--index-dir", index_dir]) == 0
    assert "Documents:  4" in capsys.readouterr().out


def test_ask_hybrid_retrieval_flags(tmp_path, capsys):
    code = main(["ask", "--use-case", "big_three",
                 "--index-dir", str(tmp_path / "ix"),
                 "--retrieval-mode", "hybrid",
                 "--fusion", "rrf", "--hybrid-alpha", "0.7"])
    assert code == 0
    assert "Answer:" in capsys.readouterr().out


def test_retrieval_mode_without_index_dir_rejected(capsys):
    code = main(["ask", "--use-case", "big_three",
                 "--retrieval-mode", "dense"])
    assert code == 2
    assert "index_dir" in capsys.readouterr().err


def test_fusion_flag_inert_without_hybrid_mode(tmp_path, capsys):
    code = main(["ask", "--use-case", "big_three",
                 "--index-dir", str(tmp_path / "ix"),
                 "--fusion", "rrf"])
    assert code == 2
    assert "hybrid" in capsys.readouterr().err
