"""Engine-level suites: suppressions, CLI contract, wiring."""

from __future__ import annotations

import json
import textwrap
import tokenize

import pytest

from repro.analysis import analyze_paths, analyze_source, all_checkers
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import PARSE_ERROR_RULE, analyze_sources
from repro.analysis.model import checkers_for_rules
from repro.analysis.source import SourceFile
from repro.app.cli import main as rage_main
from repro.errors import ConfigError

LIB = "src/repro/llm/snippet.py"

#: A library fixture that trips error-taxonomy exactly once.
BAD_SNIPPET = """\
def check(n):
    if n < 0:
        raise ValueError("bad n")
    return n
"""


def _write_pkg(root, text=BAD_SNIPPET):
    target = root / "src" / "repro" / "llm"
    target.mkdir(parents=True)
    (target / "snippet.py").write_text(text, encoding="utf-8")
    return target / "snippet.py"


# ---------------------------------------------------------------------------
# Suppression parsing


def test_trailing_suppression_silences_only_named_rule():
    source = SourceFile(
        LIB,
        'def f():\n    raise ValueError("x")  # repro: disable=error-taxonomy\n',
    )
    assert source.suppressed("error-taxonomy", 2)
    assert not source.suppressed("lock-discipline", 2)
    assert not source.suppressed("error-taxonomy", 1)


def test_standalone_suppression_guards_next_code_line():
    source = SourceFile(
        LIB,
        textwrap.dedent(
            """\
            def f():
                # repro: disable=error-taxonomy -- spans a comment
                # (justification continues here)
                raise ValueError("x")
            """
        ),
    )
    assert source.suppressed("error-taxonomy", 4)
    assert not source.suppressed("error-taxonomy", 2)


def test_disable_all_and_comma_lists():
    source = SourceFile(
        LIB,
        "x = 1  # repro: disable=all\n"
        "y = 2  # repro: disable=error-taxonomy, determinism\n",
    )
    assert source.suppressed("anything", 1)
    assert source.suppressed("determinism", 2)
    assert not source.suppressed("lock-discipline", 2)


def test_file_without_directive_is_not_tokenized(monkeypatch):
    def no_tokenizing(readline):
        raise AssertionError("tokenized a file that holds no directive")

    monkeypatch.setattr(tokenize, "generate_tokens", no_tokenizing)
    source = SourceFile(LIB, 'def f():\n    raise ValueError("x")  # plain\n')
    assert source.suppressions == {}
    result = analyze_source(source.text, rel=LIB)
    assert [f.rule for f in result.findings] == ["error-taxonomy"]
    assert result.suppressed == 0


def test_directive_in_a_string_is_not_a_suppression():
    # The text matches the directive pattern, so the file is tokenized;
    # only a comment token suppresses.
    source = SourceFile(LIB, 'x = "# repro: disable=all"\ny = 1\n')
    assert source.suppressions == {}


def test_suppressed_findings_are_counted_not_reported():
    result = analyze_source(
        'def f():\n    raise ValueError("x")  # repro: disable=error-taxonomy\n',
        rel=LIB,
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# Parse failures


def test_unparsable_file_yields_parse_error_finding():
    result = analyze_source("def broken(:\n", rel=LIB)
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.rule == PARSE_ERROR_RULE
    assert finding.line == 1


# ---------------------------------------------------------------------------
# CLI contract (exit codes: 0 clean, 1 findings, 2 config errors)


def test_cli_reports_findings_with_exit_1(tmp_path, capsys):
    _write_pkg(tmp_path)
    code = lint_main(["--root", str(tmp_path), "src"])
    out = capsys.readouterr().out
    assert code == 1
    assert "src/repro/llm/snippet.py:3: [error-taxonomy]" in out


def test_cli_clean_run_exits_0(tmp_path, capsys):
    _write_pkg(tmp_path, text="def fine():\n    return 1\n")
    code = lint_main(["--root", str(tmp_path), "src"])
    assert code == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_cli_json_report_schema(tmp_path, capsys):
    _write_pkg(tmp_path)
    report_path = tmp_path / "report.json"
    code = lint_main(
        ["--root", str(tmp_path), "src", "--json", "--output", str(report_path)]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert payload["counts"]["reported"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "error-taxonomy"
    assert finding["path"] == "src/repro/llm/snippet.py"
    assert finding["line"] == 3
    assert finding["severity"] == "error"


def test_cli_missing_path_exits_2(tmp_path, capsys):
    assert lint_main(["--root", str(tmp_path), "no-such-dir"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_has_no_jobs_option(tmp_path, capsys):
    _write_pkg(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        lint_main(["--root", str(tmp_path), "src", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_cli_unknown_rule_exits_2(tmp_path, capsys):
    _write_pkg(tmp_path)
    assert lint_main(["--root", str(tmp_path), "src", "--rule", "bogus"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_rule_selection_limits_checkers(tmp_path, capsys):
    _write_pkg(tmp_path)
    code = lint_main(["--root", str(tmp_path), "src", "--rule", "determinism"])
    assert code == 0  # the taxonomy violation is out of selection
    capsys.readouterr()


def test_cli_list_rules_names_all_nine(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "lock-discipline",
        "leaked-resource",
        "lock-order",
        "held-call",
        "async-hygiene",
        "error-taxonomy",
        "test-network-isolation",
        "determinism",
        "swallowed-error",
    ):
        assert rule in out


# ---------------------------------------------------------------------------
# Registry and wiring


def test_registry_has_nine_rules_sorted():
    rules = [checker.rule for checker in all_checkers()]
    assert rules == sorted(rules)
    assert len(rules) == 9


def test_checkers_for_rules_rejects_unknown():
    with pytest.raises(ConfigError):
        checkers_for_rules(["not-a-rule"])


def test_rage_lint_subcommand_is_wired(tmp_path, capsys):
    _write_pkg(tmp_path)
    code = rage_main(["lint", "--root", str(tmp_path), "src"])
    assert code == 1
    assert "[error-taxonomy]" in capsys.readouterr().out


def test_analyze_paths_deduplicates_overlapping_paths(tmp_path):
    _write_pkg(tmp_path)
    result = analyze_paths(["src", "src/repro"], root=tmp_path)
    assert result.files == 1
    assert len(result.findings) == 1


# ---------------------------------------------------------------------------
# One pipeline: trees on disk and in-memory snippets

#: Two locks taken in both orders by two methods: one lock-order cycle,
#: reported once per edge.
CYCLE_SNIPPET = """\
import threading

class Store:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def put(self):
        with self._a:
            with self._b:
                pass

    def clear(self):
        with self._b:
            with self._a:
                pass
"""


CLEAN_TEMPLATE = """\
def fine_{n}(value):
    return value + {n}
"""

#: Trips error-taxonomy once.
DIRTY_TEMPLATE = """\
def check_{n}(value):
    if value < 0:
        raise ValueError("bad value {n}")
    return value
"""


def _write_tree(root, files):
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def _modules(count, dirty=True):
    """``count`` library modules; with ``dirty``, every odd one is dirty."""
    return {
        f"src/repro/pkg/mod_{n:02d}.py": (
            DIRTY_TEMPLATE if dirty and n % 2 else CLEAN_TEMPLATE
        ).format(n=n)
        for n in range(count)
    }


def test_cli_reports_project_findings_from_an_on_disk_tree(tmp_path, capsys):
    files = _modules(8, dirty=False)
    files["src/repro/pkg/store.py"] = CYCLE_SNIPPET
    _write_tree(tmp_path, files)
    code = lint_main(["--root", str(tmp_path), "src", "--rule", "lock-order"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("[lock-order]") == 2
    assert f"across {len(files)} files" in out


def test_json_findings_come_out_in_sorted_path_order(tmp_path, capsys):
    _write_tree(tmp_path, _modules(12))
    code = lint_main(["--root", str(tmp_path), "src", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    paths = [finding["path"] for finding in payload["findings"]]
    assert paths == sorted(paths)
    assert len(set(paths)) == 6
    assert payload["counts"]["reported"] == 6
    assert payload["files"] == 12


def test_analyze_paths_equals_analyze_sources(tmp_path):
    files = _modules(4)
    files["src/repro/pkg/store.py"] = CYCLE_SNIPPET
    files["src/repro/pkg/broken.py"] = "def broken(:\n    pass\n"
    files["src/repro/pkg/waived.py"] = (
        "def f():\n"
        "    raise ValueError('x')  # repro: disable=error-taxonomy -- fixture\n"
    )
    _write_tree(tmp_path, files)
    on_disk = analyze_paths(["src"], root=tmp_path)
    in_memory = analyze_sources(sorted(files.items()))
    assert on_disk == in_memory
    assert on_disk.files == len(files)
    assert on_disk.suppressed == 1
    rules = sorted({finding.rule for finding in on_disk.findings})
    assert rules == ["error-taxonomy", "lock-order", PARSE_ERROR_RULE]
