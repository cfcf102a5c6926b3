"""Command-line front end: ``python -m repro.analysis`` / ``rage lint``.

Exit codes follow the CLI contract: 0 clean, 1 findings, 2 usage or
configuration errors.  ``--json`` emits a machine-readable report (CI
uploads it as an artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import RageError
from .engine import AnalysisResult, analyze_paths
from .model import all_checkers, checkers_for_rules

#: Scanned when no paths are given — the self-hosting default.
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared flag definitions for ``rage lint`` and ``__main__``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit the report as JSON instead of human-readable lines",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the report (in the selected format) to FILE — "
        "CI uploads this as an artifact even when the run fails",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE_ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="repository root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def _render_human(result: AnalysisResult, reported: List) -> str:
    lines = [finding.render() for finding in reported]
    summary = (
        f"{len(reported)} finding{'s' if len(reported) != 1 else ''} "
        f"across {result.files} files "
        f"({result.suppressed} inline-suppressed)"
    )
    if not reported:
        summary = (
            f"clean: 0 findings across {result.files} files "
            f"({result.suppressed} inline-suppressed)"
        )
    lines.append(summary)
    return "\n".join(lines)


def _render_json(result: AnalysisResult, reported: List) -> str:
    payload = {
        "version": 1,
        "files": result.files,
        "counts": {
            "reported": len(reported),
            "suppressed": result.suppressed,
        },
        "findings": [finding.to_dict() for finding in reported],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit status."""
    if args.list_rules:
        for checker in all_checkers():
            print(f"{checker.rule}: {checker.description}")
        return 0
    root = Path(args.root).resolve() if args.root else Path.cwd()
    checkers = (
        checkers_for_rules(args.rule) if args.rule else None
    )
    result = analyze_paths(args.paths, root=root, checkers=checkers)
    reported = result.sorted_findings()

    rendered = (
        _render_json(result, reported)
        if args.json_output
        else _render_human(result, reported)
    )
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    return 1 if reported else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-native static analysis: concurrency, async "
        "hygiene, error taxonomy, hermeticity and determinism rules.",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_lint(args)
    except RageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
