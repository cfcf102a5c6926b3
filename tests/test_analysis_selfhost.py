"""Self-hosting: the analysis suite runs clean on this repository.

The engine's acceptance bar — every true positive it surfaced has been
fixed (or carries a justified inline suppression), and it keeps this
tree clean going forward.  ``rage lint`` / CI run the same scan.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

REPO = Path(__file__).resolve().parents[1]
SCANNED = ["src", "tests", "benchmarks"]


@pytest.fixture(scope="module")
def repo_result():
    return analyze_paths(SCANNED, root=REPO)


def test_repo_has_zero_findings(repo_result):
    assert [f.render() for f in repo_result.findings] == []


def test_scan_actually_covered_the_tree(repo_result):
    # Guards against a layout change silently emptying the scan.
    assert repo_result.files > 150


def test_deliberate_exceptions_are_inline_suppressed(repo_result):
    # The tree has no deliberate exception left to suppress: the
    # in-process models have no async twins that answer inline.
    assert repo_result.suppressed == 0
