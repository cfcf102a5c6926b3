"""The analysis engine: collect files, run checkers, fold suppressions.

:func:`analyze_paths` is the CLI's workhorse; :func:`analyze_source` /
:func:`analyze_sources` check in-memory snippets (the fixture tests'
entry points).  All three feed the same loop and return findings
**after** inline suppressions.

Two phases per run:

1. **per-file** — every file-scoped checker over each file in turn,
   recording the file's :class:`~repro.analysis.graph.symbols.
   ModuleSummary` when a project rule is selected;
2. **project** — :class:`~repro.analysis.model.ProjectChecker` rules
   run once over the :class:`~repro.analysis.graph.symbols.
   ProjectIndex` assembled from those summaries.  Inline suppressions
   apply through the summaries' recorded tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .graph.symbols import ModuleSummary, ProjectIndex, summarize
from .model import Checker, Finding, all_checkers
from .source import SourceFile

#: Rule id for files the engine cannot parse (not a registered checker:
#: it has no "check" to run, and suppressing it would hide brokenness).
PARSE_ERROR_RULE = "parse-error"

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass
class AnalysisResult:
    """Everything one engine run learned."""

    findings: List[Finding] = field(default_factory=list)  # post-suppression
    suppressed: int = 0  # waived by inline `# repro: disable=`
    files: int = 0  # files actually scanned

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings)


def iter_python_files(paths: Sequence[Path], root: Path) -> Iterable[Path]:
    """Every ``.py`` file under ``paths``, deterministic order, deduped."""
    seen = set()
    for raw in paths:
        path = raw if raw.is_absolute() else root / raw
        if not path.exists():
            raise ConfigError(f"no such path: {raw}")
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(
                    part in _SKIPPED_DIRS or part.startswith(".")
                    for part in p.relative_to(path).parts
                )
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _check_file(
    source: SourceFile, checkers: Sequence[Checker], total: AnalysisResult
) -> bool:
    """Run file-scoped ``checkers`` over one file into ``total``.

    Returns whether the file parsed; one that does not is reported as a
    :data:`PARSE_ERROR_RULE` finding and checked no further.
    """
    total.files += 1
    try:
        source.tree
    except SyntaxError as error:
        total.findings.append(
            Finding(
                path=source.rel,
                line=error.lineno if error.lineno is not None else 1,
                rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {error.msg}",
            )
        )
        return False
    for checker in checkers:
        if not checker.applies(source):
            continue
        for finding in checker.check(source):
            if source.suppressed(finding.rule, finding.line):
                total.suppressed += 1
            else:
                total.findings.append(finding)
    return True


def _analyze(
    sources: Iterable[SourceFile], checkers: Optional[Sequence[Checker]]
) -> AnalysisResult:
    """Both phases over ``sources``, one file at a time."""
    selected = list(checkers) if checkers is not None else all_checkers()
    file_checkers = [c for c in selected if not c.project]
    project_checkers = [c for c in selected if c.project]
    total = AnalysisResult()
    summaries: List[ModuleSummary] = []
    for source in sources:
        if _check_file(source, file_checkers, total) and project_checkers:
            summaries.append(summarize(source))
    if project_checkers:
        index = ProjectIndex(summaries)
        for checker in project_checkers:
            for finding in checker.check_project(index):
                if index.suppressed(finding.path, finding.rule, finding.line):
                    total.suppressed += 1
                else:
                    total.findings.append(finding)
    total.findings.sort()
    return total


def analyze_source(
    text: str,
    rel: str = "src/repro/snippet.py",
    checkers: Optional[Sequence[Checker]] = None,
) -> AnalysisResult:
    """Analyze an in-memory snippet as if it lived at ``rel``."""
    return analyze_sources([(rel, text)], checkers=checkers)


def analyze_sources(
    items: Sequence[Tuple[str, str]],
    checkers: Optional[Sequence[Checker]] = None,
) -> AnalysisResult:
    """Analyze ``(rel, text)`` snippets as one multi-file project.

    The fixture-test entry point for whole-program rules: lock-order
    hazards only exist *between* files, so the suite hands this a
    little synthetic tree.
    """
    return _analyze((SourceFile(rel, text) for rel, text in items), checkers)


def analyze_paths(
    paths: Sequence[str],
    root: Optional[Path] = None,
    checkers: Optional[Sequence[Checker]] = None,
) -> AnalysisResult:
    """Analyze every Python file under ``paths`` (repo-relative)."""
    base = (root or Path.cwd()).resolve()
    files = list(iter_python_files([Path(p) for p in paths], base))
    return _analyze(
        (SourceFile.read(path, _relative(path, base)) for path in files),
        checkers,
    )
