"""The analysis engine: collect files, run checkers, fold suppressions.

:func:`analyze_paths` is the CLI's workhorse; :func:`analyze_source` /
:func:`analyze_sources` check in-memory snippets (the fixture tests'
entry points).  All return findings **after** inline suppressions.

Two phases per run:

1. **per-file** — every file-scoped checker over every file.  With
   ``jobs > 1`` this phase fans out across a process pool: workers
   return plain picklable ``(findings, suppressed, module summary)``
   triples, and because results are merged in submission order and
   findings are sorted at the end, output is byte-identical to a
   single-process run.
2. **project** — :class:`~repro.analysis.model.ProjectChecker` rules
   run once in the parent over the :class:`~repro.analysis.graph.
   symbols.ProjectIndex` assembled from the workers' summaries.
   Inline suppressions apply through the summaries' recorded tables.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .graph.symbols import ModuleSummary, ProjectIndex, summarize
from .model import Checker, Finding, all_checkers, checkers_for_rules
from .source import SourceFile

#: Rule id for files the engine cannot parse (not a registered checker:
#: it has no "check" to run, and suppressing it would hide brokenness).
PARSE_ERROR_RULE = "parse-error"

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})

#: Below this many files the pool costs more than it saves.
MIN_FILES_FOR_POOL = 8


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


def _split_checkers(
    checkers: Sequence[Checker],
) -> Tuple[List[Checker], List[Checker]]:
    """``(file_checkers, project_checkers)`` preserving order."""
    file_checkers = [c for c in checkers if not c.project]
    project_checkers = [c for c in checkers if c.project]
    return file_checkers, project_checkers


def check_source(
    source: SourceFile, checkers: Optional[Sequence[Checker]] = None
) -> AnalysisResult:
    """Run file-scoped ``checkers`` over one file, folding suppressions.

    Project checkers in ``checkers`` are skipped — they need the whole
    index and run in :func:`analyze_paths` / :func:`analyze_sources`.
    """
    selected, _ = _split_checkers(
        list(checkers) if checkers is not None else all_checkers()
    )
    result = AnalysisResult(files=1)
    try:
        source.tree
    except SyntaxError as error:
        line = error.lineno if error.lineno is not None else 1
        result.findings.append(
            Finding(
                path=source.rel,
                line=line,
                rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {error.msg}",
            )
        )
        return result
    for checker in selected:
        if not checker.applies(source):
            continue
        for finding in checker.check(source):
            if source.suppressed(finding.rule, finding.line):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    return result


def _summarize_safe(source: SourceFile) -> Optional[ModuleSummary]:
    try:
        return summarize(source)
    except SyntaxError:
        return None  # already reported as a parse-error finding


def _run_project_checkers(
    project_checkers: Sequence[Checker],
    summaries: List[ModuleSummary],
    total: AnalysisResult,
) -> None:
    """Phase 2: whole-program rules over the assembled index."""
    if not project_checkers:
        return
    index = ProjectIndex(summaries)
    for checker in project_checkers:
        for finding in checker.check_project(index):
            if index.suppressed(finding.path, finding.rule, finding.line):
                total.suppressed += 1
            else:
                total.findings.append(finding)


def _scan_worker(
    task: Tuple[str, str, Optional[List[str]], bool]
) -> Tuple[List[Finding], int, Optional[ModuleSummary]]:
    """One file scan, shaped for ``ProcessPoolExecutor.map``.

    Takes only picklable primitives (checker instances may not cross
    the process boundary — rule ids are re-resolved from the registry
    the worker builds by import) and returns only picklable results.
    """
    path_str, rel, rules, need_summary = task
    source = SourceFile.read(Path(path_str), rel)
    selected = checkers_for_rules(rules) if rules is not None else None
    result = check_source(source, selected)
    summary = _summarize_safe(source) if need_summary else None
    return result.findings, result.suppressed, summary


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
    selected = list(checkers) if checkers is not None else all_checkers()
    file_checkers, project_checkers = _split_checkers(selected)
    total = AnalysisResult()
    summaries: List[ModuleSummary] = []
    for rel, text in items:
        source = SourceFile(rel, text)
        result = check_source(source, file_checkers)
        total.findings.extend(result.findings)
        total.suppressed += result.suppressed
        total.files += 1
        if project_checkers:
            summary = _summarize_safe(source)
            if summary is not None:
                summaries.append(summary)
    _run_project_checkers(project_checkers, summaries, total)
    total.findings.sort()
    return total


def analyze_paths(
    paths: Sequence[str],
    root: Optional[Path] = None,
    checkers: Optional[Sequence[Checker]] = None,
    jobs: int = 1,
) -> AnalysisResult:
    """Analyze every Python file under ``paths`` (repo-relative).

    ``jobs`` > 1 fans the per-file phase out across a process pool
    (skipped below :data:`MIN_FILES_FOR_POOL` files, where fork/import
    overhead dominates).  Findings are merged in submission order and
    sorted, so output does not depend on ``jobs``.
    """
    base = (root or Path.cwd()).resolve()
    selected = list(checkers) if checkers is not None else all_checkers()
    _, project_checkers = _split_checkers(selected)
    rules = [c.rule for c in selected] if checkers is not None else None
    need_summary = bool(project_checkers)
    tasks = [
        (str(path), _relative(path, base), rules, need_summary)
        for path in iter_python_files([Path(p) for p in paths], base)
    ]
    effective_jobs = max(1, jobs)
    if effective_jobs > 1 and len(tasks) >= MIN_FILES_FOR_POOL:
        chunk = max(1, len(tasks) // (effective_jobs * 4))
        with ProcessPoolExecutor(max_workers=effective_jobs) as pool:
            outcomes = list(pool.map(_scan_worker, tasks, chunksize=chunk))
    else:
        outcomes = [_scan_worker(task) for task in tasks]
    total = AnalysisResult()
    summaries: List[ModuleSummary] = []
    for findings, suppressed, summary in outcomes:
        total.findings.extend(findings)
        total.suppressed += suppressed
        total.files += 1
        if summary is not None:
            summaries.append(summary)
    _run_project_checkers(project_checkers, summaries, total)
    total.findings.sort()
    return total
