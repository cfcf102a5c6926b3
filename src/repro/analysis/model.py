"""Finding model and checker registry for the static analysis engine.

A :class:`Finding` is one rule violation anchored to a file and line; a
:class:`Checker` is a class that inspects one :class:`~repro.analysis.
source.SourceFile` and yields findings for its single ``rule``.
Checkers self-register via :func:`register` at import time, so the
engine discovers them by importing :mod:`repro.analysis.checkers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Type

from ..errors import ConfigError

#: Severities, in increasing order of trouble.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where, which rule, and why it matters."""

    path: str  # repo-relative POSIX path
    line: int  # 1-based line of the offending node
    rule: str  # rule id, e.g. "lock-discipline"
    message: str
    severity: str = "error"

    def render(self) -> str:
        """``path:line: [rule] message`` — the human output line."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-report representation."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }


class Checker:
    """Base class for one lint rule.

    Subclasses set ``rule`` (the id used in output and suppressions)
    and ``description`` (one line for ``--list-rules``), then
    implement :meth:`check`.  :meth:`applies` scopes the rule to parts
    of the repository layout; the default is every scanned file.
    """

    rule: str = ""
    description: str = ""
    #: Project checkers need the assembled whole-program index; the
    #: engine runs them once per run instead of once per file.
    project: bool = False

    def applies(self, source) -> bool:
        """Whether this rule runs against ``source`` at all."""
        return True

    def check(self, source) -> Iterable[Finding]:
        """Yield findings for ``source`` (already scoped and parsed)."""
        raise NotImplementedError

    def finding(self, source, line: int, message: str) -> Finding:
        """Build a finding for this rule anchored in ``source``."""
        return Finding(
            path=source.rel, line=line, rule=self.rule, message=message
        )


class ProjectChecker(Checker):
    """Base class for whole-program rules.

    Where a :class:`Checker` sees one file, a project checker sees the
    assembled :class:`~repro.analysis.graph.symbols.ProjectIndex` —
    every scanned module's summary stitched together — and runs
    exactly once per engine run, after the per-file phase.  Inline
    suppressions still apply: the engine folds them through the
    index's recorded suppression tables.
    """

    project = True

    def check(self, source) -> Iterable[Finding]:
        """Project rules have no per-file pass."""
        return ()

    def check_project(self, index) -> Iterable[Finding]:
        """Yield findings over the whole-program index."""
        raise NotImplementedError


#: All registered checkers, keyed by rule id.
_REGISTRY: Dict[str, Checker] = {}


def register(checker_cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: instantiate and register a checker.

    Double registration of one rule id is a programming error caught
    eagerly — two checkers silently sharing an id would make
    suppressions ambiguous.
    """
    if not checker_cls.rule:
        raise ConfigError(f"checker {checker_cls.__name__} has no rule id")
    if checker_cls.rule in _REGISTRY:
        raise ConfigError(f"duplicate checker rule id {checker_cls.rule!r}")
    _REGISTRY[checker_cls.rule] = checker_cls()
    return checker_cls


def all_checkers() -> List[Checker]:
    """Every registered checker, in rule-id order (deterministic runs)."""
    # Importing the package registers the built-in checkers exactly once.
    from . import checkers  # noqa: F401

    return [_REGISTRY[rule] for rule in sorted(_REGISTRY)]


def checkers_for_rules(rules: Iterable[str]) -> List[Checker]:
    """The checkers for ``rules``; unknown ids are a ConfigError."""
    available = {checker.rule: checker for checker in all_checkers()}
    selected: List[Checker] = []
    for rule in rules:
        if rule not in available:
            known = ", ".join(sorted(available))
            raise ConfigError(f"unknown rule {rule!r} (known rules: {known})")
        selected.append(available[rule])
    return selected
