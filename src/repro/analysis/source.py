"""One scanned file: text, lazily-parsed AST, and inline suppressions.

Suppression syntax
------------------
A comment anywhere on a flagged line silences named rules on it::

    self.calls += 1  # repro: disable=lock-discipline -- single-threaded by design

A *standalone* directive comment applies to the next source line (for
lines with no room left)::

    # repro: disable=async-hygiene -- pure CPU, answers inline
    return self.generate(prompt)

``disable=all`` silences every rule on the target line.  Everything
after `` -- `` is a free-form justification; project convention is
that deliberate suppressions always carry one.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

_DIRECTIVE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")

#: Rule-set value meaning "every rule".
ALL_RULES = "all"


# -- import-alias resolution (shared by every checker and the graph) -------
#
# Promoted out of ``checkers/async_hygiene.py``: any rule that matches
# calls against canonical dotted names (``random.sample``,
# ``time.sleep``, ``urllib.request.*``) must see through aliases —
# ``import random as rnd`` / ``from time import sleep as zzz`` would
# otherwise evade it.  The whole-program symbol layer
# (:mod:`repro.analysis.graph.symbols`) resolves *project* imports
# through the same map, so it also understands relative imports when
# the importing module's dotted name is known.


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/llm/cache.py`` -> ``repro.llm.cache``;
    ``tests/test_x.py`` -> ``tests.test_x``; package ``__init__.py``
    files name the package itself.
    """
    normalized = rel.replace("\\", "/")
    for prefix in ("src/",):
        if normalized.startswith(prefix):
            normalized = normalized[len(prefix):]
    if normalized.endswith(".py"):
        normalized = normalized[: -len(".py")]
    parts = [part for part in normalized.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def build_import_map(
    tree: ast.Module, module: Optional[str] = None
) -> Dict[str, str]:
    """Local name -> canonical dotted module/object it binds.

    ``import random as rnd`` maps ``rnd -> random``; ``from urllib
    import request`` maps ``request -> urllib.request``; ``from random
    import sample as s`` maps ``s -> random.sample``.  With ``module``
    (the importing module's dotted name) relative imports resolve too:
    ``from .coalesce import FlightMap`` inside ``repro.llm.cache``
    maps ``FlightMap -> repro.llm.coalesce.FlightMap``.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base: Optional[str] = None
            if node.level == 0:
                base = node.module
            elif module:
                # `from .x import y` / `from ..x import y`: climb
                # ``level`` packages up from the importing module.
                parts = module.split(".")
                if len(parts) >= node.level:
                    package = parts[: len(parts) - node.level]
                    base = ".".join(package + ([node.module] if node.module else []))
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}"
    return imports


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_target(
    call: ast.Call, imports: Dict[str, str]
) -> Optional[str]:
    """Canonical dotted name a call resolves to, through import aliases.

    ``rnd.sample(...)`` with ``import random as rnd`` resolves to
    ``random.sample``; ``s(...)`` with ``from random import sample as
    s`` resolves to ``random.sample``.  Attribute chains rooted at
    non-import names (``self.generate``) resolve with their literal
    root (``self.generate``).
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    resolved_root = imports.get(root, root)
    return f"{resolved_root}.{rest}" if rest else resolved_root


def iter_imported_modules(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, dotted module)`` for every absolute import in a module.

    ``from pkg import name`` yields both ``pkg`` and ``pkg.name`` (the
    name may itself be a submodule); relative imports are skipped —
    they stay inside the package being analyzed.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            yield node.lineno, node.module
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, f"{node.module}.{alias.name}"


# -- lint policy shared by several rules ----------------------------------

#: Canonical dotted calls that block the calling thread (the
#: ``async-hygiene`` and ``held-call`` rules both flag them).
BLOCKING_CALLS = frozenset({"time.sleep"})

#: Dotted prefixes whose calls mean synchronous network I/O.
BLOCKING_PREFIXES = ("urllib.request.", "http.client.", "socket.")


def library_path(rel: str) -> Optional[str]:
    """Path inside the ``repro`` package, or ``None`` outside it.

    Recognizes both the in-repo layout (``src/repro/...``) and a flat
    checkout (``repro/...``).
    """
    for prefix in ("src/repro/", "repro/"):
        if rel.startswith(prefix):
            return rel[len(prefix):]
    return None


def _parse_directive(comment: str) -> Optional[Set[str]]:
    """The rule ids named by a ``# repro: disable=`` comment, if any."""
    match = _DIRECTIVE.search(comment)
    if match is None:
        return None
    return {rule.strip() for rule in match.group(1).split(",") if rule.strip()}


class SourceFile:
    """A file under analysis, with layout-aware scope helpers.

    ``rel`` is the repo-relative POSIX path; checkers scope themselves
    by it (``in_tests``, ``in_fakes``, ``library_path``).  ``tree``
    parses on first use and raises ``SyntaxError`` for the engine to
    convert into a ``parse-error`` finding.
    """

    def __init__(self, rel: str, text: str, path: Optional[Path] = None) -> None:
        self.rel = rel.replace("\\", "/")
        self.text = text
        self.path = path
        self._tree: Optional[ast.Module] = None
        self._suppressions: Optional[Dict[int, FrozenSet[str]]] = None
        self._import_map: Optional[Dict[str, str]] = None

    @classmethod
    def read(cls, path: Path, rel: str) -> "SourceFile":
        """Load a file from disk (invalid UTF-8 bytes are replaced)."""
        return cls(rel, path.read_text(encoding="utf-8", errors="replace"), path)

    # -- parsing -----------------------------------------------------------

    @property
    def tree(self) -> ast.Module:
        """The parsed module (cached; ``SyntaxError`` propagates)."""
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=self.rel)
        return self._tree

    @property
    def module_name(self) -> str:
        """Dotted module name derived from ``rel`` (layout-aware)."""
        return module_name_for(self.rel)

    @property
    def import_map(self) -> Dict[str, str]:
        """Local name -> canonical dotted target, relative-import aware.

        Built once per file; every checker resolves aliased call sites
        through this one map so no rule can be evaded by
        ``import random as rnd``-style renames.
        """
        if self._import_map is None:
            self._import_map = build_import_map(self.tree, self.module_name)
        return self._import_map

    # -- layout scope ------------------------------------------------------

    @property
    def parts(self) -> List[str]:
        return self.rel.split("/")

    @property
    def in_tests(self) -> bool:
        """Test or benchmark code (the hermetic zone)."""
        return bool(self.parts) and self.parts[0] in ("tests", "benchmarks")

    @property
    def in_fakes(self) -> bool:
        """The sanctioned test-double package (may touch sockets)."""
        return self.rel.startswith("tests/fakes/")

    @property
    def library_path(self) -> Optional[str]:
        """Path inside the ``repro`` package (see :func:`library_path`)."""
        return library_path(self.rel)

    @property
    def in_library(self) -> bool:
        return self.library_path is not None

    @property
    def in_exactness_zone(self) -> bool:
        """Modules whose outputs are asserted answer-for-answer exact."""
        lib = self.library_path
        return lib is not None and (
            lib.startswith("core/")
            or lib.startswith("combinatorics/")
            or lib.startswith("retrieval/")
        )

    # -- suppressions ------------------------------------------------------

    @property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        """Line number -> rule ids silenced on that line."""
        if self._suppressions is None:
            self._suppressions = self._collect_suppressions()
        return self._suppressions

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is silenced on ``line``."""
        rules = self.suppressions.get(line)
        return rules is not None and (rule in rules or ALL_RULES in rules)

    def _collect_suppressions(self) -> Dict[int, FrozenSet[str]]:
        # Any directive comment is a substring of the text that matches
        # the directive pattern, so a file with no match needs no
        # tokenizing (most files hold none).
        if _DIRECTIVE.search(self.text) is None:
            return {}
        directives: Dict[int, Set[str]] = {}
        standalone: List[tuple] = []  # (comment line, rules)
        code_lines: Set[int] = set()
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return {}  # the engine reports the parse failure separately
        for token in tokens:
            if token.type == tokenize.COMMENT:
                rules = _parse_directive(token.string)
                if rules is None:
                    continue
                line = token.start[0]
                if line in code_lines:
                    directives.setdefault(line, set()).update(rules)
                else:
                    standalone.append((line, rules))
            elif token.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENCODING,
                tokenize.ENDMARKER,
            ):
                for line in range(token.start[0], token.end[0] + 1):
                    code_lines.add(line)
        # A standalone directive guards the next line that holds code.
        for line, rules in standalone:
            targets = [code for code in code_lines if code > line]
            if targets:
                directives.setdefault(min(targets), set()).update(rules)
        return {line: frozenset(rules) for line, rules in directives.items()}
