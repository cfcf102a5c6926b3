"""Project-wide symbol table over the :class:`SourceFile` walker.

One pass per file produces a :class:`ModuleSummary` — a plain-data
digest of everything the whole-program layer needs: classes with their
bases, lock attributes and attribute types; functions with per-call-site
facts (what is called, on which line, which locks are lexically held at
that moment, whether the call sits on a cleanup path); acquisition
sites; resource claims.  A summary holds no AST, so the engine drops
each file's tree once its summary is taken, and :class:`ProjectIndex`
stitches the summaries into one project-wide view.

Identity conventions
--------------------
* modules are dotted names (``repro.llm.cache``), derived from the
  repo-relative path;
* classes and functions are qualified by module:
  ``repro.llm.cache.CachingLLM`` /
  ``repro.llm.cache.CachingLLM.generate``; module-level statements are
  collected under ``<module>.<body>``;
* lock *references* are recorded symbolically (``self._lock``, a bare
  global name) and resolved to stable lock ids only once the whole
  project is assembled — the attribute may be inherited from a base
  class in another module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..source import (
    BLOCKING_CALLS,
    BLOCKING_PREFIXES,
    SourceFile,
    dotted_name,
    resolve_call_target,
)

#: Pseudo-function name holding a module's top-level statements.
MODULE_BODY = "<body>"

#: Lock factory -> kind.  ``Condition`` wraps (or aliases) a lock; a
#: ``with`` on it acquires the underlying lock.
_LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
}

#: Attribute calls that dispatch a model generation or an execution
#: backend run (real I/O at the bottom of the stack for every
#: non-simulated backend).
_MODEL_CALLS = frozenset({"generate", "generate_batch", "run"})


@dataclass(frozen=True)
class LockDecl:
    """One lock-ish attribute (or module global) declaration."""

    name: str  # attribute or global name, e.g. "_stats_lock"
    kind: str  # "lock" | "rlock" | "condition"
    line: int
    alias_of: Optional[str] = None  # Condition(self._x) aliases "_x"


@dataclass(frozen=True)
class CallSite:
    """One call expression and the lock context it runs under.

    ``form`` is how the target was spelled:

    * ``bare`` — ``helper(...)``; ``target`` is the local name;
    * ``dotted`` — ``mod.func(...)`` resolved through the import map;
      ``target`` is the canonical dotted path;
    * ``self`` — ``self.method(...)`` / ``cls.method(...)``; ``target``
      is the method name;
    * ``self_attr`` — ``self.<attr>.<method>(...)``; ``target`` is the
      method, ``attr`` the attribute whose declared type may be known.
    """

    form: str
    target: str
    line: int
    attr: str = ""
    held: Tuple[str, ...] = ()  # symbolic lock refs held at the call
    in_cleanup: bool = False  # lexically inside except/finally
    blocking: Optional[str] = None  # why this call blocks, if known


@dataclass(frozen=True)
class Acquisition:
    """``with <lock>:`` entry — which ref, where, what was already held."""

    ref: str  # "self._lock" or a bare global name
    line: int
    held: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ResourceClaim:
    """A ``reserve()``/``open()``-style claim the function must pair."""

    kind: str  # "reserve" | open-call name ("open"/"fdopen")
    line: int
    tail_trivial: bool = False  # claim-and-return: nothing left to raise


@dataclass
class FunctionSummary:
    """Everything the graph layer knows about one function."""

    name: str
    qualname: str
    module: str
    path: str
    line: int
    cls: Optional[str] = None  # owning class qualname
    is_async: bool = False
    calls: List[CallSite] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    claims: List[ResourceClaim] = field(default_factory=list)
    cleanup_releases: FrozenSet[str] = frozenset()  # "cancel"/"close" seen in cleanup


@dataclass
class ClassSummary:
    """One class: bases, lock attributes, typed attributes, methods."""

    name: str
    qualname: str
    module: str
    path: str
    line: int
    bases: Tuple[str, ...] = ()  # resolved dotted names where possible
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class ModuleSummary:
    """Plain-data digest of one file for the whole-program layer."""

    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    module_locks: Dict[str, LockDecl] = field(default_factory=dict)
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# extraction


def _annotation_class(node: Optional[ast.AST], imports: Dict[str, str]) -> Optional[str]:
    """Dotted class name an annotation pins, unwrapping ``Optional[...]``."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        outer = dotted_name(node.value)
        if outer in ("Optional", "typing.Optional"):
            return _annotation_class(node.slice, imports)
        return None
    name = dotted_name(node)
    if name is None or name in ("None", "object"):
        return None
    root, _, rest = name.partition(".")
    resolved = imports.get(root, root)
    return f"{resolved}.{rest}" if rest else resolved


def _constructed_class(value: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The class a ``Foo(...)`` construction binds, if plausible.

    Conditional expressions (``X() if flag else None``) unwrap to their
    construction arm; anything else non-call resolves to nothing.
    """
    if isinstance(value, ast.IfExp):
        return _constructed_class(value.body, imports) or _constructed_class(
            value.orelse, imports
        )
    if not isinstance(value, ast.Call):
        return None
    target = resolve_call_target(value, imports)
    if target is None or target in _LOCK_FACTORIES:
        return None
    # Heuristic: constructor names are CapWords; helper calls are not.
    last = target.rsplit(".", 1)[-1]
    if not last[:1].isupper():
        return None
    return target


def _lock_decl(
    name: str, value: ast.AST, line: int, imports: Dict[str, str]
) -> Optional[LockDecl]:
    """A :class:`LockDecl` if ``value`` constructs (or aliases) a lock."""
    if not isinstance(value, ast.Call):
        return None
    target = resolve_call_target(value, imports)
    kind = _LOCK_FACTORIES.get(target or "")
    if kind is None:
        return None
    alias = None
    if kind == "condition" and value.args:
        arg = dotted_name(value.args[0])
        if arg is not None and arg.startswith("self."):
            alias = arg.split(".", 2)[1]
    return LockDecl(name=name, kind=kind, line=line, alias_of=alias)


class _FunctionWalker:
    """Walk one function body tracking held locks and cleanup scope."""

    def __init__(self, summary: FunctionSummary, imports: Dict[str, str]) -> None:
        self.summary = summary
        self.imports = imports
        self._managed_opens: Set[int] = set()

    def walk(self, body: List[ast.stmt]) -> None:
        self._mark_managed(body)
        for stmt in body:
            self._walk_node(stmt, held=(), in_cleanup=False)
        self._collect_claims(body)

    # -- with-managed open() calls ----------------------------------------

    def _mark_managed(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        expr = item.context_expr
                        self._managed_opens.add(id(expr))
                        if isinstance(expr, ast.Call):  # closing(open(...))
                            for arg in expr.args:
                                self._managed_opens.add(id(arg))

    # -- main recursive walk ----------------------------------------------

    def _walk_node(
        self, node: ast.AST, held: Tuple[str, ...], in_cleanup: bool
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are their own summaries
        if isinstance(node, (ast.With, ast.AsyncWith)):
            refs = list(held)
            for item in node.items:
                ref = self._lock_ref(item.context_expr)
                if ref is not None:
                    self.summary.acquisitions.append(
                        Acquisition(ref=ref, line=node.lineno, held=tuple(refs))
                    )
                    refs.append(ref)
                else:
                    self._walk_node(item.context_expr, tuple(refs), in_cleanup)
            for stmt in node.body:
                self._walk_node(stmt, tuple(refs), in_cleanup)
            return
        if isinstance(node, ast.Try):
            for stmt in node.body + node.orelse:
                self._walk_node(stmt, held, in_cleanup)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._walk_node(stmt, held, in_cleanup=True)
            for stmt in node.finalbody:
                self._walk_node(stmt, held, in_cleanup=True)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, held, in_cleanup)
            for child in ast.iter_child_nodes(node):
                self._walk_node(child, held, in_cleanup)
            return
        for child in ast.iter_child_nodes(node):
            self._walk_node(child, held, in_cleanup)

    def _lock_ref(self, expr: ast.AST) -> Optional[str]:
        """Symbolic lock ref for a ``with`` context expression.

        Plain names, ``self.<attr>`` chains, and imported-module
        attributes (``with other_mod.LOCK:``) qualify — calls
        (``with open(...)``, ``with self._track(...)``) construct fresh
        context managers and are never lock references.  Non-lock refs
        are harmless: resolution against the registry drops them.
        """
        name = dotted_name(expr)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2:
            return f"self.{parts[1]}"
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2 and parts[0] in self.imports:
            # A module-level lock reached through its module: emit the
            # fully qualified id so resolution is import-alias aware.
            return f"{self.imports[parts[0]]}.{parts[1]}"
        return None

    # -- calls -------------------------------------------------------------

    def _visit_call(
        self, call: ast.Call, held: Tuple[str, ...], in_cleanup: bool
    ) -> None:
        site = self._classify(call, held, in_cleanup)
        if site is not None:
            self.summary.calls.append(site)

    def _classify(
        self, call: ast.Call, held: Tuple[str, ...], in_cleanup: bool
    ) -> Optional[CallSite]:
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        blocking = self._blocking_reason(call, name, held)
        if parts[0] in ("self", "cls"):
            if len(parts) == 2:
                return CallSite(
                    form="self",
                    target=parts[1],
                    line=call.lineno,
                    held=held,
                    in_cleanup=in_cleanup,
                    blocking=blocking,
                )
            if len(parts) == 3:
                return CallSite(
                    form="self_attr",
                    target=parts[2],
                    attr=parts[1],
                    line=call.lineno,
                    held=held,
                    in_cleanup=in_cleanup,
                    blocking=blocking,
                )
            return None
        resolved = resolve_call_target(call, self.imports)
        if resolved is None:
            return None
        form = "dotted" if "." in resolved else "bare"
        return CallSite(
            form=form,
            target=resolved,
            line=call.lineno,
            held=held,
            in_cleanup=in_cleanup,
            blocking=blocking,
        )

    def _blocking_reason(
        self, call: ast.Call, raw_name: str, held: Tuple[str, ...]
    ) -> Optional[str]:
        """Why this call blocks the thread, if the target is known to."""
        resolved = resolve_call_target(call, self.imports)
        if resolved is not None:
            if resolved in BLOCKING_CALLS:
                return f"`{resolved}(...)` sleeps"
            if resolved.startswith(BLOCKING_PREFIXES):
                return f"`{resolved}(...)` performs synchronous network I/O"
        parts = raw_name.split(".")
        if len(parts) >= 2 and parts[-1] in _MODEL_CALLS:
            return f"`.{parts[-1]}(...)` dispatches a generation/backend run"
        if parts[-1] == "wait" and not self._waits_on_held(parts, held):
            # Condition.wait on the held lock *releases* it while
            # parked — that is the one blessed blocking-while-holding
            # shape, so only waits on *other* objects count.
            return f"`{raw_name}(...)` parks the thread until settled"
        return None

    @staticmethod
    def _waits_on_held(parts: List[str], held: Tuple[str, ...]) -> bool:
        if parts[0] in ("self", "cls") and len(parts) == 3:
            return f"self.{parts[1]}" in held
        if len(parts) == 2:
            return parts[0] in held
        return False

    # -- resource claims ----------------------------------------------------

    def _collect_claims(self, body: List[ast.stmt]) -> None:
        releases: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                claim = self._claim_kind(node)
                if claim is not None:
                    self.summary.claims.append(
                        ResourceClaim(
                            kind=claim,
                            line=node.lineno,
                            tail_trivial=self._tail_trivial(body, node),
                        )
                    )
        for site in self.summary.calls:
            leaf = site.target.rsplit(".", 1)[-1]
            if site.in_cleanup and leaf in ("cancel", "close"):
                releases.add(leaf)
        self.summary.cleanup_releases = frozenset(releases)

    def _claim_kind(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "reserve"
            and not call.args
            and not call.keywords
        ):
            return "reserve"
        if isinstance(func, ast.Name) and func.id in ("open", "fdopen"):
            if id(call) not in self._managed_opens:
                return func.id
            return None
        if isinstance(func, ast.Attribute) and func.attr in ("open", "fdopen"):
            # os.open returns a raw fd, not a context manager — it
            # cannot appear in a `with`, so flagging it is noise.
            value = func.value
            if func.attr == "open" and isinstance(value, ast.Name) and value.id == "os":
                return None
            if id(call) not in self._managed_opens:
                return func.attr
        return None

    @staticmethod
    def _tail_trivial(body: List[ast.stmt], call: ast.AST) -> bool:
        """Claim-and-return: no statement after the claim can raise."""
        enclosing = None
        for stmt in body:
            if any(child is call for child in ast.walk(stmt)):
                enclosing = stmt
                break
        if enclosing is None:
            return False  # nested inside try/if/loop: be conservative
        tail = body[body.index(enclosing) + 1 :]
        for later in tail:
            if isinstance(later, ast.Pass):
                continue
            if isinstance(later, ast.Return) and (
                later.value is None
                or isinstance(later.value, (ast.Name, ast.Constant))
            ):
                continue
            return False
        return True


def summarize(source: SourceFile) -> ModuleSummary:
    """Extract the whole-program summary for one parsed file."""
    module = source.module_name
    imports = source.import_map
    summary = ModuleSummary(
        module=module, path=source.rel, suppressions=dict(source.suppressions)
    )
    _summarize_scope(
        source.tree.body, module, source.rel, imports, summary, cls=None
    )
    # Module-level statements (outside any def/class) form a pseudo-
    # function so module-scope `with LOCK:` blocks and bare `open()`
    # calls take part in the same analyses.
    top = FunctionSummary(
        name=MODULE_BODY,
        qualname=f"{module}.{MODULE_BODY}",
        module=module,
        path=source.rel,
        line=1,
    )
    walker = _FunctionWalker(top, imports)
    walker.walk(
        [
            stmt
            for stmt in source.tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
    )
    if top.calls or top.acquisitions or top.claims:
        summary.functions[top.qualname] = top
    for stmt in source.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    decl = _lock_decl(target.id, stmt.value, stmt.lineno, imports)
                    if decl is not None:
                        summary.module_locks[target.id] = decl
    return summary


def _summarize_scope(
    body: List[ast.stmt],
    module: str,
    path: str,
    imports: Dict[str, str],
    summary: ModuleSummary,
    cls: Optional[ClassSummary],
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            class_summary = _summarize_class(stmt, module, path, imports, summary)
            summary.classes[class_summary.qualname] = class_summary
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = _summarize_function(stmt, module, path, imports, cls)
            summary.functions[func.qualname] = func
            if cls is not None:
                cls.methods[func.name] = func.qualname


def _summarize_class(
    node: ast.ClassDef,
    module: str,
    path: str,
    imports: Dict[str, str],
    summary: ModuleSummary,
) -> ClassSummary:
    qualname = f"{module}.{node.name}"
    bases = []
    for base in node.bases:
        name = dotted_name(base)
        if name is None:
            continue
        root, _, rest = name.partition(".")
        resolved = imports.get(root, root)
        bases.append(f"{resolved}.{rest}" if rest else resolved)
    cls = ClassSummary(
        name=node.name,
        qualname=qualname,
        module=module,
        path=path,
        line=node.lineno,
        bases=tuple(bases),
    )
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):  # class-level lock attribute
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    decl = _lock_decl(target.id, stmt.value, stmt.lineno, imports)
                    if decl is not None:
                        cls.locks[target.id] = decl
    _collect_instance_attrs(node, imports, cls)
    _summarize_scope(node.body, module, path, imports, summary, cls=cls)
    # Methods of nested classes are collected by the recursive scope
    # walk; only direct methods land in ``cls.methods``.
    return cls


def _collect_instance_attrs(
    node: ast.ClassDef, imports: Dict[str, str], cls: ClassSummary
) -> None:
    """``self.x = ...`` assignments: lock declarations and typed attrs."""
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params: Dict[str, Optional[ast.AST]] = {}
        for arg in list(method.args.args) + list(method.args.kwonlyargs):
            params[arg.arg] = arg.annotation
        for stmt in ast.walk(method):
            targets: List[Tuple[str, Optional[ast.AST], Optional[ast.AST]]] = []
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        targets.append((attr, stmt.value, None))
            elif isinstance(stmt, ast.AnnAssign):
                attr = _self_attr(stmt.target)
                if attr is not None:
                    targets.append((attr, stmt.value, stmt.annotation))
            for attr, value, annotation in targets:
                decl = _lock_decl(attr, value, stmt.lineno, imports) if value else None
                if decl is not None:
                    cls.locks.setdefault(attr, decl)
                    continue
                typed = _annotation_class(annotation, imports)
                if typed is None and isinstance(value, ast.Name):
                    typed = _annotation_class(params.get(value.id), imports)
                if typed is None and value is not None:
                    typed = _constructed_class(value, imports)
                if typed is not None:
                    cls.attr_types.setdefault(attr, typed)


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _summarize_function(
    node: ast.AST,
    module: str,
    path: str,
    imports: Dict[str, str],
    cls: Optional[ClassSummary],
) -> FunctionSummary:
    qual_prefix = cls.qualname if cls is not None else module
    summary = FunctionSummary(
        name=node.name,
        qualname=f"{qual_prefix}.{node.name}",
        module=module,
        path=path,
        line=node.lineno,
        cls=cls.qualname if cls is not None else None,
        is_async=isinstance(node, ast.AsyncFunctionDef),
    )
    walker = _FunctionWalker(summary, imports)
    walker.walk(node.body)
    return summary


# ---------------------------------------------------------------------------
# the assembled project


class ProjectIndex:
    """Every module summary stitched into one queryable project view."""

    def __init__(self, modules: List[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self.suppressions: Dict[str, Dict[int, FrozenSet[str]]] = {}
        for summary in modules:
            self.modules[summary.module] = summary
            self.functions.update(summary.functions)
            self.classes.update(summary.classes)
            self.suppressions[summary.path] = summary.suppressions
        self._subclasses: Dict[str, List[str]] = {}
        for qualname, cls in self.classes.items():
            for base in cls.bases:
                resolved = self._resolve_classname(base)
                if resolved is not None:
                    self._subclasses.setdefault(resolved, []).append(qualname)

    def _resolve_classname(self, dotted: str) -> Optional[str]:
        if dotted in self.classes:
            return dotted
        return None

    def mro(self, qualname: str) -> Iterator[ClassSummary]:
        """The class and its project-known ancestors, nearest first."""
        seen: Set[str] = set()
        queue = [qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            yield cls
            queue.extend(cls.bases)

    def subclasses(self, qualname: str) -> Iterator[ClassSummary]:
        """Project-known strict subclasses (transitive), deterministic."""
        seen: Set[str] = set()
        queue = sorted(self._subclasses.get(qualname, ()))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            yield cls
            queue.extend(sorted(self._subclasses.get(current, ())))

    def suppressed(self, path: str, rule: str, line: int) -> bool:
        """Whether ``rule`` is inline-silenced at ``path:line``."""
        from ..source import ALL_RULES

        rules = self.suppressions.get(path, {}).get(line)
        return rules is not None and (rule in rules or ALL_RULES in rules)
