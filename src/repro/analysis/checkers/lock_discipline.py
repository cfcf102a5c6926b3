"""``lock-discipline``: counter mutations need the instance lock.

The exact bug class PR 5 fixed three times over: a class creates
``self._lock = threading.Lock()`` (or ``_stats_lock``, ``_evict_lock``,
...) because it is shared across request threads — and then some method
bumps ``self.stats.hits += 1`` bare.  Augmented assignment is a
read-modify-write; outside the lock it loses increments under
concurrency.

The rule: in any class that *owns* a lock attribute, every augmented
assignment whose target is rooted at ``self`` must be lexically inside
``with self.<that lock>:`` (any of the class's locks).  ``__init__``
(and the other construction dunders) are exempt — the instance is not
shared yet.  Helpers documented as caller-holds-lock take an inline
``# repro: disable=lock-discipline`` with a justification.

PR 8 widened the bug class from counters to *containers*: the
single-flight registry (``self._flights[key] = latch`` /
``del self._flights[key]``) and the micro-batch window table are
exactly the shape of shared state that loses entries when mutated
bare.  So the rule also flags, outside the lock:

* subscript stores — ``self._registry[key] = value``
* subscript deletes — ``del self._registry[key]``
* mutating container calls — ``self._registry.pop(...)``,
  ``.setdefault``, ``.append``, ``.clear``, ``.update``, ... (see
  ``_MUTATORS``)

Reads stay unflagged: a racy read is a judgement call, a racy
read-modify-write is a bug.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..model import Checker, Finding, register
from ..source import SourceFile, dotted_name, resolve_call_target

#: Methods that run before the instance can be shared across threads.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__init_subclass__"}
)

#: Method names that mutate the builtin containers in place.  Calling
#: one on shared ``self.*`` state outside the lock corrupts the
#: structure (dict/deque) or silently drops entries (set/list).
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


def _self_attribute_root(node: ast.AST) -> Optional[str]:
    """For an attribute chain rooted at ``self``, the first attribute.

    ``self.stats.hits`` -> ``stats``; ``self.calls`` -> ``calls``;
    anything not rooted at ``self`` -> ``None``.
    """
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


def _is_lock_factory(value: ast.AST, imports: Dict[str, str]) -> bool:
    """Whether ``value`` constructs a mutual-exclusion lock."""
    if not isinstance(value, ast.Call):
        return False
    target = resolve_call_target(value, imports)
    return target in ("threading.Lock", "threading.RLock", "Lock", "RLock")


def _class_lock_attrs(cls: ast.ClassDef, imports) -> Set[str]:
    """Attribute names the class binds to a freshly-built lock."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _is_lock_factory(node.value, imports):
            for target in node.targets:
                attr = _self_attribute_root(target)
                if attr is not None and isinstance(target, ast.Attribute):
                    locks.add(target.attr)
                elif isinstance(target, ast.Name):
                    locks.add(target.id)  # class-level lock attribute
    return locks


def _with_holds_lock(node: ast.AST, locks: Set[str]) -> bool:
    """Whether a With/AsyncWith acquires one of the class's locks."""
    for item in getattr(node, "items", ()):
        name = dotted_name(item.context_expr)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) >= 2 and parts[0] == "self" and parts[1] in locks:
            return True
        if len(parts) == 1 and parts[0] in locks:
            return True
    return False


@register
class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = (
        "augmented assignment to and container mutation of self.* in a "
        "lock-owning class must sit inside `with <lock>:` (lost-update "
        "bug class from PR 5, widened to registries in PR 8)"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        imports = source.import_map
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                locks = _class_lock_attrs(node, imports)
                if locks:
                    findings.extend(self._check_class(source, node, locks))
        return findings

    def _check_class(
        self, source: SourceFile, cls: ast.ClassDef, locks: Set[str]
    ) -> Iterable[Finding]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _CONSTRUCTION_METHODS:
                continue
            yield from self._walk(source, method, locks, held=False)

    def _walk(
        self, source: SourceFile, node: ast.AST, locks: Set[str], held: bool
    ) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            child_held = held
            if isinstance(child, (ast.With, ast.AsyncWith)):
                child_held = held or _with_holds_lock(child, locks)
            if not child_held:
                yield from self._check_statement(source, child, locks)
            yield from self._walk(source, child, locks, child_held)

    def _check_statement(
        self, source: SourceFile, child: ast.AST, locks: Set[str]
    ) -> Iterable[Finding]:
        shown = sorted(locks)[0]
        if isinstance(child, ast.AugAssign):
            attr = _self_attribute_root(_subscript_value(child.target))
            if attr is not None:
                target = dotted_name(child.target) or f"self.{attr}"
                yield self.finding(
                    source,
                    child.lineno,
                    f"`{target} {_op(child)}= ...` outside `with "
                    f"self.{shown}:` in a lock-owning class — "
                    "read-modify-write races lose updates",
                )
        elif isinstance(child, ast.Assign):
            for target in _flat_targets(child.targets):
                if not isinstance(target, ast.Subscript):
                    continue
                attr = _self_attribute_root(target.value)
                if attr is not None:
                    yield self.finding(
                        source,
                        child.lineno,
                        f"`self.{attr}[...] = ...` outside `with "
                        f"self.{shown}:` in a lock-owning class — "
                        "racing stores corrupt the shared container",
                    )
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                attr = _self_attribute_root(target.value)
                if attr is not None:
                    yield self.finding(
                        source,
                        child.lineno,
                        f"`del self.{attr}[...]` outside `with "
                        f"self.{shown}:` in a lock-owning class — "
                        "a racing delete raises or drops a live entry",
                    )
        elif isinstance(child, ast.Call):
            func = child.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Attribute)
            ):
                attr = _self_attribute_root(func.value)
                if attr is not None:
                    yield self.finding(
                        source,
                        child.lineno,
                        f"`self.{attr}.{func.attr}(...)` outside `with "
                        f"self.{shown}:` in a lock-owning class — "
                        "in-place container mutation is not atomic",
                    )


def _flat_targets(targets: Iterable[ast.AST]) -> Iterable[ast.AST]:
    """Assignment targets with tuple/list unpacking flattened out."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat_targets(target.elts)
        else:
            yield target


def _subscript_value(node: ast.AST) -> ast.AST:
    """``self._counts[k] += 1`` mutates ``self._counts``: unwrap it."""
    return node.value if isinstance(node, ast.Subscript) else node


def _op(node: ast.AugAssign) -> str:
    return {
        ast.Add: "+",
        ast.Sub: "-",
        ast.Mult: "*",
        ast.Div: "/",
        ast.FloorDiv: "//",
        ast.Mod: "%",
        ast.Pow: "**",
        ast.BitOr: "|",
        ast.BitAnd: "&",
        ast.BitXor: "^",
        ast.LShift: "<<",
        ast.RShift: ">>",
        ast.MatMult: "@",
    }.get(type(node.op), "?")
