"""Shared AST plumbing for the built-in checkers.

Import-alias resolution (``build_import_map`` / ``resolve_call_target``
/ ``dotted_name``) lives in :mod:`repro.analysis.source` since the
whole-program layer landed — prefer ``source.import_map`` over
rebuilding the map per checker; the re-exports below keep old call
sites working.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..source import (  # noqa: F401  (re-exported shared infrastructure)
    build_import_map,
    dotted_name,
    resolve_call_target,
)


def self_attribute_root(node: ast.AST) -> Optional[str]:
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


def is_lock_factory(value: ast.AST, imports: Dict[str, str]) -> bool:
    """Whether ``value`` constructs a mutual-exclusion lock."""
    if not isinstance(value, ast.Call):
        return False
    target = resolve_call_target(value, imports)
    return target in ("threading.Lock", "threading.RLock", "Lock", "RLock")
