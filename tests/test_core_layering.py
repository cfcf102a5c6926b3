"""Layering guards.

The engine is handed a model and never builds one: nothing under
``src/repro/core/`` may import the modules that construct or serve
concrete models — remote endpoints, provider pools, their transport
and the simulated model.  Those belong to the callers that build a
model (``repro.llm.factory``, the app layer) and pass it in.

The lint loads neither the engine nor NumPy: ``repro`` resolves its
exports on first access.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.source import iter_imported_modules

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = (
    "repro.llm.remote",
    "repro.llm.router",
    "repro.llm.transport",
    "repro.llm.simulated",
)


def _imports(text: str, module: str) -> set:
    """Every module ``module`` imports, relative imports resolved."""
    tree = ast.parse(text)
    package = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[: len(package) - node.level + 1]
            node.module = ".".join(base + ([node.module] if node.module else []))
            node.level = 0
    return {name for _, name in iter_imported_modules(tree)}


def _forbidden(imported: set) -> list:
    return sorted(
        name
        for name in imported
        for banned in FORBIDDEN
        if name == banned or name.startswith(banned + ".")
    )


def test_core_imports_no_model_construction_or_serving_modules():
    modules = sorted((SRC / "repro" / "core").glob("*.py"))
    assert len(modules) > 10
    offenders = {}
    for path in modules:
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        found = _forbidden(_imports(path.read_text(encoding="utf-8"), module))
        if found:
            offenders[path.name] = found
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "from ..llm.remote import RemoteLLM",
        "from ..llm import router",
        "from ..llm.transport import RetryPolicy as Policy",
        "import repro.llm.simulated",
        "from repro.llm.simulated import SimulatedLLM",
    ],
)
def test_guard_resolves_every_import_form(source):
    assert _forbidden(_imports(source, "repro.core.engine"))


def test_guard_allows_the_model_contract_and_cache():
    source = "from ..llm.base import LanguageModel\nfrom ..llm.cache import CachingLLM"
    assert _forbidden(_imports(source, "repro.core.engine")) == []


#: Run in a fresh interpreter: what importing the lint loads, then what
#: ``from repro import *`` binds.
_IMPORT_PROBE = """
import json, sys
import repro.analysis.cli
loaded = sorted(name for name in ("numpy", "repro.core") if name in sys.modules)
namespace = {}
exec("from repro import *", namespace)
import repro
unbound = [name for name in repro.__all__ if namespace.get(name, namespace) is not getattr(repro, name)]
print(json.dumps({"loaded": loaded, "unbound": unbound, "exports": len(repro.__all__)}))
"""


def test_the_lint_loads_neither_the_engine_nor_numpy():
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(probe.stdout) == {"loaded": [], "unbound": [], "exports": 20}
