"""Units for the whole-program layer: symbols, call graph, lock model."""

from __future__ import annotations

import textwrap

from repro.analysis.graph import (
    CallGraph,
    LockModel,
    ProjectIndex,
    find_cycle_closing,
    find_cycles,
    summarize,
)
from repro.analysis.source import SourceFile, build_import_map, module_name_for


def index_of(*items):
    """Build a ProjectIndex from ``(rel, text)`` snippets."""
    summaries = []
    for rel, text in items:
        summaries.append(summarize(SourceFile(rel, textwrap.dedent(text))))
    return ProjectIndex(summaries)


# ---------------------------------------------------------------------------
# module names and import maps


def test_module_name_for_strips_src_and_init():
    assert module_name_for("src/repro/llm/cache.py") == "repro.llm.cache"
    assert module_name_for("src/repro/llm/__init__.py") == "repro.llm"
    assert module_name_for("tests/test_x.py") == "tests.test_x"


def test_import_map_resolves_aliases_and_relatives():
    import ast

    tree = ast.parse(
        "import random as rnd\n"
        "from time import sleep as zzz\n"
        "from .coalesce import FlightMap\n"
        "from ..core import context\n"
    )
    imports = build_import_map(tree, module="repro.llm.cache")
    assert imports["rnd"] == "random"
    assert imports["zzz"] == "time.sleep"
    assert imports["FlightMap"] == "repro.llm.coalesce.FlightMap"
    assert imports["context"] == "repro.core.context"


# ---------------------------------------------------------------------------
# extraction


STORE = """
    import threading

    class Store:
        def __init__(self):
            self._stats_lock = threading.Lock()
            self._evict_lock = threading.Lock()
            self.hits = 0

        def put(self, key):
            with self._evict_lock:
                with self._stats_lock:
                    self.hits += 1

        def helper(self):
            self.put("x")
"""


def test_summarize_records_locks_and_held_acquisitions():
    index = index_of(("src/repro/llm/store.py", STORE))
    cls = index.classes["repro.llm.store.Store"]
    assert set(cls.locks) == {"_stats_lock", "_evict_lock"}
    assert cls.locks["_stats_lock"].kind == "lock"
    put = index.functions["repro.llm.store.Store.put"]
    held = {(a.ref, a.held) for a in put.acquisitions}
    assert ("self._evict_lock", ()) in held
    assert ("self._stats_lock", ("self._evict_lock",)) in held


def test_summarize_records_module_locks_and_body():
    index = index_of(
        (
            "src/repro/llm/mod.py",
            """
            import threading

            GLOBAL_LOCK = threading.Lock()

            with GLOBAL_LOCK:
                SETUP = 1
            """,
        )
    )
    module = index.modules["repro.llm.mod"]
    assert module.module_locks["GLOBAL_LOCK"].kind == "lock"
    body = index.functions["repro.llm.mod.<body>"]
    assert [a.ref for a in body.acquisitions] == ["GLOBAL_LOCK"]


def test_summarize_condition_alias_and_blocking_reasons():
    index = index_of(
        (
            "src/repro/app/srv.py",
            """
            import threading
            import time

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._idle = threading.Condition(self._lock)

                def slow(self):
                    with self._lock:
                        time.sleep(1)
            """,
        )
    )
    cls = index.classes["repro.app.srv.Server"]
    assert cls.locks["_idle"].kind == "condition"
    assert cls.locks["_idle"].alias_of == "_lock"
    slow = index.functions["repro.app.srv.Server.slow"]
    blocking = [c for c in slow.calls if c.blocking is not None]
    assert len(blocking) == 1
    assert blocking[0].held == ("self._lock",)
    assert "sleep" in blocking[0].blocking


# ---------------------------------------------------------------------------
# call graph


def test_callgraph_resolves_bare_and_dotted_calls():
    index = index_of(
        (
            "src/repro/a.py",
            """
            from repro import b

            def caller():
                local()
                b.helper()

            def local():
                pass
            """,
        ),
        (
            "src/repro/b.py",
            """
            def helper():
                pass
            """,
        ),
    )
    graph = CallGraph(index)
    callees = graph.callees("repro.a.caller")
    assert "repro.a.local" in callees
    assert "repro.b.helper" in callees


def test_callgraph_resolves_self_dispatch_through_inheritance():
    index = index_of(
        (
            "src/repro/base.py",
            """
            class Base:
                def run(self):
                    self.step()

                def step(self):
                    pass
            """,
        ),
        (
            "src/repro/sub.py",
            """
            from repro.base import Base

            class Sub(Base):
                def step(self):
                    pass
            """,
        ),
    )
    graph = CallGraph(index)
    callees = graph.callees("repro.base.Base.run")
    # The declared method and the subclass override both participate:
    # `self` may be a Sub at runtime.
    assert callees == {"repro.base.Base.step", "repro.sub.Sub.step"}


def test_callgraph_resolves_attr_calls_through_attribute_types():
    index = index_of(
        (
            "src/repro/a.py",
            """
            from repro.b import Inner

            class Outer:
                def __init__(self, inner: Inner):
                    self.inner = inner

                def go(self):
                    self.inner.work()
            """,
        ),
        (
            "src/repro/b.py",
            """
            class Inner:
                def work(self):
                    pass
            """,
        ),
    )
    graph = CallGraph(index)
    assert graph.callees("repro.a.Outer.go") == {"repro.b.Inner.work"}


def test_callgraph_leaves_unknown_targets_unresolved():
    index = index_of(
        (
            "src/repro/a.py",
            """
            def caller(thing):
                thing.mystery()
                unknown_function()
            """,
        )
    )
    graph = CallGraph(index)
    assert graph.callees("repro.a.caller") == set()


# ---------------------------------------------------------------------------
# lock model


def test_lock_ids_name_the_defining_class():
    index = index_of(
        (
            "src/repro/base.py",
            """
            import threading

            class Base:
                def __init__(self):
                    self._lock = threading.Lock()
            """,
        ),
        (
            "src/repro/sub.py",
            """
            import threading
            from repro.base import Base

            class Sub(Base):
                def use(self):
                    with self._lock:
                        pass
            """,
        ),
    )
    model = LockModel(index)
    use = index.functions["repro.sub.Sub.use"]
    # The subclass resolves the inherited attribute to the base's id.
    assert model.resolve_ref(use, "self._lock") == "repro.base.Base._lock"


def test_condition_aliases_collapse_to_the_wrapped_lock():
    index = index_of(
        (
            "src/repro/srv.py",
            """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._idle = threading.Condition(self._lock)

                def wait_idle(self):
                    with self._idle:
                        pass
            """,
        )
    )
    model = LockModel(index)
    func = index.functions["repro.srv.Server.wait_idle"]
    assert model.resolve_ref(func, "self._idle") == "repro.srv.Server._lock"


def test_may_acquire_propagates_over_calls_with_witness_chain():
    index = index_of(
        (
            "src/repro/a.py",
            """
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    self.middle()

                def middle(self):
                    self.leaf()

                def leaf(self):
                    with self._lock:
                        pass
            """,
        )
    )
    model = LockModel(index)
    lock = "repro.a.Thing._lock"
    assert lock in model.may_acquire["repro.a.Thing.outer"]
    chain = model.witness_chain("repro.a.Thing.outer", lock)
    assert len(chain) == 3
    assert "calls repro.a.Thing.middle" in chain[0]
    assert "acquires repro.a.Thing._lock" in chain[-1]


# ---------------------------------------------------------------------------
# cycle machinery


def test_find_cycles_canonical_and_self_edges():
    edges = [("b", "a"), ("a", "b"), ("c", "c"), ("a", "c")]
    cycles = find_cycles(edges)
    assert ("c",) in cycles
    assert ("a", "b") in cycles
    # Rotations are not double-counted.
    assert ("b", "a") not in cycles


def test_find_cycle_closing_returns_shortest_witness_path():
    edges = [("a", "b"), ("b", "c")]
    # Acquiring a while holding c: a reaches c? a->b->c, so closing
    # edge c->a completes the cycle.
    path = find_cycle_closing(edges, "c", "a")
    assert path == ("a", "b", "c")
    assert find_cycle_closing(edges, "a", "b") is None
    assert find_cycle_closing(edges, "a", "a") == ("a",)
