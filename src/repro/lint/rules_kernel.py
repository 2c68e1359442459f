"""Kernel cache-coherence rules: RPR001 and RPR002.

The :mod:`repro.graphs.kernel` caching contract (see its module
docstring) has two obligations these rules check mechanically:

* **RPR001** — a graph that reaches a function from outside (parameter,
  attribute, subscript, loop element) may already have a cached
  :class:`~repro.graphs.kernel.GraphKernel`; mutating it
  (``add_edge``/``remove_node``/...) without ``invalidate_kernel(g)``
  on every path to function exit leaves that kernel silently stale.
  Locally constructed graphs (``nx.Graph()``, ``graph.copy()``, factory
  calls — "constructors that never leak a cached kernel") are exempt:
  a fresh object cannot have a cached kernel yet.

* **RPR002** — no module-level ``weakref.WeakKeyDictionary`` besides
  the kernel cache itself (``_KERNELS``, suppressed inline).  Per-graph
  derived results belong in ``kernel_for(graph).memo``, which
  ``invalidate_kernel`` drops with the kernel; a side cache keyed by
  graphs outlives that call and serves stale values after a mutation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext, call_tail, expr_text
from repro.lint.findings import Finding

#: nx.Graph mutation methods that change topology (graph-specific names
#: only — generic container methods like ``add``/``update`` stay out so
#: sets and dicts never trip the rule).
GRAPH_MUTATORS = {
    "add_edge",
    "add_edges_from",
    "add_weighted_edges_from",
    "add_node",
    "add_nodes_from",
    "remove_edge",
    "remove_edges_from",
    "remove_node",
    "remove_nodes_from",
    "clear_edges",
}


class MutationWithoutInvalidateRule:
    """RPR001: foreign-graph mutation with no ``invalidate_kernel`` path."""

    rule = "RPR001"
    summary = "graph mutation without invalidate_kernel on a path to exit"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from self._check_body(module, module.tree.body)

    def _check_body(
        self, module: ModuleContext, body: list, fresh: set[str] | None = None
    ) -> Iterator[Finding]:
        """Check every function directly inside ``body`` (module or class)."""
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, fresh)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_body(module, node.body, fresh)

    def _check_function(
        self,
        module: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        enclosing_fresh: set[str] | None = None,
    ) -> Iterator[Finding]:
        flow = _MutationFlow(func, enclosing_fresh)
        flow.scan_block(func.body)
        flow.record_exit()  # the implicit return at the end of the body
        # Nested functions close over the enclosing frame: names proven
        # fresh at the point of definition stay fresh inside the closure
        # (a local constructor's helper is not mutating a foreign graph).
        for nested, fresh_at_def in flow.nested:
            yield from self._check_function(module, nested, fresh_at_def)
        for key, (line, col, method) in sorted(flow.findings.items()):
            receiver, _ = key
            yield Finding(
                path=module.path,
                line=line,
                col=col,
                rule=self.rule,
                message=(
                    f"graph {receiver!r} is mutated ({method}) in "
                    f"{func.name!r} with no invalidate_kernel({receiver}) on "
                    f"every path to exit; a cached GraphKernel would go stale "
                    f"(build the graph locally, or invalidate after mutating)"
                ),
            )


class _MutationFlow:
    """Per-function forward scan tracking fresh graphs and dirty mutations.

    ``fresh`` holds textual receiver keys proven locally constructed
    (any call result, literal, or alias of one).  ``dirty`` maps a
    receiver key to its first unexcused mutation site; reaching a
    function exit (return/raise/fall-through) with a non-empty ``dirty``
    promotes those sites to findings.  Branches fork copies and merge
    with union-dirty / intersection-fresh, which is exactly the "on
    every path" approximation: an ``invalidate_kernel`` inside only one
    branch does not clear the other.
    """

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        enclosing_fresh: set[str] | None = None,
    ):
        args = func.args
        self.params = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        if args.vararg is not None:
            self.params.add(args.vararg.arg)
        if args.kwarg is not None:
            self.params.add(args.kwarg.arg)
        self.fresh: set[str] = (enclosing_fresh or set()) - self.params
        self.nested: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, set[str]]] = []
        self.dirty: dict[tuple[str, int], tuple[int, int, str]] = {}
        self.findings: dict[tuple[str, int], tuple[int, int, str]] = {}

    # -- freshness ----------------------------------------------------------

    def _is_fresh_value(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Call):
            # Constructor/factory/copy results are fresh objects: they
            # cannot be in the kernel cache before this function runs.
            return True
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.Constant)):
            return True
        if isinstance(value, ast.Name):
            return value.id in self.fresh and value.id not in self.params
        return False

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        is_fresh = self._is_fresh_value(value)
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value)
            return
        key = expr_text(target)
        if is_fresh:
            self.fresh.add(key)
        else:
            self.fresh.discard(key)

    # -- statement walk -----------------------------------------------------

    def scan_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.scan_stmt(stmt)

    def scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Separate scope — queued for its own check, seeded with the
            # names fresh at this definition point (closure semantics).
            self.nested.append((stmt, set(self.fresh)))
            return
        if isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                self.scan_stmt(inner)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_calls(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_calls(stmt.value)
                self._bind(stmt.target, stmt.value)
            return
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                self._scan_calls(stmt.value)
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self._scan_calls(stmt.exc)
            self.record_exit()
            self.dirty.clear()  # statements after this point are a new path
            return
        if isinstance(stmt, ast.If):
            self._scan_calls(stmt.test)
            self._scan_branches([stmt.body, stmt.orelse])
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_calls(stmt.iter)
            self._bind(stmt.target, stmt.iter)  # loop elements are foreign
            self._scan_branches([stmt.body, stmt.orelse])
            return
        if isinstance(stmt, ast.While):
            self._scan_calls(stmt.test)
            self._scan_branches([stmt.body, stmt.orelse])
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_calls(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, item.context_expr)
            self.scan_block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            branches = [stmt.body]
            branches.extend(handler.body for handler in stmt.handlers)
            self._scan_branches(branches)
            self.scan_block(stmt.orelse)
            self.scan_block(stmt.finalbody)
            return
        # Expression statements and everything else: look for calls.
        for child in ast.walk(stmt):
            if isinstance(child, ast.Call):
                self._handle_call(child)

    def _scan_branches(self, branches: list[list[ast.stmt]]) -> None:
        entry_fresh = set(self.fresh)
        entry_dirty = dict(self.dirty)
        merged_fresh: set[str] | None = None
        merged_dirty: dict = {}
        for body in branches:
            self.fresh = set(entry_fresh)
            self.dirty = dict(entry_dirty)
            self.scan_block(body)
            merged_fresh = (
                set(self.fresh) if merged_fresh is None else merged_fresh & self.fresh
            )
            merged_dirty.update(self.dirty)
        self.fresh = merged_fresh if merged_fresh is not None else entry_fresh
        self.dirty = merged_dirty

    def _scan_calls(self, expr: ast.expr) -> None:
        for child in ast.walk(expr):
            if isinstance(child, ast.Call):
                self._handle_call(child)

    def _handle_call(self, call: ast.Call) -> None:
        tail = call_tail(call)
        if tail == "invalidate_kernel" and len(call.args) == 1:
            cleared = expr_text(call.args[0])
            for key in [k for k in self.dirty if k[0] == cleared]:
                del self.dirty[key]
            return
        if (
            tail in GRAPH_MUTATORS
            and isinstance(call.func, ast.Attribute)
        ):
            receiver = call.func.value
            key = expr_text(receiver)
            if key in self.fresh:
                return
            if isinstance(receiver, ast.Call):
                return  # e.g. graph.copy().add_edge(...) — fresh receiver
            site = (key, call.lineno)
            self.dirty.setdefault(site, (call.lineno, call.col_offset, tail))

    def record_exit(self) -> None:
        """Promote everything dirty on this path to findings."""
        self.findings.update(self.dirty)


class ModuleWeakCacheRule:
    """RPR002: module-level graph-keyed cache outside the kernel memo."""

    rule = "RPR002"
    summary = "module-level WeakKeyDictionary cache (use kernel_for(graph).memo)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
            else:
                continue
            if isinstance(target, ast.Name) and self._is_weak_cache(stmt.value):
                yield Finding(
                    path=module.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    rule=self.rule,
                    message=(
                        f"module-level WeakKeyDictionary {target.id!r}: "
                        f"invalidate_kernel() cannot clear it, so it will "
                        f"serve stale per-graph values after a mutation; "
                        f"store derived results in kernel_for(graph).memo"
                    ),
                )

    @staticmethod
    def _is_weak_cache(value: ast.expr) -> bool:
        return isinstance(value, ast.Call) and call_tail(value) == "WeakKeyDictionary"
