"""Determinism rules: RPR003.

Reports are byte-deterministic by contract: ``solve_many`` with
``workers=4`` must emit JSON byte-identical to a serial run, modulo the
sanctioned ``wall_time`` slots.  Four leak classes are checked, the
first two in the report-producing modules (``io``, ``cli``,
``experiments/``, ``analysis/tables``, ``api/runner``,
``api/simulation``, ``serve/``):

* iterating a ``set``/``frozenset`` (arbitrary order) straight into
  output — a ``for`` loop, comprehension, ``list()``/``tuple()``
  conversion, or ``str.join`` over a set expression must go through
  ``sorted(...)``;
* wall-clock reads (``time.time``/``perf_counter``/``datetime.now``)
  stored anywhere except the sanctioned ``wall_time``/``start`` timing
  slots;
* module-level RNG use (``random.shuffle`` et al. on the global
  generator, or ``random.Random()`` with no seed) — checked in *every*
  module, since an unseeded RNG anywhere poisons downstream reports;
* the builtin ``hash`` (called, or passed as in ``key=hash``) — also
  checked in every module: it is salted per process for ``str`` and
  ``bytes`` (``PYTHONHASHSEED``), so any ordering or tie-break built
  on it changes from run to run.  A module that binds the name
  ``hash`` itself is skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import (
    ModuleContext,
    call_tail,
    classify_set,
    dotted,
    is_set_expr,
    local_name_tags,
    walk_scope,
)
from repro.lint.findings import Finding

#: Path fragments (``/``-normalized) that mark a report-producing module.
REPORT_MODULE_MARKERS = (
    "/io.py",
    "/cli.py",
    "/experiments/",
    "/analysis/tables.py",
    "/api/runner.py",
    "/api/simulation.py",
    # The serve subsystem emits job reports whose JSON must be
    # byte-identical to the direct batch runners' output.
    "/serve/",
    # Sweep checkpoints and merged reports carry the same byte-identity
    # contract as the batch runners they shard.
    "/sweep/",
    # Adversarial plans and schedulers feed suspicion/degradation tallies
    # straight into SimReports, so set-iteration order leaks into output.
    "/local_model/adversary.py",
    "/local_model/schedulers.py",
)

_TIME_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_CONVERTERS = {"list", "tuple", "enumerate", "iter"}

#: Assignment targets a wall-clock read may land in.
_SANCTIONED_TIME_NAMES = ("wall", "start", "elapsed", "t0", "deadline")


def is_report_module(path: str) -> bool:
    normalized = "/" + path.replace("\\", "/").lstrip("/")
    return any(marker in normalized for marker in REPORT_MODULE_MARKERS)


class NondeterminismRule:
    """RPR003: nondeterministic ordering/time/RNG feeding report output."""

    rule = "RPR003"
    summary = "nondeterminism leak in a report-producing module"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from self._check_unseeded_random(module)
        yield from self._check_builtin_hash(module)
        if not is_report_module(module.path):
            return
        for scope in module.scopes():
            yield from self._check_set_iteration(module, scope)
        yield from self._check_time_calls(module)

    # -- unsorted set iteration ---------------------------------------------

    def _check_set_iteration(
        self, module: ModuleContext, scope: ast.AST
    ) -> Iterator[Finding]:
        tags = local_name_tags(scope, classify_set)
        for node in walk_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_expr(node.iter, tags):
                    yield self._set_finding(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if is_set_expr(generator.iter, tags):
                        yield self._set_finding(module, generator.iter)
            elif isinstance(node, ast.Call):
                tail = call_tail(node)
                if (
                    tail in _CONVERTERS
                    and isinstance(node.func, ast.Name)
                    and len(node.args) == 1
                    and is_set_expr(node.args[0], tags)
                ):
                    yield self._set_finding(module, node.args[0])
                elif (
                    tail == "join"
                    and isinstance(node.func, ast.Attribute)
                    and len(node.args) == 1
                    and is_set_expr(node.args[0], tags)
                ):
                    yield self._set_finding(module, node.args[0])

    def _set_finding(self, module: ModuleContext, expr: ast.expr) -> Finding:
        return Finding(
            path=module.path,
            line=expr.lineno,
            col=expr.col_offset,
            rule=self.rule,
            message=(
                "iterating a set in arbitrary order inside a "
                "report-producing module; wrap it in sorted(...) so the "
                "emitted report stays byte-deterministic"
            ),
        )

    # -- wall-clock reads ---------------------------------------------------

    def _check_time_calls(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and self._is_time_call(node)):
                continue
            if self._time_call_sanctioned(module, node):
                continue
            yield Finding(
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.rule,
                message=(
                    "wall-clock read stored outside the sanctioned "
                    "wall_time slots; report fields must not depend on "
                    "when the run happened"
                ),
            )

    @staticmethod
    def _is_time_call(call: ast.Call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        base = dotted(func.value)
        if base is None:
            return False
        return (base.split(".")[-1], func.attr) in _TIME_CALLS

    def _time_call_sanctioned(self, module: ModuleContext, call: ast.Call) -> bool:
        node: ast.AST = call
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, ast.keyword):
                return ancestor.arg is not None and self._sanctioned_name(ancestor.arg)
            if isinstance(ancestor, ast.Dict):
                try:
                    index = ancestor.values.index(node)
                except ValueError:
                    index = next(
                        (
                            i
                            for i, value in enumerate(ancestor.values)
                            if _contains(value, call)
                        ),
                        -1,
                    )
                if index < 0:
                    return False
                key = ancestor.keys[index]
                return (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and self._sanctioned_name(key.value)
                )
            if isinstance(ancestor, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    ancestor.targets
                    if isinstance(ancestor, ast.Assign)
                    else [ancestor.target]
                )
                return all(
                    isinstance(t, ast.Name) and self._sanctioned_name(t.id)
                    for t in targets
                )
            if isinstance(ancestor, (ast.Return, ast.stmt)):
                return False
            node = ancestor
        return False

    @staticmethod
    def _sanctioned_name(name: str) -> bool:
        lowered = name.lower()
        return any(marker in lowered for marker in _SANCTIONED_TIME_NAMES)

    # -- unseeded RNG -------------------------------------------------------

    def _check_unseeded_random(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                continue
            if func.attr in ("Random", "SystemRandom"):
                if func.attr == "Random" and not node.args and not node.keywords:
                    yield self._random_finding(
                        module, node, "random.Random() with no seed"
                    )
                continue
            yield self._random_finding(
                module, node, f"global-RNG call random.{func.attr}()"
            )

    def _random_finding(
        self, module: ModuleContext, node: ast.Call, what: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            rule=self.rule,
            message=(
                f"{what} is not reproducible; thread an explicit seeded "
                f"random.Random(seed) through instead"
            ),
        )

    # -- salted builtin hash -------------------------------------------------

    def _check_builtin_hash(self, module: ModuleContext) -> Iterator[Finding]:
        nodes = list(ast.walk(module.tree))
        names = [n for n in nodes if isinstance(n, ast.Name) and n.id == "hash"]
        if any(not isinstance(n.ctx, ast.Load) for n in names) or any(
            isinstance(n, ast.arg) and n.arg == "hash" for n in nodes
        ):
            return  # the module binds its own ``hash``
        for node in names:
            yield Finding(
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.rule,
                message=(
                    "builtin hash() is salted per process for str/bytes, so "
                    "anything ordered or tie-broken by it differs between "
                    "runs; use a stable key (an index, repr order, hashlib)"
                ),
            )


def _contains(root: ast.AST, target: ast.AST) -> bool:
    return any(child is target for child in ast.walk(root))
