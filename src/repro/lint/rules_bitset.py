"""Bitset discipline: RPR005.

Since PR 3 the hot paths carry vertex sets as **Python-int bitsets**.
An int mask supports none of the container protocol, so treating one as
an iterable either crashes (``len(mask)``, ``for v in mask``) or —
worse — silently "works" by some other coercion.  The converse mixup,
handing a label set to a primitive that expects a mask (or a mask to a
label-iterable parameter), type-checks at runtime because both are just
objects, and produces garbage dominating-set arithmetic.

Mask-ness is inferred from the codebase's own conventions (names like
``mask``/``arena``/``*_mask``/``*_bits``, assignment from the
:class:`~repro.graphs.kernel.GraphKernel` mask-returning primitives)
per scope; see :mod:`repro.lint.context`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import (
    ModuleContext,
    call_tail,
    classify_mask,
    is_mask_expr,
    local_name_tags,
    walk_scope,
)
from repro.lint.findings import Finding

#: Builtins that iterate their (sole) argument.
_ITERATING_BUILTINS = {"sorted", "list", "tuple", "set", "frozenset", "sum", "min",
                       "max", "enumerate", "iter", "any", "all"}

#: Kernel primitives whose first argument is an iterable of vertex
#: *labels* — passing a mask here is the classic PR 3-era mixup.
LABEL_PARAM_CALLS = {
    "bits_of",
    "union_closed_bits",
    "dominates_vertices",
    "ball_labels_of_set",
}

#: Kernel primitives whose first argument is an int *mask* — passing a
#: set/list of labels here is the same mixup in the other direction.
MASK_PARAM_CALLS = {
    "labels_of",
    "closed_neighborhood_bits",
    "span_counts",
    "component_bits",
    "components_of_mask",
    "count_components_of_mask",
    "is_mask_connected",
    "articulation_scan",
    "iter_bits",
}


class BitsetDisciplineRule:
    """RPR005: int masks used as containers / mask-vs-label slot mixups.

    Both kernel backends carry vertex sets as Python-int bitsets, so the
    one mask shape is an int: iterating it, taking its ``len()``, testing
    membership against it, or passing it where labels are expected (and
    labels where a mask is expected) is the whole hazard this rule
    checks.
    """

    rule = "RPR005"
    summary = "int bitset treated as an iterable (or mask/label slot mixup)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for scope in module.scopes():
            tags = local_name_tags(scope, classify_mask)
            for node in walk_scope(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if is_mask_expr(node.iter, tags):
                        yield self._finding(
                            module,
                            node.iter,
                            "iterating an int bitset mask; decode it with "
                            "iter_bits(mask) or kernel.labels_of(mask)",
                        )
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for generator in node.generators:
                        if is_mask_expr(generator.iter, tags):
                            yield self._finding(
                                module,
                                generator.iter,
                                "iterating an int bitset mask; decode it with "
                                "iter_bits(mask) or kernel.labels_of(mask)",
                            )
                elif isinstance(node, ast.Call):
                    yield from self._check_call(module, node, tags)
                elif isinstance(node, ast.Compare):
                    for op, comparator in zip(node.ops, node.comparators):
                        if isinstance(op, (ast.In, ast.NotIn)) and is_mask_expr(
                            comparator, tags
                        ):
                            yield self._finding(
                                module,
                                comparator,
                                "membership test against an int bitset mask; "
                                "test bits with `mask >> i & 1` or "
                                "`(1 << i) & mask`",
                            )

    def _check_call(
        self, module: ModuleContext, call: ast.Call, tags: dict[str, str]
    ) -> Iterator[Finding]:
        tail = call_tail(call)
        if (
            isinstance(call.func, ast.Name)
            and tail == "len"
            and len(call.args) == 1
            and is_mask_expr(call.args[0], tags)
        ):
            yield self._finding(
                module,
                call,
                "len() on an int bitset mask; population count is "
                "mask.bit_count()",
            )
            return
        if (
            isinstance(call.func, ast.Name)
            and tail in _ITERATING_BUILTINS
            and len(call.args) == 1
            and is_mask_expr(call.args[0], tags)
        ):
            yield self._finding(
                module,
                call,
                f"{tail}() iterates its argument, but an int bitset mask "
                f"is not an iterable; decode it with iter_bits()/labels_of()",
            )
            return
        if tail in LABEL_PARAM_CALLS and call.args and is_mask_expr(call.args[0], tags):
            yield self._finding(
                module,
                call.args[0],
                f"{tail}() expects an iterable of vertex labels but "
                f"received an int bitset mask; decode with labels_of() or "
                f"use the mask-native primitive",
            )
        if tail in MASK_PARAM_CALLS and call.args and self._is_label_container(
            call.args[0]
        ):
            yield self._finding(
                module,
                call.args[0],
                f"{tail}() expects an int bitset mask but received a "
                f"label container; convert with kernel.bits_of(...)",
            )

    @staticmethod
    def _is_label_container(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp, ast.List, ast.ListComp)):
            return True
        return isinstance(node, ast.Call) and call_tail(node) in {
            "set",
            "frozenset",
            "sorted",
        }

    def _finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=message,
        )
