"""Shared per-module state and AST helpers for the lint rules.

A :class:`ModuleContext` is built once per file by the engine and handed
to every rule: it owns the parsed tree, a lazily built parent map (for
the few rules that need to look *up* from a node), and the small type
heuristics the project-specific rules share — "does this expression
build a ``set``", "is this expression an int bitset mask".

The type heuristics are deliberately name- and signature-driven: the
codebase's own conventions (``*_mask``/``*_bits`` locals, the
:class:`~repro.graphs.kernel.GraphKernel` primitive names) are the type
system these rules check against.  False positives are expected to be
rare and are silenced inline with a reasoned ``# repro: ignore[...]``.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator


class ModuleContext:
    """One linted file: path, source, tree, and shared lazy analyses."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self._parents: dict[ast.AST, ast.AST] | None = None

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built on first use)."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s ancestors, innermost first."""
        parents = self.parents
        while node in parents:
            node = parents[node]
            yield node

    def scopes(self) -> Iterator[ast.AST]:
        """The module plus every (possibly nested) function definition.

        Rules that do per-scope local-name inference iterate these; the
        module node itself is included so module-level code is checked
        under the same machinery.
        """
        yield self.tree
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_tail(call: ast.Call) -> str | None:
    """The last component of a call's function: ``kernel.bits_of`` -> ``bits_of``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def expr_text(node: ast.AST) -> str:
    """Stable textual key for an arbitrary expression (receiver tracking)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        return f"<expr@{getattr(node, 'lineno', 0)}>"


def local_name_tags(
    scope: ast.AST, classify: Callable[[ast.expr, dict[str, str]], str | None]
) -> dict[str, str]:
    """Infer ``name -> tag`` for simple local assignments in ``scope``.

    ``classify(value, tags)`` returns a tag string for expressions it
    recognizes (``"set"``, ``"mask"``, ...) or ``None``.  Two passes make
    one level of forward propagation (``a = set(...); b = a``) stable
    without a full fixpoint.  Nested function bodies are excluded — each
    scope is analyzed independently by :meth:`ModuleContext.scopes`.
    """
    tags: dict[str, str] = {}
    assigns = [
        node
        for node in walk_scope(scope)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ]
    for _ in range(2):
        for node in assigns:
            tag = classify(node.value, tags)
            if tag is not None:
                tags[node.targets[0].id] = tag  # type: ignore[union-attr]
    return tags


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` limited to ``scope``, not descending into nested defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# -- shared expression-type heuristics --------------------------------------

_SET_CALLS = {"set", "frozenset"}

#: Repo API known to return unordered ``set``s of vertices — iterating
#: one of these into report output is exactly the RPR003 leak.
SET_RETURNING = {
    "globally_interesting_vertices",
    "almost_interesting_vertices",
    "minimum_dominating_set",
    "minimum_vertex_cover",
    "greedy_dominating_set",
    "local_one_cuts",
    "labels_of",
    "undominated_vertices",
}

#: Report dataclass fields typed ``set`` (AlgorithmResult.solution,
#: SimReport.chosen).
_SET_ATTRS = {"solution", "chosen"}

#: GraphKernel entries (and mask helpers grown around it) that return an
#: int bitset — assignment from any of these tags the name as a mask.
MASK_RETURNING = {
    "bits_of",
    "closed_neighborhood_bits",
    "union_closed_bits",
    "ball_bits",
    "component_bits",
    "greedy_cover_mask",
    "weak_diameter_mask",
}

#: Kernel-adjacent attribute names that hold a single mask.
_MASK_ATTRS = {"full_mask"}

#: Local-name conventions for int bitsets (the codebase's own idiom).
_MASK_NAMES = {"mask", "bits", "bitset", "arena"}
_MASK_SUFFIXES = ("_mask", "_bitset")


def classify_set(node: ast.expr, tags: dict[str, str]) -> str | None:
    """``"set"`` when ``node`` evidently builds a set, else ``None``."""
    return "set" if is_set_expr(node, tags) else None


def is_set_expr(node: ast.expr, tags: dict[str, str]) -> bool:
    """Whether ``node`` evaluates to a ``set``/``frozenset`` (heuristic)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        tail = call_tail(node)
        return tail in _SET_CALLS or tail in SET_RETURNING
    if isinstance(node, ast.Name):
        return tags.get(node.id) == "set"
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ATTRS
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        # Set algebra: either side known-set makes the result a set.  An
        # int mask on the *other* side is RPR005's problem, not ours.
        return is_set_expr(node.left, tags) or is_set_expr(node.right, tags)
    return False


def classify_mask(node: ast.expr, tags: dict[str, str]) -> str | None:
    """``"mask"`` when ``node`` evidently builds an int bitset."""
    return "mask" if is_mask_expr(node, tags) else None


def is_mask_expr(node: ast.expr, tags: dict[str, str]) -> bool:
    """Whether ``node`` is an int bitset mask (name/signature heuristic)."""
    if isinstance(node, ast.Name):
        name = node.id
        if name in _MASK_NAMES or name.endswith(_MASK_SUFFIXES):
            return True
        # "_bits" names are masks by convention, but plural container
        # names like closed_bits (a *list* of masks) are not locals here.
        if name.endswith("_bits"):
            return True
        return tags.get(name) == "mask"
    if isinstance(node, ast.Attribute):
        return node.attr in _MASK_ATTRS
    if isinstance(node, ast.Call):
        return call_tail(node) in MASK_RETURNING
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.LShift, ast.RShift)
    ):
        return is_mask_expr(node.left, tags) or is_mask_expr(node.right, tags)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return is_mask_expr(node.operand, tags)
    return False
