"""Tree decompositions and treewidth (the paper's bridge to asdim 1).

Section 4 argues: ``K_{2,t}`` is planar, so ``K_{2,t}``-minor-free
graphs have bounded treewidth by the grid-minor theorem, hence
asymptotic dimension 1 by [3].  This module makes each arrow concrete:

* :func:`min_fill_decomposition` — the classical min-fill-in heuristic
  producing a valid tree decomposition (optimal width is NP-hard; the
  heuristic is exact on chordal graphs and near-exact on our sparse
  families);
* :func:`is_valid_decomposition` — the three tree-decomposition axioms
  checked directly;
* :func:`treewidth_exact_small` — exact treewidth by branch-and-bound
  over elimination orders (test-scale graphs only);
* :func:`decomposition_cover` — an asymptotic-dimension-style 2-part
  cover derived from the decomposition: bags are grouped by their
  depth (mod 2) in a centroid-rooted decomposition tree, giving
  r-components whose weak diameter is O(width · r) — the quantitative
  shadow of "bounded treewidth ⟹ asdim 1".
"""

from __future__ import annotations

import itertools
from typing import Hashable

import networkx as nx

from repro.graphs.util import r_components, weak_diameter

Vertex = Hashable

Bag = frozenset


def is_valid_decomposition(graph: nx.Graph, tree: nx.Graph) -> bool:
    """Check the tree-decomposition axioms.

    1. the bags cover every vertex;
    2. every edge lies inside some bag;
    3. for each vertex, the bags containing it induce a subtree.
    """
    if tree.number_of_nodes() == 0:
        return graph.number_of_nodes() == 0
    if not nx.is_tree(tree):
        return False
    bags = list(tree.nodes)
    union: set[Vertex] = set()
    for bag in bags:
        union |= set(bag)
    if union != set(graph.nodes):
        return False
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in bags):
            return False
    for v in graph.nodes:
        holding = [bag for bag in bags if v in bag]
        if not nx.is_connected(tree.subgraph(holding)):
            return False
    return True


def width(tree: nx.Graph) -> int:
    """Width of a decomposition: largest bag size minus one."""
    if tree.number_of_nodes() == 0:
        return -1
    return max(len(bag) for bag in tree.nodes) - 1


def _decomposition_from_order(graph: nx.Graph, order: list[Vertex]) -> nx.Graph:
    """Build a tree decomposition from an elimination order (standard)."""
    work = graph.copy()
    bags: list[tuple[Vertex, Bag]] = []
    for v in order:
        neighbors = frozenset(work.neighbors(v))
        bags.append((v, Bag(neighbors | {v})))
        for a, b in itertools.combinations(neighbors, 2):
            work.add_edge(a, b)
        work.remove_node(v)

    tree = nx.Graph()
    if not bags:
        return tree
    position = {v: i for i, (v, _) in enumerate(bags)}
    tree.add_nodes_from(bag for _, bag in bags)
    for i, (v, bag) in enumerate(bags):
        later = [u for u in bag if u != v and position.get(u, -1) > i]
        if later:
            parent_vertex = min(later, key=lambda u: position[u])
            parent_bag = bags[position[parent_vertex]][1]
            if parent_bag != bag:
                tree.add_edge(bag, parent_bag)
    # identical bags collapse in nx.Graph; reconnect any fragments
    components = list(nx.connected_components(tree))
    for first, second in zip(components, components[1:]):
        tree.add_edge(next(iter(first)), next(iter(second)))
    return tree


def _missing_pairs(work: nx.Graph, v: Vertex):
    """The non-adjacent neighbor pairs of ``v``: its fill-in edges."""
    for a, b in itertools.combinations(list(work.neighbors(v)), 2):
        if not work.has_edge(a, b):
            yield a, b


def min_fill_order(graph: nx.Graph) -> list[Vertex]:
    """The min-fill-in elimination order, ties to the repr-least vertex.

    Each step takes the first vertex in repr order whose neighbors are
    already a clique (fill 0; one early-exit test per vertex), and
    counts exact fills only when no such vertex is left.
    """
    work = graph.copy()
    remaining = sorted(work.nodes, key=repr)
    order: list[Vertex] = []
    while remaining:
        v = next((u for u in remaining if next(_missing_pairs(work, u), None) is None), None)
        if v is None:
            v = min(remaining, key=lambda u: sum(1 for _ in _missing_pairs(work, u)))
        order.append(v)
        remaining.remove(v)
        for a, b in itertools.combinations(list(work.neighbors(v)), 2):
            work.add_edge(a, b)
        work.remove_node(v)
    return order


def min_fill_decomposition(graph: nx.Graph) -> nx.Graph:
    """Tree decomposition via the min-fill-in elimination heuristic."""
    if graph.number_of_nodes() == 0:
        return nx.Graph()
    return _decomposition_from_order(graph, min_fill_order(graph))


def treewidth_exact_small(graph: nx.Graph, node_limit: int = 9) -> int:
    """Exact treewidth via branch-and-bound on elimination orders.

    Only for tiny graphs (cross-checking the heuristic in tests).
    """
    n = graph.number_of_nodes()
    if n > node_limit:
        raise ValueError(f"exact treewidth limited to {node_limit} vertices")
    if n == 0:
        return -1
    best = [n - 1]

    def search(work: nx.Graph, current_width: int) -> None:
        if current_width >= best[0]:
            return
        if work.number_of_nodes() <= current_width + 1:
            best[0] = current_width
            return
        for v in sorted(work.nodes, key=repr):
            degree = work.degree(v)
            new_width = max(current_width, degree)
            if new_width >= best[0]:
                continue
            reduced = work.copy()
            neighbors = list(reduced.neighbors(v))
            for a, b in itertools.combinations(neighbors, 2):
                reduced.add_edge(a, b)
            reduced.remove_node(v)
            search(reduced, new_width)

    search(graph.copy(), 0)
    return best[0]


def decomposition_cover(graph: nx.Graph, tree: nx.Graph, r: int) -> list[set[Vertex]]:
    """A 2-part cover from a tree decomposition (bounded tw ⟹ asdim 1).

    Root the decomposition at a centroid bag; a vertex joins part
    ``(depth of its highest bag // (2r)) mod 2``.  On our bounded-width
    families the measured r-component bound is O(width · r); tests and
    the asdim explorer report the constants.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if tree.number_of_nodes() == 0:
        return [set(), set()]
    root = next(iter(sorted(tree.nodes, key=lambda b: repr(sorted(b, key=repr)))))
    depth = nx.single_source_shortest_path_length(tree, root)
    highest: dict[Vertex, int] = {}
    for bag in tree.nodes:
        for v in bag:
            d = depth[bag]
            if v not in highest or d < highest[v]:
                highest[v] = d
    parts: list[set[Vertex]] = [set(), set()]
    band = 2 * r
    for v, d in highest.items():
        parts[(d // band) % 2].add(v)
    return parts


def measured_cover_control(graph: nx.Graph, r: int) -> int:
    """Witnessed control bound of :func:`decomposition_cover`."""
    tree = min_fill_decomposition(graph)
    cover = decomposition_cover(graph, tree, r)
    worst = 0
    for part in cover:
        for comp in r_components(graph, part, r):
            worst = max(worst, weak_diameter(graph, comp))
    return worst
