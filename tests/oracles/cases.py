"""Graph case builders shared by the differential tests.

Each differential keeps its own case list; the builders that several
of them use (atlas slices, relabellings onto str, tuple or mixed
labels, self-loops and isolated vertices) are defined here once.
"""

from __future__ import annotations

import networkx as nx


def atlas(start: int = 0, stop: int | None = None, step: int = 1) -> list[nx.Graph]:
    """Fresh copies of the networkx atlas graphs (all 1,253, or a slice)."""
    return nx.graph_atlas_g()[start:stop:step]


def connected_atlas(min_nodes: int, max_nodes: int) -> list[nx.Graph]:
    """The connected atlas graphs with ``min_nodes..max_nodes`` vertices."""
    return [
        graph
        for graph in nx.graph_atlas_g()
        if min_nodes <= graph.number_of_nodes() <= max_nodes and nx.is_connected(graph)
    ]


def str_labelled(graph: nx.Graph, prefix: str = "v") -> nx.Graph:
    """``graph`` with every label ``v`` renamed ``f"{prefix}{v}"``."""
    return nx.relabel_nodes(graph, lambda v: f"{prefix}{v}")


def tuple_labelled(graph: nx.Graph, label=lambda v: ("node", v)) -> nx.Graph:
    """``graph`` with every label ``v`` renamed ``label(v)``, a tuple."""
    return nx.relabel_nodes(graph, {v: label(v) for v in graph.nodes})


def mixed_labelled(graph: nx.Graph) -> nx.Graph:
    """An int-labelled ``graph`` with its odd labels renamed ``f"v{v}"``:
    ints and strs side by side, which repr order interleaves."""
    return nx.relabel_nodes(graph, lambda v: f"v{v}" if v % 2 else v)


def shuffled(graph: nx.Graph, rng, labels=None) -> nx.Graph:
    """``graph`` on fresh labels, nodes and edges inserted in random order."""
    nodes = list(graph.nodes)
    if labels is None:
        labels = rng.sample(range(5, 20 * len(nodes) + 5), len(nodes))
    mapping = dict(zip(nodes, labels))
    rng.shuffle(nodes)
    edges = [(mapping[u], mapping[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    out = nx.Graph()
    out.add_nodes_from(mapping[v] for v in nodes)
    out.add_edges_from(edges)
    return out


def with_isolated(graph: nx.Graph, labels) -> nx.Graph:
    """``graph`` plus an isolated vertex per label (in place)."""
    graph.add_nodes_from(labels)
    return graph


def with_self_loops(graph: nx.Graph, labels) -> nx.Graph:
    """``graph`` plus a self-loop on each label (in place)."""
    graph.add_edges_from((v, v) for v in labels)
    return graph


def unsortable_mixed() -> nx.Graph:
    """Tuple, str, int and frozenset labels, which ``<`` cannot order."""
    graph = nx.Graph()
    graph.add_edge(("a", 1), "b")
    graph.add_edge("b", 3)
    graph.add_edge(3, ("a", 1))
    graph.add_edge("b", "c")
    graph.add_edge("c", ("d", 2))
    graph.add_edge(("d", 2), 3)
    graph.add_node(frozenset({9}))
    return graph


def mixed_path() -> nx.Graph:
    """A 12-path with str, tuple and frozenset labels hung on, a self-loop
    and three isolated vertices."""
    mixed = nx.path_graph(12)
    mixed.add_edges_from([("tail", 0), (("t", 1), "tail"), (frozenset({3}), 7), (5, 5)])
    mixed.add_nodes_from([99, "lone", ("iso", 0)])
    return mixed


def twin_grid() -> nx.Graph:
    """A grid with tuple labels, a pendant clique of true twins hung off
    one corner, and a separate ``K4`` that collapses to one vertex."""
    graph = nx.grid_2d_graph(3, 4)
    clique = [("k", i) for i in range(3)]
    graph.add_edges_from((u, v) for u in clique for v in clique if u != v)
    graph.add_edges_from((u, (0, 0)) for u in clique)
    graph.add_edges_from(nx.relabel_nodes(nx.complete_graph(4), lambda i: ("z", i)).edges)
    return graph
