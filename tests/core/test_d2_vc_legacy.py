"""``d2_vc`` on the CSR core against a verbatim copy of the nx pipeline.

The legacy oracle below is the ``d2_vertex_cover`` body from before the
pipeline moved onto kernel arrays: an ``nx`` twin-free copy, ``D₂`` of
that copy, then a sequential patch over ``sorted(graph.edges,
key=repr)``.  The CSR version patches every bare edge's repr-smaller
endpoint in one vectorized pass; these tests pin that it returns the
same cover, phases and metadata on every graph shape that can reorder
the old scan: multi-digit int labels (repr order is not numeric order),
shuffled insertion orders (nx edge orientation follows insertion) and
non-int labels.
"""

import random

import networkx as nx
import pytest

from repro.core.d2 import d2_set
from repro.core.results import AlgorithmResult
from repro.core.vertex_cover import d2_vertex_cover
from repro.graphs.families import get_family
from repro.graphs.twins import remove_true_twins
from repro.solvers.vc import is_vertex_cover

RATIO_SWEEP_FAMILIES = (
    "path", "tree", "star", "cycle", "outerplanar", "fan",
    "cactus", "ladder", "ding", "fan_flower", "clique_pendants",
)


def legacy_d2_vertex_cover(graph: nx.Graph) -> AlgorithmResult:
    if graph.number_of_edges() == 0:
        return AlgorithmResult(name="d2_vc", solution=set(), rounds=0)
    reduced, mapping = remove_true_twins(graph)
    base = d2_set(reduced)
    twins = {v for v in graph.nodes if mapping[v] != v}
    solution = twins | base
    patch: set = set()
    for u, v in sorted(graph.edges, key=repr):
        if u not in solution and v not in solution:
            pick = min(u, v, key=repr)
            patch.add(pick)
            solution.add(pick)
    assert is_vertex_cover(graph, solution)
    return AlgorithmResult(
        name="d2_vc",
        solution=solution,
        rounds=4,
        phases={"d2": set(base), "twins": twins, "patch": patch},
        metadata={"patched_vertices": len(patch)},
    )


def _assert_same(graph):
    want = legacy_d2_vertex_cover(graph)
    got = d2_vertex_cover(graph)
    assert got.solution == want.solution, sorted(graph.edges, key=repr)
    assert got.phases == want.phases
    assert got.metadata == want.metadata
    assert got.rounds == want.rounds


def _relabelled(graph: nx.Graph, rng: random.Random, labels=None) -> nx.Graph:
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


def test_atlas_graphs():
    for graph in nx.graph_atlas_g()[1:]:
        _assert_same(graph)


def test_atlas_graphs_relabelled_and_shuffled():
    rng = random.Random(7)
    for graph in nx.graph_atlas_g()[1::3]:
        _assert_same(_relabelled(graph, rng))


@pytest.mark.parametrize("family", RATIO_SWEEP_FAMILIES)
def test_ratio_sweep_families_relabelled(family):
    rng = random.Random(family)
    for size in (24, 48, 96):
        for seed in (0, 1, 2):
            graph = get_family(family).make(size, seed)
            _assert_same(graph)
            _assert_same(_relabelled(graph, rng))


@pytest.mark.parametrize("family", ("fan", "fan_flower", "clique_pendants", "ding"))
def test_non_int_labels(family):
    rng = random.Random(family)
    graph = get_family(family).make(48, 1)
    n = graph.number_of_nodes()
    _assert_same(_relabelled(graph, rng, [f"v{k}" for k in rng.sample(range(3 * n), n)]))
    _assert_same(_relabelled(graph, rng, [(k % 7, k) for k in rng.sample(range(3 * n), n)]))


def test_self_loops_and_isolated_vertices():
    graph = nx.Graph([(3, 3), (3, 12), (12, 40), (40, 9), (9, 9), (100, 2)])
    graph.add_nodes_from([7, 77])
    _assert_same(graph)


def test_patch_is_not_empty_on_paper_families():
    # The patch is part of the algorithm, not a corner case: D₂ plus the
    # twins leaves bare edges on most families.
    graph = get_family("fan").make(96, 1)
    assert d2_vertex_cover(graph).metadata["patched_vertices"] > 0
