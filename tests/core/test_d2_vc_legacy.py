"""``d2_vc`` on the CSR core against a verbatim copy of the nx pipeline.

The legacy oracle (in :mod:`tests.oracles`) is the ``d2_vertex_cover``
body from before the pipeline moved onto kernel arrays: an ``nx`` twin-free copy, ``D₂`` of
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

from repro.core.vertex_cover import d2_vertex_cover
from repro.graphs.families import get_family
from tests.oracles.cases import atlas, shuffled
from tests.oracles.core import legacy_d2_vertex_cover

RATIO_SWEEP_FAMILIES = (
    "path", "tree", "star", "cycle", "outerplanar", "fan",
    "cactus", "ladder", "ding", "fan_flower", "clique_pendants",
)


def _assert_same(graph):
    want = legacy_d2_vertex_cover(graph)
    got = d2_vertex_cover(graph)
    assert got.solution == want.solution, sorted(graph.edges, key=repr)
    assert got.phases == want.phases
    assert got.metadata == want.metadata
    assert got.rounds == want.rounds


def test_atlas_graphs():
    for graph in atlas(1):
        _assert_same(graph)


def test_atlas_graphs_relabelled_and_shuffled():
    rng = random.Random(7)
    for graph in atlas(1, step=3):
        _assert_same(shuffled(graph, rng))


@pytest.mark.parametrize("family", RATIO_SWEEP_FAMILIES)
def test_ratio_sweep_families_relabelled(family):
    rng = random.Random(family)
    for size in (24, 48, 96):
        for seed in (0, 1, 2):
            graph = get_family(family).make(size, seed)
            _assert_same(graph)
            _assert_same(shuffled(graph, rng))


@pytest.mark.parametrize("family", ("fan", "fan_flower", "clique_pendants", "ding"))
def test_non_int_labels(family):
    rng = random.Random(family)
    graph = get_family(family).make(48, 1)
    n = graph.number_of_nodes()
    _assert_same(shuffled(graph, rng, [f"v{k}" for k in rng.sample(range(3 * n), n)]))
    _assert_same(shuffled(graph, rng, [(k % 7, k) for k in rng.sample(range(3 * n), n)]))


def test_self_loops_and_isolated_vertices():
    graph = nx.Graph([(3, 3), (3, 12), (12, 40), (40, 9), (9, 9), (100, 2)])
    graph.add_nodes_from([7, 77])
    _assert_same(graph)


def test_patch_is_not_empty_on_paper_families():
    # The patch is part of the algorithm, not a corner case: D₂ plus the
    # twins leaves bare edges on most families.
    graph = get_family("fan").make(96, 1)
    assert d2_vertex_cover(graph).metadata["patched_vertices"] > 0
