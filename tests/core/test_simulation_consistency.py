"""The key fidelity test: per-node simulated decisions equal the
centralized computation of Algorithm 1, vertex for vertex."""

import networkx as nx
import pytest

from repro.analysis.domination import is_dominating_set
from repro.api import RunConfig, solve
from repro.core.algorithm1 import algorithm1, decide_membership, InsufficientViewError
from repro.core.radii import RadiusPolicy
from repro.graphs import generators as gen
from repro.graphs.random_families import (
    random_cactus,
    random_ding_augmentation,
    random_outerplanar,
    random_tree,
)
from repro.local_model.gather import gather_views


CASES = [
    gen.path(9),
    gen.cycle(8),
    gen.cycle(11),
    gen.star(8),
    gen.fan(6),
    gen.ladder(5),
    gen.caterpillar(4, 2),
    gen.maximal_outerplanar(9),
    gen.cactus_chain(2, 5),
    gen.clique_with_pendants(4),
    gen.fan_chain(2, 4),
]


@pytest.mark.parametrize("graph", CASES, ids=lambda g: f"n{g.number_of_nodes()}m{g.number_of_edges()}")
def test_simulate_equals_fast(graph):
    fast = algorithm1(graph, mode="fast")
    simulated = algorithm1(graph, mode="simulate")
    assert simulated.solution == fast.solution
    assert is_dominating_set(graph, simulated.solution)


@pytest.mark.parametrize("seed", range(3))
def test_simulate_equals_fast_random(seed):
    for g in (
        random_tree(14, seed),
        random_cactus(2, 5, seed),
        random_outerplanar(10, seed),
        random_ding_augmentation(3, 1, seed),
    ):
        fast = algorithm1(g, mode="fast")
        simulated = algorithm1(g, mode="simulate")
        assert simulated.solution == fast.solution


def test_insufficient_view_raises():
    # A view too small for the detection radius must fail loudly, not
    # silently decide.
    g = gen.cycle(12)
    policy = RadiusPolicy.practical(2, 3)
    views, _ = gather_views(g, policy.detection_radius - 1)
    with pytest.raises(InsufficientViewError):
        decide_membership(views[0], policy)


def test_decisions_depend_only_on_views():
    # Two vertices of a vertex-transitive graph have isomorphic views
    # and must decide identically.
    g = gen.cycle(10)
    result = algorithm1(g, mode="simulate")
    decisions = {v: (v in result.solution) for v in g.nodes}
    assert len(set(decisions.values())) == 1


SIMULATED = ["algorithm1", "algorithm2", "local_cuts_vc"]


@pytest.mark.parametrize("algorithm", SIMULATED)
def test_simulate_on_non_int_labels_is_valid(algorithm):
    # Views are keyed by gather uid, not by label; tuple and str labels
    # must reach the per-node decisions.  Agreement with fast mode is
    # not claimed here: views break brute-force ties by uid order.
    for graph in (
        nx.grid_2d_graph(4, 5),
        nx.relabel_nodes(random_cactus(2, 5, 0), lambda v: (v, "c")),
        nx.relabel_nodes(gen.maximal_outerplanar(9), lambda v: f"v{v}"),
    ):
        report = solve(graph, algorithm, RunConfig(mode="simulate"))
        assert report.valid


@pytest.mark.parametrize("algorithm", SIMULATED)
def test_simulate_equals_fast_on_tuple_grid(algorithm):
    graph = nx.grid_2d_graph(3, 3)
    simulated = solve(graph, algorithm, RunConfig(mode="simulate"))
    fast = solve(graph, algorithm, RunConfig())
    assert simulated.valid
    assert simulated.solution == fast.solution
