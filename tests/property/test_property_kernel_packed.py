"""Property tests: the packed kernel backend is indistinguishable from int.

Hypothesis drives random graphs (plus family/tuple-labelled/degenerate
shapes) through both backends and pins every shared primitive and every
rewired pipeline to identical output.  This is the contract that lets
``kernel_for`` switch backends by node count without any caller
noticing.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analysis.domination import is_b_dominating_set, is_dominating_set
from repro.core.d2 import d2_dominating_set, d2_set
from repro.graphs.kernel import GraphKernel, wire_digest
from repro.graphs.packed import PackedGraphKernel, bits_from_flags, flags_from_bits
from repro.graphs.twins import true_twin_classes
from repro.solvers.bounds import greedy_cover_mask, two_packing_lower_bound
from repro.solvers.greedy import greedy_dominating_set

from tests.property.strategies import connected_graphs


@st.composite
def arbitrary_graphs(draw) -> nx.Graph:
    """Graphs across the shapes the backends must agree on.

    Mixes hypothesis-built sparse/dense random graphs with the
    degenerate cases a node-count switch must survive: the zero-node
    graph, edgeless graphs (every vertex isolated), tuple-labelled
    grids, and graphs with trailing isolated vertices.
    """
    kind = draw(st.sampled_from(["random", "grid", "empty", "isolated", "family"]))
    if kind == "random":
        return draw(connected_graphs(min_nodes=2, max_nodes=24))
    if kind == "grid":
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(1, 4))
        return nx.grid_2d_graph(rows, cols)
    if kind == "empty":
        graph = nx.Graph()
        graph.add_nodes_from(range(draw(st.integers(0, 6))))
        return graph
    if kind == "isolated":
        graph = draw(connected_graphs(min_nodes=2, max_nodes=12))
        n = graph.number_of_nodes()
        graph.add_nodes_from(range(n + 1, n + 1 + draw(st.integers(1, 4))))
        return graph
    side = draw(st.integers(2, 5))
    return nx.star_graph(side) if draw(st.booleans()) else nx.cycle_graph(side + 1)


@settings(max_examples=80, deadline=None)
@given(arbitrary_graphs(), st.data())
def test_primitives_pin_across_backends(graph, data):
    ik = GraphKernel(graph)
    pk = PackedGraphKernel.from_graph(graph)
    assert tuple(pk.labels) == tuple(ik.labels)
    subset = data.draw(st.sets(st.sampled_from(sorted(graph.nodes, key=repr)))
                       if graph.number_of_nodes() else st.just(set()))
    mask = ik.bits_of(subset)
    assert pk.bits_of(subset) == mask
    assert pk.labels_of(mask) == ik.labels_of(mask)
    assert pk.closed_neighborhood_bits(mask) == ik.closed_neighborhood_bits(mask)
    assert wire_digest(pk.to_wire()) == wire_digest(ik.packed().to_wire())


@settings(max_examples=60, deadline=None)
@given(arbitrary_graphs(), st.data())
def test_pipelines_pin_across_backends(graph, data):
    ik = GraphKernel(graph)
    pk = PackedGraphKernel.from_graph(graph)
    # greedy cover over random target/candidate masks
    nodes = sorted(graph.nodes, key=repr)
    if nodes:
        candidates = set(
            data.draw(st.sets(st.sampled_from(nodes), min_size=1))
        )
        # targets limited to what the candidates can reach, so the
        # cover exists on both backends
        reachable = ik.labels_of(ik.union_closed_bits(candidates))
        targets = {v for v in data.draw(st.sets(st.sampled_from(nodes)))
                   if v in reachable}
        want = greedy_cover_mask(ik, ik.bits_of(targets), ik.bits_of(candidates))
        got = greedy_cover_mask(pk, pk.bits_of(targets), pk.bits_of(candidates))
        assert got == want
    assert _on("packed", greedy_dominating_set, graph) == _on(
        "int", greedy_dominating_set, graph
    )
    assert _on("packed", d2_set, graph) == _on("int", d2_set, graph)
    got_d2 = _on("packed", d2_dominating_set, graph)
    want_d2 = _on("int", d2_dominating_set, graph)
    assert got_d2.solution == want_d2.solution
    assert _on("packed", two_packing_lower_bound, graph) == _on(
        "int", two_packing_lower_bound, graph
    )
    assert _on("packed", true_twin_classes, graph) == _on(
        "int", true_twin_classes, graph
    )
    solution = want_d2.solution
    assert _on("packed", is_dominating_set, graph, solution) == _on(
        "int", is_dominating_set, graph, solution
    )
    some = set(nodes[:3])
    assert _on("packed", is_b_dominating_set, graph, solution, some) == _on(
        "int", is_b_dominating_set, graph, solution, some
    )


def _on(backend: str, fn, graph: nx.Graph, *args):
    """Run ``fn(graph, *args)`` with the kernel backend forced globally.

    Forcing the *global* selection (not just pre-seeding the cache)
    matters: ``kernel_for`` rebuilds a cached kernel whose backend does
    not match the current selection, so a pre-seeded kernel alone would
    silently revert to the auto choice mid-call.
    """
    from repro.graphs.kernel import invalidate_kernel, kernel_for, set_kernel_backend

    previous = set_kernel_backend(backend)
    try:
        invalidate_kernel(graph)
        result = fn(graph, *args)
        assert kernel_for(graph).backend == backend
        return result
    finally:
        set_kernel_backend(previous[0], threshold=previous[1])
        invalidate_kernel(graph)


@settings(max_examples=40, deadline=None)
@given(arbitrary_graphs())
def test_mask_roundtrips(graph):
    pk = PackedGraphKernel.from_graph(graph)
    full = pk.full_mask
    assert flags_from_bits(full, pk.n).all()
    assert bits_from_flags(flags_from_bits(full, pk.n)) == full
    assert bits_from_flags(flags_from_bits(0, pk.n)) == 0
    assert full.bit_count() == pk.n
