"""The REPRO_KERNEL_GUARD runtime staleness sanitizer."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import (
    StaleKernelError,
    invalidate_kernel,
    kernel_for,
    kernel_guard_enabled,
    set_kernel_guard,
)
from repro.graphs.kernel import KernelWire, graph_from_wire


@pytest.fixture
def guard():
    previous = set_kernel_guard(True)
    yield
    set_kernel_guard(previous)


def path4() -> nx.Graph:
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
    return graph


def test_set_kernel_guard_returns_previous_state():
    previous = set_kernel_guard(True)
    try:
        assert kernel_guard_enabled()
        assert set_kernel_guard(previous) is True
    finally:
        set_kernel_guard(previous)
    assert kernel_guard_enabled() == previous


def test_clean_hit_path_is_untouched(guard):
    graph = path4()
    kernel = kernel_for(graph)
    assert kernel_for(graph) is kernel  # repeated hits stay cached


def test_equal_count_mutation_raises_stale_kernel_error(guard):
    graph = path4()
    kernel_for(graph)
    graph.add_edge(0, 3)  # same node count: the O(1) guard cannot see it
    with pytest.raises(StaleKernelError) as excinfo:
        kernel_for(graph)
    message = str(excinfo.value)
    assert "invalidate_kernel" in message
    assert "n=4, m=3" in message  # fingerprint recorded at build time
    assert "n=4, m=4" in message  # the mutated topology


def test_stale_kernel_is_dropped_so_retry_succeeds(guard):
    graph = path4()
    stale = kernel_for(graph)
    graph.add_edge(0, 3)
    with pytest.raises(StaleKernelError):
        kernel_for(graph)
    rebuilt = kernel_for(graph)
    assert rebuilt is not stale
    assert len(rebuilt.packed().indices) == 2 * graph.number_of_edges()


def test_invalidate_after_mutation_never_raises(guard):
    graph = path4()
    kernel_for(graph)
    graph.add_edge(0, 3)
    invalidate_kernel(graph)
    kernel = kernel_for(graph)
    assert len(kernel.packed().indices) == 2 * graph.number_of_edges()


def test_node_count_change_rebuilds_without_raising(guard):
    # A node-count change is caught by the existing O(1) hit guard and
    # rebuilds; the sanitizer must not turn that legal path into an error.
    graph = path4()
    kernel_for(graph)
    graph.add_node(99)
    kernel = kernel_for(graph)
    assert kernel.n == 5


def test_kernel_cached_before_guard_enabled_is_adopted():
    previous = set_kernel_guard(False)
    try:
        graph = path4()
        kernel_for(graph)  # cached with no fingerprint recorded
        set_kernel_guard(True)
        kernel_for(graph)  # adopts a fingerprint instead of raising
        graph.add_edge(0, 3)
        with pytest.raises(StaleKernelError):
            kernel_for(graph)
    finally:
        set_kernel_guard(previous)


def test_graph_from_wire_seeds_guard_state(guard):
    graph = path4()
    wire = kernel_for(graph).packed().to_wire()
    assert isinstance(wire, KernelWire)
    rebuilt = graph_from_wire(wire)
    kernel_for(rebuilt)  # pre-seeded kernel verifies cleanly
    rebuilt.add_edge(0, 3)
    with pytest.raises(StaleKernelError):
        kernel_for(rebuilt)


def test_guard_disabled_serves_stale_kernel_silently():
    previous = set_kernel_guard(False)
    try:
        graph = path4()
        kernel = kernel_for(graph)
        graph.add_edge(0, 3)
        assert kernel_for(graph) is kernel  # the documented O(1) trade-off
    finally:
        set_kernel_guard(previous)
        invalidate_kernel(graph)
