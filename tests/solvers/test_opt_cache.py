"""Per-instance OPT cache: sharing, bypass, and invalidation semantics."""

import gc
import weakref

import networkx as nx
import pytest

from repro.analysis.ratio import measure_ratio
from repro.graphs import generators as gen
from repro.graphs.kernel import (
    GraphKernel,
    KernelView,
    invalidate_kernel,
    kernel_backend,
    kernel_for,
    set_kernel_backend,
)
from repro.graphs.local_cuts import local_one_cuts, local_two_cuts
from repro.solvers.exact import domination_number
from repro.solvers.opt_cache import (
    cache_stats,
    clear_opt_cache,
    optimum_size,
    optimum_solution,
    reset_cache_stats,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_opt_cache()
    reset_cache_stats()
    yield
    clear_opt_cache()


def _misses():
    return cache_stats()["misses"]


def _hits():
    return cache_stats()["hits"]


class TestSharing:
    def test_second_call_hits(self):
        graph = gen.ladder(8)
        first = optimum_solution(graph)
        assert (_misses(), _hits()) == (1, 0)
        second = optimum_solution(graph)
        assert (_misses(), _hits()) == (1, 1)
        assert first is second  # the literal cached object

    def test_backends_and_problems_key_separately(self):
        graph = gen.fan(8)
        optimum_solution(graph, "mds", "milp")
        optimum_solution(graph, "mds", "bnb")
        optimum_solution(graph, "mvc", "milp")
        assert _misses() == 3
        optimum_solution(graph, "mds", "bnb")
        assert _hits() == 1

    def test_backends_agree_on_size(self):
        graph = gen.ladder(7)
        assert optimum_size(graph, "mds", "milp") == optimum_size(graph, "mds", "bnb")

    def test_use_cache_false_bypasses(self):
        graph = gen.fan(9)
        a = optimum_solution(graph, use_cache=False)
        b = optimum_solution(graph, use_cache=False)
        assert cache_stats() == {"hits": 0, "misses": 0}
        assert a == b  # deterministic backend: bypassing never changes the answer
        assert a == optimum_solution(graph)

    def test_domination_number_routes_through_cache(self):
        graph = gen.cycle(9)
        assert domination_number(graph) == 3
        assert domination_number(graph) == 3
        assert (_misses(), _hits()) == (1, 1)

    def test_measure_ratio_routes_through_cache(self):
        graph = gen.ladder(6)
        solution = set(graph.nodes)
        first = measure_ratio(graph, solution)
        second = measure_ratio(graph, solution)
        assert first.optimum_size == second.optimum_size
        assert (_misses(), _hits()) == (1, 1)

    def test_mvc_requires_milp(self):
        with pytest.raises(ValueError, match="MVC"):
            optimum_solution(gen.path(5), "mvc", "bnb")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            optimum_solution(gen.path(5), "mds", "simplex")


class TestInvalidation:
    def test_invalidate_kernel_clears_entry(self):
        graph = gen.path(6)  # gamma = 2
        assert optimum_size(graph) == 2
        # Equal-node-count mutation: the kernel contract requires an
        # explicit invalidate, which must also drop the cached optimum.
        graph.remove_edge(2, 3)
        graph.add_edge(0, 3)
        invalidate_kernel(graph)
        fresh = optimum_size(graph)
        assert fresh == len(optimum_solution(graph, use_cache=False))
        assert _misses() == 2  # the post-invalidate call re-solved

    def test_node_count_change_invalidates_transparently(self):
        graph = gen.path(3)
        assert optimum_size(graph) == 1
        graph.add_edge(2, 3)
        graph.add_edge(3, 4)
        graph.add_edge(4, 5)  # now P6: gamma = 2, no invalidate called
        assert optimum_size(graph) == 2

    def test_clear_opt_cache(self):
        graph = gen.star(6)
        optimum_size(graph)
        clear_opt_cache()
        optimum_size(graph)
        assert _misses() == 2


class TestInvalidationPackedKernel(TestInvalidation):
    """The same cases with every graph on a packed kernel."""

    @pytest.fixture(autouse=True)
    def _packed_backend(self):
        previous, threshold = kernel_backend()
        set_kernel_backend("packed")
        yield
        set_kernel_backend(previous, threshold=threshold)

    def test_kernel_is_packed(self):
        assert kernel_for(gen.path(4)).backend == "packed"


class TestKernelMemo:
    def test_kernel_view_hits_then_clear_misses(self):
        view = KernelView(GraphKernel(gen.ladder(5)))
        first = optimum_solution(view, "mds", "bnb")
        second = optimum_solution(view, "mds", "bnb")
        assert (_misses(), _hits()) == (1, 1)
        assert first is second
        clear_opt_cache()
        assert optimum_solution(view, "mds", "bnb") == first
        assert (_misses(), _hits()) == (2, 1)

    def test_memo_dies_with_the_graph(self):
        graph = gen.ladder(6)
        local_one_cuts(graph, 2)
        local_two_cuts(graph, 3)
        optimum_size(graph)
        ref = weakref.ref(kernel_for(graph))
        assert ref().memo
        del graph
        gc.collect()
        assert ref() is None
