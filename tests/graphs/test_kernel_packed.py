"""Differential tests: the packed (numpy) kernel backend vs the int backend.

Every primitive the two backends share is pinned to identical output on
the same graph, the backend switch itself is pinned at threshold ± 1,
and the streaming ingestion/wire paths are pinned to build the same
kernel the nx route builds.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import subprocess
import sys
import weakref

import networkx as nx
import numpy as np
import pytest

from repro.analysis.domination import (
    is_b_dominating_set,
    is_dominating_set,
    undominated_vertices,
)
from repro.api import simulate, solve, solve_many
from repro.api.config import RunConfig
from repro.core.d2 import d2_dominating_set, d2_set, gamma
from repro.graphs.families import get_family
from repro.graphs.kernel import (
    GraphKernel,
    KernelView,
    instance_from_wire,
    invalidate_kernel,
    iter_bits,
    kernel_backend,
    kernel_for,
    kernel_from_edge_file,
    kernel_from_edges,
    kernel_from_wire,
    read_wire,
    set_kernel_backend,
    wire_digest,
    write_wire,
)
from repro.graphs.packed import PackedGraphKernel, bits_from_flags, flags_from_bits
from repro.graphs.twins import has_true_twins, remove_true_twins, true_twin_classes
from repro.solvers.bounds import two_packing_lower_bound
from repro.solvers.greedy import greedy_dominating_set
from tests.oracles.cases import with_isolated, with_self_loops


@pytest.fixture
def restore_backend():
    previous = kernel_backend()
    yield
    set_kernel_backend(previous[0], threshold=previous[1])


def zoo():
    graphs = [
        nx.Graph(),
        nx.path_graph(1),
        nx.path_graph(7),
        nx.cycle_graph(9),
        nx.star_graph(8),
        nx.complete_graph(6),
        nx.grid_2d_graph(3, 4),  # tuple labels
        nx.gnp_random_graph(24, 0.15, seed=3),
        nx.gnp_random_graph(30, 0.4, seed=7),
    ]
    graphs.append(with_isolated(nx.gnp_random_graph(12, 0.3, seed=1), [50, 51]))
    graphs.append(with_self_loops(nx.path_graph(5), [2]))
    return graphs


def both_kernels(graph):
    return GraphKernel(graph), PackedGraphKernel.from_graph(graph)


@pytest.mark.parametrize("graph", zoo(), ids=lambda g: f"n{g.number_of_nodes()}")
def test_primitives_agree(graph):
    ik, pk = both_kernels(graph)
    assert pk.labels == ik.labels
    assert pk.n == ik.n
    assert pk.edge_count() == ik.packed().edge_count() == graph.number_of_edges()
    labels = list(ik.labels)
    rng = np.random.default_rng(11)
    subsets = [
        [],
        labels,
        [v for v in labels if rng.random() < 0.4],
        [v for v in labels if rng.random() < 0.15],
    ]
    for subset in subsets:
        mask = ik.bits_of(subset)
        assert pk.bits_of(subset) == mask
        assert pk.labels_of(mask) == ik.labels_of(mask)
        assert pk.closed_neighborhood_bits(mask) == ik.closed_neighborhood_bits(mask)
        assert pk.union_closed_bits(subset) == ik.union_closed_bits(subset)
        assert pk.dominates_vertices(subset) == ik.dominates_vertices(subset)
        for radius in (0, 1, 2):
            assert pk.ball_labels_of_set(subset, radius) == (
                ik.ball_labels_of_set(subset, radius)
            )
    assert pk.full_mask == ik.full_mask
    csr = ik.packed()
    for v in labels[:6]:
        assert pk.index(v) == ik.index(v)
        assert pk.degree(pk.index(v)) == csr.degree(csr.index(v))
        assert list(pk.neighbor_row(pk.index(v))) == list(csr.neighbor_row(csr.index(v)))
        for radius in (0, 1, 3):
            assert pk.ball_labels(v, radius) == ik.ball_labels(v, radius)
    assert list(pk.back_ports()) == list(csr.back_ports())


@pytest.mark.parametrize("graph", zoo(), ids=lambda g: f"n{g.number_of_nodes()}")
def test_wires_and_digests_agree(graph):
    ik, pk = both_kernels(graph)
    assert pk.to_wire() == ik.packed().to_wire()
    assert wire_digest(pk.to_wire()) == wire_digest(ik.packed().to_wire())


def test_wire_digest_matches_historical_formula():
    import hashlib

    for graph in zoo():
        wire = GraphKernel(graph).packed().to_wire()
        hasher = hashlib.sha256()
        hasher.update(repr(wire.labels).encode("utf-8"))
        hasher.update(wire.indptr)
        hasher.update(wire.indices)
        assert wire_digest(wire) == hasher.hexdigest()


def test_closed_bits_is_not_available_on_packed():
    graph = nx.path_graph(5)
    pk = PackedGraphKernel.from_graph(graph)
    with pytest.raises(AttributeError):
        pk.closed_bits
    view = pk.bitsets()
    assert view.backend == "int"
    assert view.closed_bits == GraphKernel(graph).closed_bits
    assert view.packed().to_wire() == pk.to_wire()
    assert pk.bitsets() is view
    assert view.bitsets() is view


def test_kernels_form_no_reference_cycle():
    # The int table holds its CSR kernel and nothing points back, so
    # both die by reference counting alone, with the collector off.
    graph = nx.path_graph(6)
    gc.disable()
    try:
        kernel = GraphKernel(graph)
        csr = kernel.packed()
        packed = PackedGraphKernel.from_graph(graph)
        view = packed.bitsets()
        assert view.packed() is not packed
        assert np.shares_memory(view.packed().indices, packed.indices)
        assert view.packed()._closed_csr() is packed._closed_csr()  # shared, not rebuilt
        refs = [weakref.ref(obj) for obj in (kernel, csr, packed, view)]
        del kernel, csr, packed, view
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_bitsets_twin_shares_the_derived_csr_arrays(restore_backend):
    """B&B reads the closed CSR through the bitset table's kernel, and
    ``d2`` through the packed kernel: it is built once for both."""
    set_kernel_backend("packed")
    graph = get_family("ladder").make(20, 0)
    kernel = kernel_for(graph)
    for algorithm in ("exact", "d2"):
        assert solve(graph, algorithm, RunConfig(validate="valid")).valid
    twin = kernel.bitsets().packed()
    assert twin is not kernel
    assert twin._closed_csr() is kernel._closed_csr()
    assert twin.back_ports() is kernel.back_ports()
    assert twin.edge_count() == kernel.edge_count() == graph.number_of_edges()


def test_backend_threshold_boundary(restore_backend):
    set_kernel_backend("auto", threshold=10)
    for n, expected in ((9, "int"), (10, "packed"), (11, "packed")):
        kernel = kernel_for(nx.path_graph(n))
        assert kernel.backend == expected, n


def test_backend_overrides(restore_backend):
    graph = nx.path_graph(6)
    set_kernel_backend("packed")
    invalidate_kernel(graph)
    assert kernel_for(graph).backend == "packed"
    set_kernel_backend("int")
    invalidate_kernel(graph)
    assert kernel_for(graph).backend == "int"
    with pytest.raises(ValueError):
        set_kernel_backend("vector")


def test_env_override_selects_packed():
    script = (
        "import networkx as nx\n"
        "from repro.graphs.kernel import kernel_for\n"
        "print(kernel_for(nx.path_graph(4)).backend)\n"
    )
    env = dict(os.environ, REPRO_KERNEL_BACKEND="packed")
    env["PYTHONPATH"] = "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "packed"


def test_kernel_cache_rebuilds_on_backend_switch(restore_backend):
    graph = nx.path_graph(5)
    set_kernel_backend("int")
    invalidate_kernel(graph)
    first = kernel_for(graph)
    set_kernel_backend("packed")
    second = kernel_for(graph)
    assert first.backend == "int" and second.backend == "packed"
    assert second.labels == first.labels


def test_kernel_from_edges_matches_nx_route(restore_backend):
    graph = nx.gnp_random_graph(40, 0.12, seed=5)
    edges = list(graph.edges)
    for backend in ("int", "packed"):
        set_kernel_backend(backend)
        invalidate_kernel(graph)
        built = kernel_from_edges(edges, n=40)
        want = kernel_for(graph)
        assert built.backend == want.backend == backend
        assert built.packed().to_wire() == want.packed().to_wire()
    # duplicate and reversed edges collapse to canonical CSR
    noisy = edges + [(v, u) for u, v in edges[:10]] + edges[:5]
    assert kernel_from_edges(noisy, n=40).to_wire() == (
        PackedGraphKernel.from_graph(graph).to_wire()
    )


def test_kernel_from_edges_keeps_isolated_vertices():
    kernel = kernel_from_edges([(0, 1)], n=4)
    assert tuple(kernel.labels) == (0, 1, 2, 3)
    assert kernel.packed().degree(2) == 0
    named = kernel_from_edges([("a", "b")], nodes=["c"])
    assert tuple(named.labels) == ("a", "b", "c")


def test_kernel_from_edge_file(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n0 1\n\n1 2\n2 0\n")
    kernel = kernel_from_edge_file(path, n=4)
    want = nx.Graph([(0, 1), (1, 2), (2, 0)])
    want.add_node(3)
    assert kernel.packed().to_wire() == PackedGraphKernel.from_graph(want).to_wire()


@pytest.mark.parametrize("graph", zoo(), ids=lambda g: f"n{g.number_of_nodes()}")
def test_wire_file_round_trip(tmp_path, graph, restore_backend):
    wire = PackedGraphKernel.from_graph(graph).to_wire()
    path = tmp_path / "instance.wire"
    write_wire(wire, path)
    assert read_wire(path) == wire
    for backend in ("int", "packed"):
        set_kernel_backend(backend)
        rebuilt = kernel_from_wire(read_wire(path))
        assert rebuilt.backend == backend
        assert rebuilt.packed().to_wire() == wire


def test_read_wire_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wire"
    path.write_bytes(b"not a wire\n")
    with pytest.raises(ValueError, match="not a repro wire"):
        read_wire(path)


def test_instance_from_wire_splits_on_threshold(restore_backend):
    set_kernel_backend("auto", threshold=10)
    small = PackedGraphKernel.from_graph(nx.path_graph(5)).to_wire()
    large = PackedGraphKernel.from_graph(nx.path_graph(20)).to_wire()
    assert isinstance(instance_from_wire(small), nx.Graph)
    view = instance_from_wire(large)
    assert isinstance(view, KernelView)
    assert view.kernel.backend == "packed"


def test_kernel_view_is_graph_shaped():
    graph = nx.gnp_random_graph(15, 0.3, seed=9)
    view = KernelView(PackedGraphKernel.from_graph(graph))
    assert view.number_of_nodes() == graph.number_of_nodes()
    assert view.number_of_edges() == graph.number_of_edges()
    assert sorted(view.nodes) == sorted(graph.nodes)
    assert len(view) == len(graph)
    assert 0 in view and "missing" not in view
    for v in graph.nodes:
        assert sorted(view.neighbors(v)) == sorted(graph.neighbors(v))
    assert {frozenset(e) for e in view.edges} == {frozenset(e) for e in graph.edges}
    assert kernel_for(view) is view.kernel


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipelines_agree_across_backends(seed, restore_backend):
    graph = nx.gnp_random_graph(35, 0.12, seed=seed)
    set_kernel_backend("int")
    invalidate_kernel(graph)
    want = (
        greedy_dominating_set(graph),
        d2_dominating_set(graph).solution,
        d2_set(graph),
        two_packing_lower_bound(graph),
        true_twin_classes(graph),
        has_true_twins(graph),
    )
    want_reduced, want_map = remove_true_twins(graph)
    set_kernel_backend("packed")
    invalidate_kernel(graph)
    assert kernel_for(graph).backend == "packed"
    got = (
        greedy_dominating_set(graph),
        d2_dominating_set(graph).solution,
        d2_set(graph),
        two_packing_lower_bound(graph),
        true_twin_classes(graph),
        has_true_twins(graph),
    )
    assert got == want
    reduced, mapping = remove_true_twins(graph)
    assert set(reduced.nodes) == set(want_reduced.nodes)
    assert set(reduced.edges) == set(want_reduced.edges)
    assert mapping == want_map
    for v in list(graph.nodes)[:8]:
        want_gamma = gamma(graph, v)
        assert want_gamma == gamma(graph, v)
    solution = got[0]
    assert is_dominating_set(graph, solution)
    assert undominated_vertices(graph, solution) == set()
    assert is_b_dominating_set(graph, solution, list(graph.nodes)[:5])
    assert not is_b_dominating_set(graph, solution, ["missing"])


def test_solve_on_kernel_view_matches_graph(restore_backend):
    set_kernel_backend("auto", threshold=8)
    graph = nx.gnp_random_graph(25, 0.2, seed=4)
    view = KernelView(PackedGraphKernel.from_graph(graph))
    config = RunConfig(validate="valid")
    for name in ("d2", "greedy_central", "greedy", "take_all"):
        got = solve(view, name, config)
        want = solve(graph, name, config)
        assert got.result.solution == want.result.solution
        assert got.valid and want.valid
        assert got.instance == want.instance


def test_solve_many_accepts_views_serial_and_parallel(restore_backend):
    set_kernel_backend("auto", threshold=8)
    graph = nx.gnp_random_graph(20, 0.25, seed=6)
    view = KernelView(PackedGraphKernel.from_graph(graph))
    instances = [({"i": 0}, graph), ({"i": 1}, view), view]
    config = RunConfig(validate="valid")
    serial = solve_many(instances, ["d2", "greedy_central"], config)
    parallel = solve_many(instances, ["d2", "greedy_central"], config, workers=2)
    assert [r.result.solution for r in serial] == [
        r.result.solution for r in parallel
    ]
    assert all(r.valid for r in serial)


def test_simulate_accepts_view_but_rejects_churn(restore_backend):
    from repro.api import ChurnPlan, SimulationSpec

    set_kernel_backend("auto", threshold=8)
    graph = nx.gnp_random_graph(18, 0.25, seed=8)
    view = KernelView(PackedGraphKernel.from_graph(graph))
    assert simulate(view, "d2").outputs == simulate(graph, "d2").outputs
    spec = SimulationSpec(algorithm="d2", seed=1, churn=ChurnPlan(rate=0.3, until=2))
    with pytest.raises(TypeError, match="churn"):
        simulate(view, spec)


def test_greedy_cover_raises_when_uncoverable():
    graph = nx.Graph()
    graph.add_nodes_from(range(3))
    graph.add_edge(0, 1)
    kernel = PackedGraphKernel.from_graph(graph)
    targets = kernel.full_mask
    candidates = kernel.bits_of([0, 1])
    from repro.graphs.packed import greedy_cover_packed

    with pytest.raises(ValueError, match="cannot be dominated"):
        greedy_cover_packed(kernel, targets, candidates)


def test_induced_subkernel_preserves_labels_and_edges():
    graph = nx.gnp_random_graph(20, 0.3, seed=12)
    kernel = PackedGraphKernel.from_graph(graph)
    keep = np.array([i for i in range(kernel.n) if i % 3 != 0], dtype=np.int64)
    sub = kernel.induced(keep)
    kept_labels = {kernel.labels[int(i)] for i in keep}
    want = PackedGraphKernel.from_graph(graph.subgraph(kept_labels))
    assert sub.to_wire() == want.to_wire()


def test_iter_bits_matches_packed_indices():
    flags = np.zeros(130, dtype=bool)
    flags[[0, 63, 64, 127, 129]] = True
    mask = bits_from_flags(flags)
    assert list(iter_bits(mask)) == np.flatnonzero(flags).tolist()
    assert flags_from_bits(mask, 130).tolist() == flags.tolist()
    assert bits_from_flags(np.zeros(0, dtype=bool)) == 0
    assert flags_from_bits(0, 0).size == 0


# -- int-mask searches on a packed kernel, through its bitset view ----------


def _search_instances():
    return {
        "ladder": get_family("ladder").make(10, 0),
        "cactus-twins": get_family("cactus").make(24, 1),
        "outerplanar": get_family("outerplanar").make(20, 2),
        "tuple-labels": nx.grid_2d_graph(3, 5),
    }


@pytest.mark.parametrize("name", sorted(_search_instances()))
def test_int_mask_searches_agree_across_backends(name, restore_backend):
    graph = _search_instances()[name]
    config = RunConfig(validate="ratio", solver="bnb")
    reports = {}
    for backend in ("int", "packed"):
        set_kernel_backend(backend)
        invalidate_kernel(graph)
        reports[backend] = [
            dataclasses.replace(solve(graph, algorithm, config), wall_time=0.0)
            for algorithm in ("algorithm1", "algorithm2", "local_cuts_vc", "exact")
        ]
        assert kernel_for(graph).backend == backend
    invalidate_kernel(graph)
    assert reports["packed"] == reports["int"]
    assert all(report.valid for report in reports["packed"])


def test_int_mask_searches_run_on_a_packed_kernel_view():
    graph = get_family("ladder").make(10, 0)
    kernel = PackedGraphKernel.from_graph(graph)
    view = KernelView(kernel)
    config = RunConfig(validate="valid")
    for algorithm in ("algorithm1", "algorithm2", "local_cuts_vc"):
        got = solve(view, algorithm, config)
        assert got.valid
        assert got.result.solution == solve(graph, algorithm, config).result.solution
    assert kernel.bitsets().memo  # the searches' memo entries live on the view


def test_whole_graph_pipelines_never_build_the_bitset_view(restore_backend):
    set_kernel_backend("packed")
    for family in ("ladder", "outerplanar", "tree"):
        graph = get_family(family).make(40, 1)
        kernel = kernel_for(graph)
        for algorithm in (
            "d2", "take_all", "degree_two", "greedy_central", "d2_vc", "matching_vc", "greedy",
        ):
            assert solve(graph, algorithm, RunConfig(validate="valid")).valid
        assert kernel_for(graph) is kernel
        assert kernel._bitsets is None  # the packed kernel stays O(n + m)
