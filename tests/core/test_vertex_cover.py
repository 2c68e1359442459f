"""Tests for the MVC variants."""

import networkx as nx
import pytest

from repro.api import RunConfig, solve
from repro.core.d2 import d2_dominating_set
from repro.core.vertex_cover import d2_vertex_cover, local_cuts_vertex_cover
from repro.graphs import generators as gen
from repro.graphs import twins
from repro.graphs.kernel import GraphKernel, KernelView
from repro.graphs.packed import PackedGraphKernel
from repro.graphs.random_families import random_outerplanar, random_tree
from repro.solvers.vc import is_vertex_cover, vertex_cover_number


class TestLocalCutsVc:
    def test_valid_on_zoo(self, small_zoo):
        for g in small_zoo:
            result = local_cuts_vertex_cover(g)
            assert is_vertex_cover(g, result.solution), g

    def test_valid_on_random(self):
        for seed in range(4):
            for g in (random_tree(16, seed), random_outerplanar(11, seed)):
                result = local_cuts_vertex_cover(g)
                assert is_vertex_cover(g, result.solution)

    def test_edgeless(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        assert local_cuts_vertex_cover(g).solution == set()

    def test_phases_cover_solution(self, fan5):
        result = local_cuts_vertex_cover(fan5)
        union = set().union(*result.phases.values())
        assert union == result.solution

    def test_takes_all_two_cut_vertices(self):
        # unlike the MDS variant there is no interesting filter
        g = gen.ladder(6)
        result = local_cuts_vertex_cover(g)
        from repro.graphs.local_cuts import local_two_cuts
        from repro.core.radii import RadiusPolicy

        policy = RadiusPolicy.practical()
        expected = set().union(
            *local_two_cuts(g, policy.two_cut_radius, minimal=True)
        )
        assert expected <= result.solution

    def test_ratio_on_paper_families(self):
        for seed in range(3):
            g = random_outerplanar(10, seed)
            result = local_cuts_vertex_cover(g)
            assert len(result.solution) <= 50 * vertex_cover_number(g)


class TestD2Vc:
    def test_valid_on_zoo(self, small_zoo):
        for g in small_zoo:
            result = d2_vertex_cover(g)
            assert is_vertex_cover(g, result.solution), g

    def test_valid_on_cliques(self):
        for n in (3, 5, 7):
            g = nx.complete_graph(n)
            result = d2_vertex_cover(g)
            assert is_vertex_cover(g, result.solution)

    def test_t_approx_shape_on_k2t(self):
        # on K_{2,t} (K_{2,t+1}-free) the measured ratio stays below t+1.
        for t in (3, 5):
            g = nx.complete_bipartite_graph(2, t)
            result = d2_vertex_cover(g)
            assert len(result.solution) <= (t + 1) * vertex_cover_number(g)

    def test_edgeless(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        assert d2_vertex_cover(g).solution == set()

    def test_rounds_constant(self, small_zoo):
        assert {d2_vertex_cover(g).rounds for g in small_zoo} == {4}

    def test_patch_metadata(self, small_zoo):
        for g in small_zoo:
            result = d2_vertex_cover(g)
            assert result.metadata["patched_vertices"] == len(result.phases["patch"])
            assert set().union(*result.phases.values()) == result.solution

    @pytest.mark.parametrize("validate", ["valid", "ratio"])
    @pytest.mark.parametrize("build", [GraphKernel, PackedGraphKernel.from_graph])
    def test_runs_on_kernel_view(self, build, validate):
        g = gen.fan(10)
        g.add_edges_from([(100, 0), (200, 201)])
        report = solve(KernelView(build(g)), "d2_vc", RunConfig(validate=validate))
        assert report.valid is True
        assert report.result.solution == d2_vertex_cover(g).solution
        if validate == "ratio":
            assert report.optimum_size == vertex_cover_number(g)

    def test_twin_fixpoint_runs_once_per_kernel(self, monkeypatch):
        calls = []
        original = twins.twin_survivor_indices

        def counting(kernel):
            calls.append(kernel.n)
            return original(kernel)

        monkeypatch.setattr(twins, "twin_survivor_indices", counting)
        g = gen.fan(12)
        d2_dominating_set(g)
        d2_vertex_cover(g)
        twins.twin_free_graph(g)
        twins.remove_true_twins(g)
        assert calls == [g.number_of_nodes()]
