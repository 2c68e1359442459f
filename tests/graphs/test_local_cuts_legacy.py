"""Differential tests: bitset local-cut pipeline vs verbatim legacy code.

The reference implementations live in :mod:`tests.oracles`: the
pre-kernel subgraph-walking versions of ``repro.graphs.cuts``,
``repro.graphs.local_cuts``, ``repro.graphs.twins``,
``repro.core.interesting`` and ``repro.graphs.util.weak_diameter``, so
every rewritten function is pinned against the semantics the repo
shipped with — including output *order* where the contract is a list.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import pytest

from repro.core.algorithm1 import _phase_sets, _residual_components, algorithm1
from repro.core.interesting import (
    almost_interesting_vertices,
    friends,
    globally_interesting_vertices,
    interesting_cuts,
    is_globally_interesting,
)
from repro.core.radii import RadiusPolicy
from repro.graphs import generators as gen
from repro.graphs.cuts import (
    attached_components,
    components_after_removal,
    crossing_two_cuts,
    cut_vertices_by_definition,
    is_cut,
    is_minimal_cut,
    minimal_two_cuts,
    two_cuts,
)
from repro.graphs import local_cuts as local_cuts_module
from repro.graphs.kernel import GraphKernel, invalidate_kernel, kernel_for
from repro.graphs.local_cuts import (
    interesting_vertices,
    interesting_vertices_of_cuts,
    is_interesting_vertex,
    is_local_one_cut,
    is_local_two_cut,
    local_one_cuts,
    local_two_cuts,
)
from repro.graphs.twins import remove_true_twins, true_twin_classes
from repro.graphs.util import weak_diameter
from tests.oracles.cases import tuple_labelled, unsortable_mixed, with_isolated
from tests.oracles.core import (
    legacy_almost_interesting_vertices,
    legacy_friends,
    legacy_globally_interesting_vertices,
    legacy_interesting_cuts,
    legacy_is_globally_interesting,
    legacy_phase_sets,
    legacy_residual_components,
)
from tests.oracles.graphs import (
    legacy_attached_components,
    legacy_components_after_removal,
    legacy_crossing_two_cuts,
    legacy_cut_vertices_by_definition,
    legacy_interesting_vertices,
    legacy_interesting_vertices_of_cuts,
    legacy_is_cut,
    legacy_is_interesting_vertex,
    legacy_is_local_one_cut,
    legacy_is_local_two_cut,
    legacy_is_minimal_cut,
    legacy_local_one_cuts,
    legacy_local_two_cuts,
    legacy_minimal_two_cuts,
    legacy_remove_true_twins,
    legacy_true_twin_classes,
    legacy_two_cuts,
    legacy_two_cuts_uncached,
    legacy_weak_diameter,
)


def diff_graphs():
    """The differential zoo: random, family, odd-label, degenerate."""
    cases = [
        ("gnp10", nx.gnp_random_graph(10, 0.3, seed=2)),
        ("gnp14", nx.gnp_random_graph(14, 0.25, seed=5)),
        ("gnp18", nx.gnp_random_graph(18, 0.15, seed=9)),
        ("gnp22-disconnected", nx.gnp_random_graph(22, 0.08, seed=13)),
        ("cycle12", gen.cycle(12)),
        ("ladder6", gen.ladder(6)),
        ("theta33", gen.theta(3, 3)),
        ("clique-pendants4", gen.clique_with_pendants(4)),
        ("cactus24", gen.cactus_chain(2, 4)),
        ("book3", gen.book(3)),
        ("tuple-ladder", tuple_labelled(gen.ladder(4))),
        ("unsortable-mixed", unsortable_mixed()),
        ("zero-node", nx.Graph()),
        ("isolated", with_isolated(gen.ladder(3), [100, 101])),
        # Hub graphs: most candidate pairs of a vertex share one arena,
        # so the enumeration settles them with one articulation scan.
        ("star9", gen.star(9)),
        ("fan10", gen.fan(10)),
        ("wheel8", gen.wheel(8)),
        ("fan-chain3x4", gen.fan_chain(3, 4)),
        ("clique-pendants8", gen.clique_with_pendants(8)),
        ("hubs-disconnected", hubs_disconnected()),
    ]
    return cases


def hubs_disconnected():
    """A star, a wheel, a fan with a pendant on its apex, and a lone edge,
    side by side."""
    fan = gen.fan(6)
    fan.add_edge(0, 7)  # the apex's arena minus the apex: the path and {7}
    parts = [gen.star(7), gen.wheel(6), fan, nx.path_graph(2)]
    return nx.union_all(parts, rename=("s", "w", "f", "e"))  # "f0" is the apex


GRAPHS = diff_graphs()
IDS = [name for name, _ in GRAPHS]
JUST_GRAPHS = [g for _, g in GRAPHS]


# -- differential: local cuts ----------------------------------------------


class TestLocalCutsAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_local_one_cuts(self, graph):
        for r in (1, 2, 3):
            assert local_one_cuts(graph, r) == legacy_local_one_cuts(graph, r)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_local_two_cuts_order_and_content(self, graph):
        for r in (2, 3):
            for minimal in (True, False):
                assert local_two_cuts(graph, r, minimal=minimal) == (
                    legacy_local_two_cuts(graph, r, minimal=minimal)
                )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_pairwise_two_cut_tests(self, graph):
        nodes = sorted(graph.nodes, key=repr)[:8]
        for u in nodes:
            for v in nodes:
                assert is_local_two_cut(graph, u, v, 2) == (
                    legacy_is_local_two_cut(graph, u, v, 2)
                )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_interesting_vertices(self, graph):
        for r in (2, 3):
            assert interesting_vertices(graph, r) == legacy_interesting_vertices(
                graph, r
            )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_interesting_of_cuts_matches_legacy_on_legacy_cuts(self, graph):
        cuts = legacy_local_two_cuts(graph, 2, minimal=True)
        assert interesting_vertices_of_cuts(graph, cuts, 2) == (
            legacy_interesting_vertices_of_cuts(graph, cuts, 2)
        )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_single_vertex_probes(self, graph):
        for v in sorted(graph.nodes, key=repr)[:6]:
            assert is_local_one_cut(graph, v, 2) == legacy_is_local_one_cut(
                graph, v, 2
            )
            assert is_interesting_vertex(graph, v, 2) == (
                legacy_is_interesting_vertex(graph, v, 2)
            )


# -- the bucketed 2-cut enumeration ----------------------------------------


class TestBucketedTwoCuts:
    """One articulation scan per ``(u, arena)`` bucket, pinned to the
    per-pair flood fills it replaced, order included."""

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_matches_per_pair_enumeration(self, graph):
        kernel = kernel_for(graph).bitsets()
        for r in (1, 2, 3):
            for minimal in (True, False):
                assert list(local_cuts_module._two_cuts_uncached(kernel, r, minimal)) == (
                    list(legacy_two_cuts_uncached(kernel, r, minimal))
                )

    def test_zoo_reaches_every_case(self, monkeypatch):
        """The zoo drives every outcome of the bucketed test: ``A − u``
        connected, two components with a partner ``{v}`` alone in one,
        three or more components, and (on the flood-fill side) an empty
        rest."""
        seen = set()
        bucket_hits = local_cuts_module._bucket_hits
        splits = local_cuts_module._splits_arena

        def recording_bucket_hits(kernel, arena, u, partners, *args):
            count, sizes, _ = kernel.articulation_scan(arena & ~(1 << u))
            if count == 1:
                seen.add("connected")
            elif count == 2 and any(sizes[v] == 1 for v in partners):
                seen.add("two, one a lone partner")
            elif count >= 3:
                seen.add("three or more")
            return bucket_hits(kernel, arena, u, partners, *args)

        def recording_splits(kernel, arena, cut_mask):
            if not arena & ~cut_mask:
                seen.add("empty rest")
            return splits(kernel, arena, cut_mask)

        monkeypatch.setattr(local_cuts_module, "_bucket_hits", recording_bucket_hits)
        monkeypatch.setattr(local_cuts_module, "_splits_arena", recording_splits)
        for graph in JUST_GRAPHS:
            kernel = kernel_for(graph).bitsets()
            for r in (2, 3):
                for minimal in (True, False):
                    list(local_cuts_module._two_cuts_uncached(kernel, r, minimal))
        assert seen == {"connected", "two, one a lone partner", "three or more", "empty rest"}

    def test_star_work_is_linear(self, monkeypatch):
        """On a star every pair of a vertex shares the whole graph as
        arena: at most n scans plus flood fills, not one to three fills
        for each of the ~n²/2 pairs."""
        graph = gen.star(48)
        n = graph.number_of_nodes()
        kernel = kernel_for(graph).bitsets()
        work = {"scans": 0, "fills": 0}
        scan = GraphKernel.articulation_scan
        fill = GraphKernel.component_bits

        def counting_scan(self, mask):
            work["scans"] += 1
            return scan(self, mask)

        def counting_fill(self, seed, within):
            work["fills"] += 1
            return fill(self, seed, within)

        monkeypatch.setattr(GraphKernel, "articulation_scan", counting_scan)
        monkeypatch.setattr(GraphKernel, "component_bits", counting_fill)
        cuts = list(local_cuts_module._two_cuts_uncached(kernel, 3, True))
        assert work["scans"] + work["fills"] <= n
        work.update(scans=0, fills=0)
        assert list(legacy_two_cuts_uncached(kernel, 3, True)) == cuts
        assert work["scans"] == 0 and work["fills"] >= n * (n - 1) // 2


# -- differential: global cuts ---------------------------------------------


class TestCutsAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_is_cut_samples(self, graph):
        nodes = sorted(graph.nodes, key=repr)
        samples = [set(nodes[:k]) for k in (0, 1, 2, len(nodes))]
        samples += [{v} for v in nodes[:6]]
        samples += [set(pair) for pair in combinations(nodes[:6], 2)]
        for cut in samples:
            assert is_cut(graph, cut) == legacy_is_cut(graph, cut)
            assert is_minimal_cut(graph, cut) == legacy_is_minimal_cut(graph, cut)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_cut_vertex_enumerations(self, graph):
        assert cut_vertices_by_definition(graph) == (
            legacy_cut_vertices_by_definition(graph)
        )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_two_cut_enumerations_ordered(self, graph):
        assert two_cuts(graph) == legacy_two_cuts(graph)
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_components_after_removal_ordered(self, graph):
        nodes = sorted(graph.nodes, key=repr)
        samples = [set(), set(nodes[:1]), set(nodes[:2]), set(nodes[::3])]
        for cut in samples:
            assert components_after_removal(graph, cut) == (
                legacy_components_after_removal(graph, cut)
            )
            assert attached_components(graph, cut) == (
                legacy_attached_components(graph, cut)
            )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_crossing_pairs(self, graph):
        cuts = legacy_minimal_two_cuts(graph)[:8]
        for c1, c2 in combinations(cuts, 2):
            assert crossing_two_cuts(graph, c1, c2) == (
                legacy_crossing_two_cuts(graph, c1, c2)
            )


# -- differential: twins + weak diameter -----------------------------------


class TestTwinsAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_twin_classes_ordered(self, graph):
        assert true_twin_classes(graph) == legacy_true_twin_classes(graph)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_remove_true_twins(self, graph):
        reduced, mapping = remove_true_twins(graph)
        legacy_reduced, legacy_mapping = legacy_remove_true_twins(graph)
        assert set(reduced.nodes) == set(legacy_reduced.nodes)
        assert {frozenset(e) for e in reduced.edges} == (
            {frozenset(e) for e in legacy_reduced.edges}
        )
        assert mapping == legacy_mapping
        assert list(reduced.nodes) == list(legacy_reduced.nodes)  # same order

    def test_twin_rich_iteration(self):
        graph = nx.complete_graph(6)
        graph.add_edge(0, 10)
        graph.add_edge(10, 11)
        reduced, mapping = remove_true_twins(graph)
        legacy_reduced, legacy_mapping = legacy_remove_true_twins(graph)
        assert set(reduced.nodes) == set(legacy_reduced.nodes)
        assert mapping == legacy_mapping


class TestWeakDiameterAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_weak_diameter_samples(self, graph):
        nodes = sorted(graph.nodes, key=repr)
        samples = [nodes[:1], nodes[:3], nodes[: len(nodes) // 2], nodes]
        for subset in samples:
            try:
                expected = legacy_weak_diameter(graph, subset)
            except ValueError:
                with pytest.raises(ValueError):
                    weak_diameter(graph, subset)
            else:
                assert weak_diameter(graph, subset) == expected

    def test_absent_vertex_is_value_error_and_d_bounded_false(self):
        # A stale vertex set must stay a ValueError (not KeyError), so
        # is_d_bounded reports False instead of crashing.
        from repro.graphs.util import is_d_bounded

        graph = gen.path(4)
        with pytest.raises(ValueError):
            weak_diameter(graph, [0, "ghost"])
        assert not is_d_bounded(graph, [0, "ghost"], 10)
        assert weak_diameter(graph, ["ghost"]) == 0  # ≤1 vertex: no lookup


# -- differential: global interesting vocabulary ---------------------------


class TestGlobalInterestingAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_global_sets(self, graph):
        assert globally_interesting_vertices(graph) == (
            legacy_globally_interesting_vertices(graph)
        )
        assert interesting_cuts(graph) == legacy_interesting_cuts(graph)
        assert almost_interesting_vertices(graph) == (
            legacy_almost_interesting_vertices(graph)
        )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_per_cut_orientations(self, graph):
        for cut in legacy_minimal_two_cuts(graph)[:10]:
            for v in cut:
                assert is_globally_interesting(graph, v, cut) == (
                    legacy_is_globally_interesting(graph, v, cut)
                )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_friends(self, graph):
        for u in sorted(graph.nodes, key=repr)[:6]:
            assert friends(graph, u) == legacy_friends(graph, u)

    def test_friends_of_absent_vertex_is_empty(self):
        # Legacy contract: a label outside the graph has no cuts, hence
        # no friends — it must not raise.
        graph = gen.ladder(4)
        assert friends(graph, "ghost") == legacy_friends(graph, "ghost") == set()


# -- algorithm1: phase sets byte-identical, modes agree --------------------


class TestAlgorithm1Pinned:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_phase_sets_byte_identical(self, graph):
        policy = RadiusPolicy.practical()
        reduced, _ = legacy_remove_true_twins(graph)
        expected = legacy_phase_sets(reduced, policy)
        actual = _phase_sets(reduced, policy)
        assert actual == expected
        assert _residual_components(reduced, *actual) == (
            legacy_residual_components(reduced, *expected)
        )

    def test_fast_and_simulate_modes_agree(self):
        for graph in (gen.cycle(6), gen.ladder(4), gen.clique_with_pendants(4)):
            fast = algorithm1(graph, mode="fast")
            simulated = algorithm1(graph, mode="simulate")
            assert fast.solution == simulated.solution


# -- cache invalidation ----------------------------------------------------


class TestDerivedCacheInvalidation:
    def test_ball_mask_cache_cleared_by_invalidate(self):
        graph = gen.cycle(8)
        assert local_one_cuts(graph, 2) == set(graph.nodes)  # cache warm
        graph.remove_edge(0, 1)
        graph.add_edge(0, 2)  # same node and edge count
        invalidate_kernel(graph)
        assert local_one_cuts(graph, 2) == legacy_local_one_cuts(graph, 2)
        assert local_two_cuts(graph, 2) == legacy_local_two_cuts(graph, 2)

    def test_minimal_two_cuts_cache_cleared_by_invalidate(self):
        graph = gen.cycle(6)
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)
        graph.remove_edge(0, 1)
        graph.add_edge(0, 3)
        invalidate_kernel(graph)
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)

    def test_minimal_two_cuts_cached_list_is_private(self):
        graph = gen.cycle(6)
        first = minimal_two_cuts(graph)
        first.clear()  # mutating the returned list must not poison the memo
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)

    def test_ball_masks_distinct_per_radius(self):
        graph = gen.cycle(12)
        assert local_one_cuts(graph, 5) == set(graph.nodes)
        assert local_one_cuts(graph, 6) == set()
