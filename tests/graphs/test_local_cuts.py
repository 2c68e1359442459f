"""Tests for r-local cuts and interesting vertices (Definition 2.1)."""

import networkx as nx

from repro.graphs import generators as gen
from repro.graphs.cuts import cut_vertices
from repro.graphs.kernel import invalidate_kernel
from repro.graphs.local_cuts import (
    interesting_vertices,
    interesting_vertices_of_cuts,
    is_interesting_vertex,
    is_local_one_cut,
    is_local_two_cut,
    is_locally_k_connected,
    local_cut_subgraph,
    local_one_cuts,
    local_two_cuts,
)


class TestLocalOneCuts:
    def test_long_cycle_every_vertex_is_local_one_cut(self):
        # The paper's example: on a long cycle every vertex is a local
        # 1-cut though none is a global cut vertex.
        g = gen.cycle(12)
        assert local_one_cuts(g, 2) == set(g.nodes)
        assert cut_vertices(g) == set()

    def test_short_cycle_no_local_one_cut(self):
        # With radius r, a cycle of length <= 2r + 1 closes up in the
        # arena, so the vertex no longer separates it.
        g = gen.cycle(5)
        assert local_one_cuts(g, 2) == set()

    def test_threshold_cycle_length(self):
        # C6 with r=2: arena around v is a 5-path, v is its center: cut.
        g = gen.cycle(6)
        assert local_one_cuts(g, 2) == set(g.nodes)

    def test_global_cut_vertices_are_local(self, two_triangles_bridge):
        assert {2, 3} <= local_one_cuts(two_triangles_bridge, 3)

    def test_path_interior(self, path5):
        assert local_one_cuts(path5, 1) == {1, 2, 3}

    def test_star_hub_only(self, star6):
        assert local_one_cuts(star6, 1) == {0}

    def test_monotone_in_radius(self):
        # No r-local cuts implies no r'-local cuts for r' > r is FALSE;
        # the true monotonicity: an r'-local cut may disappear for
        # larger r (arenas grow).  Check the paper's direction on C12.
        g = gen.cycle(12)
        assert local_one_cuts(g, 5) == set(g.nodes)
        assert local_one_cuts(g, 6) == set()


class TestLocalTwoCuts:
    def test_ladder_rungs(self, ladder5):
        cuts = set(local_two_cuts(ladder5, 2))
        assert frozenset({4, 5}) in cuts

    def test_cycle_pairs_cut_but_not_minimally(self):
        # On a long cycle the arena of {0, 2} is a path: the pair cuts
        # it, but 0 alone already does, so the pair is not minimal.
        g = gen.cycle(12)
        assert frozenset({0, 2}) in set(local_two_cuts(g, 2, minimal=False))
        assert frozenset({0, 2}) not in set(local_two_cuts(g, 2, minimal=True))

    def test_short_cycle_distance2_pair_is_minimal(self):
        # On C6 with r=2 the arena of {0, 2} is the whole cycle: a
        # minimal local 2-cut (no single vertex cuts a cycle).  The
        # opposite pair {0, 3} is too far apart for radius 2.
        g = gen.cycle(6)
        cuts = set(local_two_cuts(g, 2, minimal=True))
        assert frozenset({0, 2}) in cuts
        assert frozenset({0, 3}) not in cuts
        assert frozenset({0, 3}) in set(local_two_cuts(g, 3, minimal=True))

    def test_minimal_excludes_one_cut_pairs(self, path5):
        cuts = local_two_cuts(path5, 2, minimal=True)
        for cut in cuts:
            for v in cut:
                arena = local_cut_subgraph(path5, set(cut), 2)
                assert not is_local_one_cut(path5, v, 2) or True
        # On a path, pairs of interior vertices contain 1-cuts: the
        # minimal filter inside the arena must reject pairs whose single
        # vertex already cuts the arena.
        for cut in cuts:
            u, v = tuple(cut)
            assert is_local_two_cut(path5, u, v, 2, minimal=True)

    def test_is_local_two_cut_rejects_far_pairs(self):
        g = gen.cycle(12)
        assert not is_local_two_cut(g, 0, 6, 2)  # distance 6 > r = 2

    def test_is_local_two_cut_rejects_same_vertex(self, cycle6):
        assert not is_local_two_cut(cycle6, 0, 0, 2)

    def test_complete_graph_locally_3_connected(self):
        g = nx.complete_graph(6)
        assert is_locally_k_connected(g, 2, 1)
        assert is_locally_k_connected(g, 2, 2)

    def test_cycle_not_locally_1_connected(self):
        assert not is_locally_k_connected(gen.cycle(12), 2, 1)


class TestInterestingVertices:
    def test_clique_with_pendants_has_no_interesting_vertices(self, clique_pendants5):
        # The Section 4 example: every clique vertex v is in the 2-cut
        # {0, v} but N[v] ⊆ N[0], and 0's cut components are all adjacent
        # to the partner — nothing is interesting.
        assert interesting_vertices(clique_pendants5, 3) == set()

    def test_ladder_interior_rungs_interesting(self):
        g = gen.ladder(7)
        interesting = interesting_vertices(g, 2)
        # middle rung vertices (columns 2..4) are interesting
        assert {4, 5, 6, 7, 8, 9} <= interesting

    def test_c6_interesting_only_with_opposite_pairs(self):
        # At r=2 only distance-2 cuts exist; each leaves one singleton
        # component adjacent to the partner, so nothing is interesting.
        # At r=3 the opposite cuts {i, i+3} qualify and, by symmetry,
        # every vertex becomes interesting (the Section 5.3 C6 example).
        g = gen.cycle(6)
        assert interesting_vertices(g, 2) == set()
        assert interesting_vertices(g, 3) == set(g.nodes)

    def test_long_cycle_has_no_interesting_vertices(self):
        # On C12 with r=3 every candidate pair's arena is a path, where
        # single vertices already cut — no *minimal* local 2-cut exists,
        # hence no interesting vertex (the 1-cut rule handles cycles).
        g = gen.cycle(12)
        assert interesting_vertices(g, 3) == set()

    def test_star_leaves_not_interesting(self, star6):
        assert interesting_vertices(star6, 2) == set()

    def test_of_cuts_matches_direct_enumeration(self, small_zoo):
        for g in small_zoo:
            cuts = local_two_cuts(g, 2, minimal=True)
            via_cuts = interesting_vertices_of_cuts(g, cuts, 2)
            direct = interesting_vertices(g, 2)
            assert via_cuts == direct

    def test_is_interesting_single_vertex(self):
        g = gen.ladder(7)
        assert is_interesting_vertex(g, 6, 2)


class TestCutListMemo:
    def test_mutating_returned_one_cuts_leaves_memo_intact(self):
        g = gen.cycle(8)
        first = local_one_cuts(g, 2)
        first.clear()
        assert local_one_cuts(g, 2) == set(g.nodes)

    def test_mutating_returned_two_cuts_leaves_memo_intact(self):
        g = gen.ladder(6)
        expected = local_two_cuts(g, 3, minimal=True)
        returned = local_two_cuts(g, 3, minimal=True)
        returned.clear()
        assert local_two_cuts(g, 3, minimal=True) == expected
        assert expected

    def test_memo_keys_separate_radius_and_minimality(self):
        g = gen.cycle(8)
        assert len(local_two_cuts(g, 2, minimal=False)) == 16
        assert local_two_cuts(g, 2, minimal=True) == []
        assert len(local_two_cuts(g, 1, minimal=False)) == 8
        assert local_one_cuts(g, 3) == set(g.nodes)
        assert local_one_cuts(g, 4) == set()

    def test_rewire_plus_invalidate_matches_fresh_graph(self):
        g = gen.ladder(6)
        local_one_cuts(g, 2)
        local_two_cuts(g, 3, minimal=True)  # memo warm
        g.remove_edge(0, 1)
        g.add_edge(0, 3)  # same node count: the kernel is not rebuilt
        invalidate_kernel(g)
        fresh = nx.Graph(g.edges)
        assert local_one_cuts(g, 2) == local_one_cuts(fresh, 2)
        assert local_two_cuts(g, 3, minimal=True) == local_two_cuts(fresh, 3, minimal=True)
