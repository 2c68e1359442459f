"""Tests for identifier assignment schemes."""

import networkx as nx
import pytest

from repro.analysis.domination import is_dominating_set
from repro.api import RunConfig, simulate, solve
from repro.graphs import generators as gen
from repro.local_model.identifiers import identity_ids, shuffled_ids, spread_ids


class TestSchemes:
    def test_identity_on_integer_labels(self, path5):
        assert identity_ids(path5) == {v: v for v in path5.nodes}

    def test_identity_on_non_integer_labels(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        ids = identity_ids(g)
        assert set(ids.values()) == {0, 1}

    def test_identity_on_mixed_labels_uses_indices(self):
        # An int label kept as its id would collide with another label's
        # repr-order index (here "tail" gets 0), so no label is kept.
        g = nx.path_graph(4)
        g.add_edge("tail", 0)
        assert identity_ids(g) == {v: i for i, v in enumerate(sorted(g.nodes, key=repr))}
        report = solve(g, "algorithm1", RunConfig(mode="simulate", validate="valid"))
        assert report.valid is True
        assert is_dominating_set(g, simulate(g, "d2").chosen)

    def test_shuffled_is_permutation(self, cycle6):
        ids = shuffled_ids(cycle6, seed=5)
        assert sorted(ids.values()) == list(range(6))

    def test_shuffled_deterministic_per_seed(self, cycle6):
        assert shuffled_ids(cycle6, seed=5) == shuffled_ids(cycle6, seed=5)
        assert shuffled_ids(cycle6, seed=5) != shuffled_ids(cycle6, seed=6)

    def test_spread_ids_noncontiguous(self, path5):
        ids = spread_ids(path5, stride=10, offset=3)
        assert sorted(ids.values()) == [3, 13, 23, 33, 43]

    def test_spread_rejects_bad_stride(self, path5):
        with pytest.raises(ValueError):
            spread_ids(path5, stride=0)


class TestAlgorithmsUnderIdSchemes:
    def test_d2_output_independent_of_ids(self, small_zoo):
        """D2 membership is structural: identifier schemes must not
        change which *vertices* are selected."""
        from repro.core.d2 import d2_dominating_set

        for g in small_zoo:
            base = d2_dominating_set(g).solution
            assert d2_dominating_set(g).solution == base  # deterministic

    def test_gather_under_spread_ids(self, cycle6):
        from repro.local_model.gather import gather_views

        ids = spread_ids(cycle6)
        views, _ = gather_views(cycle6, 2, ids)
        assert len(views) == 6
