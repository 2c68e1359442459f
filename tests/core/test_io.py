"""Tests for JSON persistence of graphs, results, and corpora."""

import networkx as nx
import pytest

from repro.core.algorithm1 import algorithm1
from repro.core.results import AlgorithmResult
from repro.graphs import generators as gen
from repro.io import (
    from_dict,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_rows,
    read_corpus,
    save_graph,
    save_rows,
    to_dict,
    write_corpus,
)


class TestGraphRoundTrip:
    def test_dict_round_trip(self, fan5):
        restored = graph_from_dict(graph_to_dict(fan5))
        assert set(restored.nodes) == set(fan5.nodes)
        assert set(map(frozenset, restored.edges)) == set(map(frozenset, fan5.edges))

    def test_file_round_trip(self, tmp_path, ladder5):
        path = tmp_path / "g.json"
        save_graph(ladder5, path, meta={"family": "ladder"})
        restored = load_graph(path)
        assert restored.number_of_edges() == ladder5.number_of_edges()

    def test_stable_serialisation(self, cycle6):
        assert graph_to_dict(cycle6) == graph_to_dict(cycle6)

    def test_isolated_nodes_preserved(self):
        g = nx.Graph()
        g.add_nodes_from([3, 1])
        g.add_edge(1, 3)
        g.add_node(9)
        restored = graph_from_dict(graph_to_dict(g))
        assert 9 in restored.nodes


class TestResultRoundTrip:
    def test_algorithm_result(self, fan5):
        result = algorithm1(fan5)
        restored = from_dict(AlgorithmResult, to_dict(result))
        assert restored.solution == result.solution
        assert restored.rounds == result.rounds
        assert restored.phases.keys() == result.phases.keys()

    def test_unjsonable_metadata_dropped(self, fan5):
        result = algorithm1(fan5)
        result.metadata["weird"] = object()
        data = to_dict(result)
        assert "weird" not in data["metadata"]


class TestRows:
    def test_rows_round_trip(self, tmp_path):
        rows = [{"t": 3, "ratio": 2.5}, {"t": 4, "ratio": 2.0}]
        path = tmp_path / "rows.json"
        save_rows(rows, path)
        assert load_rows(path) == rows


class TestCorpus:
    def test_write_and_read(self, tmp_path):
        written = write_corpus(tmp_path / "corpus", ["path", "fan"], [8, 12], seeds=(0,))
        assert len(written) == 4
        loaded = read_corpus(tmp_path / "corpus")
        assert len(loaded) == 4
        metas = {(m["family"], m["size"]) for m, _ in loaded}
        assert ("fan", 12) in metas

    def test_instances_usable(self, tmp_path):
        write_corpus(tmp_path / "c", ["ladder"], [10])
        from repro.analysis.domination import is_dominating_set

        for _meta, graph in read_corpus(tmp_path / "c"):
            result = algorithm1(graph)
            assert is_dominating_set(graph, result.solution)
