"""Registry conformance: every algorithm, in every mode it declares, on
every label kind, through both instance containers.

A cell is one ``solve`` call; it must return a valid report.  The two
graphs are small: a cactus with true twins, so the Theorem 4.1
pipelines cut the instance down to its twin-free copy, and an
outerplanar graph.  Labels are the ints the families build, or the
same graph relabelled onto strs, tuples, or a mix of ints and strs
(which repr order interleaves).
"""

import pytest

from repro.api import RunConfig, algorithm_names, solve
from repro.api.registry import get_algorithm
from repro.graphs.families import get_family
from repro.graphs.kernel import KernelView, kernel_for
from repro.graphs.twins import remove_true_twins
from tests.oracles.cases import mixed_labelled, str_labelled, tuple_labelled

GRAPHS = {
    "cactus": get_family("cactus").make(12, 1),
    "outerplanar": get_family("outerplanar").make(10, 0),
}
LABELS = {
    "int": lambda graph: graph,
    "str": str_labelled,
    "tuple": tuple_labelled,
    "mixed": mixed_labelled,
}
CELLS = [(name, mode) for name in algorithm_names() for mode in get_algorithm(name).modes]


def test_cactus_has_true_twins():
    reduced, _ = remove_true_twins(GRAPHS["cactus"])
    assert reduced.number_of_nodes() < GRAPHS["cactus"].number_of_nodes()


@pytest.mark.parametrize("name,mode", CELLS, ids=[f"{n}-{m}" for n, m in CELLS])
def test_every_cell_gives_a_valid_report(name, mode):
    config = RunConfig(mode=mode, validate="ratio")
    for graph_name, base in GRAPHS.items():
        for label_name, relabel in LABELS.items():
            graph = relabel(base)
            for container in (graph, KernelView(kernel_for(graph))):
                cell = (graph_name, label_name, type(container).__name__)
                report = solve(container, name, config)
                assert report.valid is True, cell
                assert report.ratio is not None and report.ratio >= 1.0, cell
