"""Folklore baselines from Table 1 and the introduction.

* trees — take every vertex of degree ≥ 2 (3-approximation, 2 rounds;
  footnote 3: one round to count neighbors, one for the paper's model
  bookkeeping);
* ``K_{1,t}``-minor-free — take *all* vertices (0 rounds,
  t-approximation via ``MDS ≥ n/(Δ+1)``, footnote 4);
* bounded-diameter graphs — gather everything in ``diam(G)`` rounds and
  solve exactly (footnote 2: every vertex sees the whole graph and runs
  the same deterministic brute force);
* the paper's Table 1 row "outerplanar 5-approx in 2 rounds" [4] is
  generalised by Theorem 4.4 itself (``t = 3`` gives ``2t − 1 = 5``), so
  the outerplanar baseline is :func:`repro.core.d2.d2_dominating_set`.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np

from repro.core.results import AlgorithmResult
from repro.graphs.kernel import kernel_for
from repro.graphs.packed import bits_from_flags, uncovered_component_roots
from repro.graphs.util import graph_diameter
from repro.solvers.opt_cache import optimum_solution

Vertex = Hashable


def degree_two_dominating_set(graph: nx.Graph) -> AlgorithmResult:
    """All vertices of degree ≥ 2 (components of size ≤ 2 take their min).

    On a tree with at least three vertices this is the folklore 3-approx
    (leaves are dominated by their support vertices, which have degree
    ≥ 2).  On general connected graphs the output is still a dominating
    set; the ratio guarantee is tree-specific.

    Degrees are CSR row lengths, where a self-loop counts once rather
    than twice; that changes nothing, because a vertex whose only edge
    is a self-loop is its own component and joins as its root.
    """
    if graph.number_of_nodes() == 0:
        return AlgorithmResult(name="degree_two", solution=set(), rounds=0)
    kernel = kernel_for(graph).packed()
    chosen = np.diff(kernel.indptr) >= 2
    chosen[uncovered_component_roots(kernel, chosen)] = True
    solution = kernel.labels_of(bits_from_flags(chosen))
    return AlgorithmResult(
        name="degree_two",
        solution=solution,
        rounds=2,
        phases={"degree_two": set(solution)},
    )


def take_all_vertices(graph: nx.Graph) -> AlgorithmResult:
    """The 0-round baseline: every vertex joins the dominating set.

    A t-approximation on ``K_{1,t}``-minor-free graphs (maximum degree
    ≤ t − 1, so ``MDS ≥ n/t``).
    """
    return AlgorithmResult(
        name="take_all",
        solution=set(graph.nodes),
        rounds=0,
        phases={"all": set(graph.nodes)},
    )


def full_gather_exact(
    graph: nx.Graph, solver: str = "milp", use_cache: bool = True
) -> AlgorithmResult:
    """Exact MDS after gathering the whole graph (footnote 2).

    Charges ``diam(G) + 1`` rounds — the cost of every vertex learning
    ``G`` entirely — and returns the canonical optimal set every vertex
    computes identically.  ``solver`` picks the exact backend:
    ``"milp"`` (scipy/HiGHS) or ``"bnb"`` (pure-Python branch and
    bound); both are deterministic and agree on the optimum size.
    ``use_cache`` mirrors ``RunConfig.opt_cache`` — ``False`` re-solves
    instead of reading the per-instance cache.
    """
    if graph.number_of_nodes() == 0:
        return AlgorithmResult(name="full_gather_exact", solution=set(), rounds=0)
    diameter = graph_diameter(graph)
    if solver not in ("milp", "bnb"):
        raise ValueError(f"unknown solver {solver!r}; choose 'milp' or 'bnb'")
    # Served from the per-instance OPT cache, so running `exact` with
    # ratio validation solves each instance once, not twice.
    solution = set(optimum_solution(graph, "mds", solver, use_cache=use_cache))
    return AlgorithmResult(
        name="full_gather_exact",
        solution=solution,
        rounds=diameter + 1,
        phases={"exact": set(solution)},
        metadata={"diameter": diameter, "solver": solver},
    )
