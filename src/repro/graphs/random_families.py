"""Seeded random generators for ``K_{2,t}``-minor-free families.

Experiments need *distributions* over each family, not single instances.
Every generator takes an explicit ``random.Random`` (or a seed) so runs
are reproducible; none of them touches global random state.

All constructions are minor-free **by construction** (trees, cacti,
outerplanar triangulations, Ding augmentations); tests cross-check small
samples against the exact minor detector.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

import networkx as nx

from repro.graphs.ding import Attachment, augment, make_fan, make_strip
from repro.graphs.kernel import invalidate_kernel

Vertex = Hashable


def _rng(seed_or_rng: int | random.Random) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_tree(n: int, seed: int | random.Random = 0) -> nx.Graph:
    """Uniform random labelled tree via a Prüfer sequence."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = _rng(seed)
    if n == 1:
        graph = nx.Graph()
        graph.add_node(0)
        return graph
    if n == 2:
        return nx.path_graph(2)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(prufer)


def random_caterpillar(spine: int, max_legs: int, seed: int | random.Random = 0) -> nx.Graph:
    """Caterpillar with a random number of legs (0..max_legs) per spine vertex."""
    if spine < 1 or max_legs < 0:
        raise ValueError("spine must be positive, max_legs non-negative")
    rng = _rng(seed)
    graph = nx.path_graph(spine)
    next_label = spine
    for v in range(spine):
        for _ in range(rng.randint(0, max_legs)):
            graph.add_edge(v, next_label)
            next_label += 1
    return graph


def random_cactus(
    cycles: int, max_cycle_length: int, seed: int | random.Random = 0
) -> nx.Graph:
    """Random cactus: cycles of random length attached at random vertices.

    Cacti have no two cycles sharing an edge, hence no theta subgraph and
    no ``K_{2,3}`` minor.
    """
    if cycles < 1 or max_cycle_length < 3:
        raise ValueError("need at least one cycle of length >= 3")
    rng = _rng(seed)
    graph = nx.Graph()
    graph.add_node(0)
    next_label = 1
    for _ in range(cycles):
        anchor = rng.choice(sorted(graph.nodes))
        length = rng.randint(3, max_cycle_length)
        previous = anchor
        for _ in range(length - 1):
            graph.add_edge(previous, next_label)
            previous = next_label
            next_label += 1
        graph.add_edge(previous, anchor)
    return graph


def random_outerplanar(n: int, seed: int | random.Random = 0) -> nx.Graph:
    """Random maximal outerplanar graph: random triangulation of an n-gon.

    Maximal outerplanar graphs are exactly the triangulations of a
    polygon; they are ``{K_4, K_{2,3}}``-minor-free.  Built by recursive
    random ear splitting of the polygon.
    """
    if n < 3:
        raise ValueError("needs at least 3 vertices")
    rng = _rng(seed)
    graph = nx.cycle_graph(n)

    def triangulate(i: int, j: int) -> None:
        """Triangulate the sub-polygon i..j (the edge {i, j} is present)."""
        if j - i < 2:
            return
        pivot = rng.randint(i + 1, j - 1)
        if pivot > i + 1:
            graph.add_edge(i, pivot)
        if pivot < j - 1:
            graph.add_edge(pivot, j)
        triangulate(i, pivot)
        triangulate(pivot, j)

    triangulate(0, n - 1)
    return graph


def random_ding_augmentation(
    core_size: int,
    pieces: int,
    seed: int | random.Random = 0,
    *,
    max_fan_length: int = 6,
    max_strip_rungs: int = 6,
    strip_probability: float = 0.4,
) -> nx.Graph:
    """Random augmentation of a small random core (Proposition 5.15 shape).

    The core is a random tree plus a few random extra edges (kept sparse);
    fans glue by their center onto random core vertices, strips glue two
    of their corners onto the endpoints of random core edges.
    """
    if core_size < 2 or pieces < 0:
        raise ValueError("core_size >= 2, pieces >= 0 required")
    rng = _rng(seed)
    core = random_tree(core_size, rng)
    attachments: list[Attachment] = []
    offset = 10_000
    # Ding's rule: a core vertex may be shared only via fan centers, so
    # strip corners must land on fresh core vertices.
    strip_used: set[int] = set()
    core_edges = sorted(tuple(sorted(e)) for e in core.edges)
    for _ in range(pieces):
        free_edges = [
            (u, v) for u, v in core_edges if u not in strip_used and v not in strip_used
        ]
        if rng.random() < strip_probability and free_edges:
            strip = make_strip(
                rng.randint(2, max_strip_rungs),
                label_offset=offset,
                crossed=rng.random() < 0.3,
            )
            u, v = rng.choice(free_edges)
            strip_used.update((u, v))
            a, b, _, _ = strip.corners
            attachments.append(Attachment(piece=strip, glue={a: u, b: v}))
        else:
            fan = make_fan(rng.randint(1, max_fan_length), label_offset=offset)
            center_target = rng.choice(sorted(core.nodes))
            attachments.append(Attachment(piece=fan, glue={fan.center: center_target}))
        offset += 10_000
    return augment(core, attachments)


def random_k2t_free(
    n: int, t: int, seed: int | random.Random = 0, *, density: float = 0.5
) -> nx.Graph:
    """Random ``K_{2,t}``-minor-free graph by guarded edge insertion.

    Starts from a random spanning tree and adds random edges, rejecting
    any edge that creates a ``K_{2,t}`` minor witnessed by the
    singleton-hub detector; a final exact check is the caller's business
    (see tests).  Intended for small n (the detector is flow-per-pair).
    """
    if t < 3:
        raise ValueError("t >= 3 required (t = 2 forbids all cycles)")
    from repro.graphs.minors import largest_k2t_minor_singleton_hubs

    rng = _rng(seed)
    graph = random_tree(n, rng)
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not graph.has_edge(u, v)
    ]
    rng.shuffle(candidates)
    budget = int(density * len(candidates))
    for u, v in candidates[:budget]:
        # The detector reads the graph's kernel, so drop it after each edit.
        graph.add_edge(u, v)
        invalidate_kernel(graph)
        if largest_k2t_minor_singleton_hubs(graph) >= t:
            graph.remove_edge(u, v)
            invalidate_kernel(graph)
    return graph


def sample_family(
    name: str, sizes: Sequence[int], t: int, seed: int = 0
) -> list[nx.Graph]:
    """Draw one instance per size from a named random family.

    Recognised names: ``tree``, ``caterpillar``, ``cactus``,
    ``outerplanar``, ``ding``, ``k2t_free``.
    """
    rng = random.Random(seed)
    graphs = []
    for size in sizes:
        if name == "tree":
            graphs.append(random_tree(size, rng))
        elif name == "caterpillar":
            graphs.append(random_caterpillar(max(1, size // 3), 2, rng))
        elif name == "cactus":
            graphs.append(random_cactus(max(1, size // 4), 6, rng))
        elif name == "outerplanar":
            graphs.append(random_outerplanar(size, rng))
        elif name == "ding":
            graphs.append(random_ding_augmentation(max(2, size // 8), max(1, size // 10), rng))
        elif name == "k2t_free":
            graphs.append(random_k2t_free(size, t, rng))
        else:
            raise ValueError(f"unknown family {name!r}")
    return graphs
