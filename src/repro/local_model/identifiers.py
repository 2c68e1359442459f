"""Identifier assignment schemes for the LOCAL simulator.

The model grants each processor a unique ``O(log n)``-bit identifier.
Deterministic LOCAL algorithms must work for *every* assignment, so the
test-suite runs the paper's algorithms under several schemes:

* :func:`identity_ids` — vertex label = identifier (on int-labelled
  graphs; repr-order indices otherwise);
* :func:`shuffled_ids` — a seeded random permutation (adversarial-ish);
* :func:`spread_ids` — non-contiguous identifiers (multiples of a
  stride), checking that nothing assumes ids form ``0..n−1``.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

import networkx as nx

Vertex = Hashable


def identity_ids(graph: nx.Graph) -> dict[Vertex, int]:
    """Vertex label = identifier when every label is an int, else the
    label's repr-order index (see :func:`identity_id_list`)."""
    vertices = sorted(graph.nodes, key=repr)
    ids = dict(zip(vertices, identity_id_list(vertices)))
    _check_unique(ids)
    return ids


def identity_id_list(labels: Sequence[Vertex]) -> list[int]:
    """The identity identifiers of repr-ordered ``labels``, in order.

    One rule for the whole graph: the labels themselves when all are
    ints, otherwise the indices ``0..n−1``.  Mixing the two would let an
    int label collide with another label's index.
    """
    if all(isinstance(v, int) for v in labels):
        return list(labels)
    return list(range(len(labels)))


def shuffled_ids(graph: nx.Graph, seed: int = 0) -> dict[Vertex, int]:
    """Assign a seeded random permutation of ``0..n−1``."""
    vertices = sorted(graph.nodes, key=repr)
    labels = list(range(len(vertices)))
    random.Random(seed).shuffle(labels)
    ids = dict(zip(vertices, labels))
    _check_unique(ids)
    return ids


def spread_ids(graph: nx.Graph, stride: int = 7, offset: int = 13) -> dict[Vertex, int]:
    """Assign non-contiguous identifiers ``offset + stride·i``."""
    if stride < 1:
        raise ValueError("stride must be positive")
    vertices = sorted(graph.nodes, key=repr)
    ids = {v: offset + stride * i for i, v in enumerate(vertices)}
    _check_unique(ids)
    return ids


def _check_unique(ids: dict[Vertex, int]) -> None:
    if len(set(ids.values())) != len(ids):
        raise ValueError("identifier assignment is not injective")
