"""Bounds on the domination number, shared with branch-and-bound.

Used to sanity-check measured ratios (an algorithm's output divided by a
*lower bound* upper-bounds the true ratio) and inside branch-and-bound.

* ``n / (Δ + 1)`` — the degree bound from the paper's footnote 4;
* 2-packing — vertices pairwise at distance ≥ 3 need distinct
  dominators (greedy and exact variants);
* LP relaxation of the domination ILP.

The combinatorial bounds run on the graph's
:class:`~repro.graphs.kernel.GraphKernel`, and the mask-level cores
(:func:`greedy_cover_mask`, :class:`PackingBound`) are exactly what
:mod:`repro.solvers.branch_and_bound` uses for its incumbent and its
per-node lower bound — one implementation for B&B and standalone
callers alike.
"""

from __future__ import annotations

import math
from typing import Hashable

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_matrix

from repro.graphs.kernel import GraphKernel, iter_bits, kernel_for
from repro.graphs.packed import PackedMask, greedy_cover_packed, two_packing_packed
from repro.graphs.util import ball, closed_neighborhood

Vertex = Hashable


# -- mask-level cores (shared with branch-and-bound) -----------------------


def greedy_cover_mask(kernel: GraphKernel, target_mask, candidate_mask):
    """Greedy cover of ``target_mask`` by ``candidate_mask`` bits.

    The classical set-cover greedy (max gain, ties toward the lowest
    kernel index = ``repr`` order), in the kernel's own mask type.  The
    popcount of the returned mask is a valid upper bound on the
    restricted domination number — branch-and-bound uses it as its
    incumbent.

    The selection loop is the lazy-heap
    :func:`~repro.graphs.packed.greedy_cover_packed` on
    ``kernel.packed()``; int masks are converted to packed words once
    on the way in and back to an int once on the way out.
    """
    packed = kernel.packed()
    if not isinstance(target_mask, int):
        return greedy_cover_packed(packed, target_mask, candidate_mask)
    n = kernel.n
    size = (n + 7) >> 3
    chosen = greedy_cover_packed(
        packed,
        PackedMask.from_bytes(n, target_mask.to_bytes(size, "little")),
        PackedMask.from_bytes(n, candidate_mask.to_bytes(size, "little")),
    )
    return int.from_bytes(chosen.to_bytes(), "little")


class PackingBound:
    """Greedy disjoint-``N[b]`` packing of targets, on kernel bitsets.

    Targets whose closed neighborhoods are pairwise disjoint (within the
    candidate pool) each need their own dominator, so the greedy packing
    size lower-bounds the restricted domination number.  Construction
    precomputes, per target ``b``, the mask of targets blocked by
    covering ``b`` (``⋃_{c ∈ N[b] ∩ candidates} N[c] ∩ targets``) and a
    static fail-first visit order (fewest coverers first, kernel index
    as tie-break); :meth:`bound` is then a pure mask loop — cheap enough
    to run at every branch-and-bound node.

    Int-backend only: branch-and-bound explores subsets of small
    instances, exactly the regime the precomputed ``closed_bits`` table
    exists for.  On a packed kernel construction raises (no mask
    table); force ``REPRO_KERNEL_BACKEND=int`` to run B&B on a graph
    past the auto-selection threshold.
    """

    __slots__ = ("_order", "_block")

    def __init__(self, kernel: GraphKernel, target_mask: int, candidate_mask: int):
        closed = kernel.closed_bits
        keyed = []
        block: dict[int, int] = {}
        for b in iter_bits(target_mask):
            coverers = closed[b] & candidate_mask
            blocked = 0
            for c in iter_bits(coverers):
                blocked |= closed[c]
            block[b] = blocked & target_mask
            keyed.append((coverers.bit_count(), b))
        keyed.sort()
        self._order = [b for _, b in keyed]
        self._block = block

    def bound(self, remaining: int) -> int:
        """Packing lower bound for the still-undominated ``remaining``."""
        block = self._block
        count = 0
        blocked = 0
        for b in self._order:
            bit = 1 << b
            if remaining & bit and not blocked & bit:
                count += 1
                blocked |= block[b]
        return count


def degree_lower_bound(graph: nx.Graph) -> int:
    """``⌈n / (Δ + 1)⌉``: every dominator covers at most Δ + 1 vertices."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0
    max_degree = max(dict(graph.degree).values())
    return math.ceil(n / (max_degree + 1))


def two_packing_lower_bound(graph: nx.Graph) -> int:
    """Greedy 2-packing: pairwise distance-≥3 vertices (each needs its own
    dominator).  Deterministic greedy by ascending degree, then repr
    (kernel index order *is* repr order), with the blocked set kept as a
    kernel bitset and each radius-2 ball one kernel BFS.  On a packed
    kernel (large graphs / :class:`~repro.graphs.kernel.KernelView`
    instances) the same greedy runs as boolean-array CSR gathers."""
    kernel = kernel_for(graph)
    if kernel.backend == "packed":
        return two_packing_packed(kernel)
    labels = kernel.labels
    blocked = 0
    count = 0
    order = sorted(range(kernel.n), key=lambda i: (kernel.degree(i), i))
    for i in order:
        if blocked >> i & 1:
            continue
        count += 1
        blocked |= kernel.ball_bits(labels[i], 2)
    return count


def exact_two_packing(graph: nx.Graph) -> int:
    """Maximum 2-packing via MILP (independent set in ``G²``)."""
    nodes = sorted(graph.nodes, key=repr)
    if not nodes:
        return 0
    index = {v: i for i, v in enumerate(nodes)}
    rows, cols, row_id = [], [], 0
    for v in nodes:
        for u in ball(graph, v, 2):
            if u != v and repr(u) > repr(v):
                rows.extend([row_id, row_id])
                cols.extend([index[v], index[u]])
                row_id += 1
    if row_id == 0:
        return len(nodes)
    matrix = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(row_id, len(nodes)))
    result = milp(
        c=-np.ones(len(nodes)),
        constraints=[LinearConstraint(matrix, lb=0, ub=1)],
        integrality=np.ones(len(nodes)),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise RuntimeError(f"MILP solver failed: {result.message}")
    return int(round(-result.fun))


def lp_lower_bound(graph: nx.Graph) -> float:
    """Optimal value of the fractional domination LP (≤ MDS(G))."""
    nodes = sorted(graph.nodes, key=repr)
    if not nodes:
        return 0.0
    index = {v: i for i, v in enumerate(nodes)}
    rows, cols = [], []
    for row, v in enumerate(nodes):
        for u in closed_neighborhood(graph, v):
            rows.append(row)
            cols.append(index[u])
    matrix = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(nodes), len(nodes)))
    result = linprog(
        c=np.ones(len(nodes)),
        A_ub=-matrix,
        b_ub=-np.ones(len(nodes)),
        bounds=(0, 1),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    return float(result.fun)
