"""Numpy CSR backend: the one CSR core every kernel is built on.

Every kernel is ingested here, once: :func:`csr_from_graph` for an
``nx.Graph``, :func:`collect_edges` + :func:`build_undirected_csr` for
edge streams, ``from_wire_parts`` for wires.  The int-mask
:class:`~repro.graphs.kernel.GraphKernel` is a bitset table layered on
a :class:`PackedGraphKernel`; at or above the packed threshold the
CSR kernel is used on its own:

* vertex sets are the same Python-int bitsets as on the int kernel
  (bit ``i`` = kernel index ``i``); the primitives convert them to and
  from numpy boolean flags through one pair of helpers,
  :func:`bits_from_flags` and :func:`flags_from_bits`;
* adjacency is CSR in numpy ``int64`` arrays, rows sorted ascending —
  the canonical form ``KernelWire`` snapshots;
* **no per-node closed-neighborhood masks are precomputed** — that
  table is exactly the quadratic memory this backend exists to avoid.
  Every primitive (``dominates_vertices``, ``closed_neighborhood_bits``,
  balls) is a vectorized CSR scan: multi-row gathers, boolean scatters
  and prefix sums over ``indptr`` segments.  Total memory stays
  O(n + m) words.

Backend selection lives in :func:`repro.graphs.kernel.kernel_for`
(automatic by node count, overridable); this module never decides —
it only implements.  Kernel index order *is* repr-sorted label order,
so greedy tie-breaks, component ordering, and port numbering agree
bit-for-bit across backends.

The whole-graph primitives (wires, edge counts, ports, back ports) and
the pipeline cores at the bottom of this module (greedy cover, D₂, twin
reduction, the two-packing bound) are the only implementations of that
work: an int kernel reaches them through
:meth:`~repro.graphs.kernel.GraphKernel.packed`, the CSR kernel it was
built over.  The int-mask searches that read ``closed_bits`` reach a
packed kernel through its cached :meth:`PackedGraphKernel.bitsets`
table; that costs up to n²/8 bytes, and only those searches build it.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Sequence

import numpy as np

Vertex = Hashable

_CHUNK_ELEMENTS = 1 << 21  # elements per vectorized batch in pair scans


# -- int bitset <-> boolean flags -------------------------------------------


def bits_from_flags(flags: np.ndarray) -> int:
    """The int bitset of a boolean array (index ``i`` → bit ``i``)."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def flags_from_bits(mask: int, n: int) -> np.ndarray:
    """The int bitset ``mask`` as a fresh length-``n`` boolean array.

    ``mask`` must be a non-negative int below ``1 << n``: write
    ``full_mask & ~x``, never a bare ``~x``.
    """
    raw = np.frombuffer(mask.to_bytes((n + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(np.bool_)


# -- vectorized CSR helpers -------------------------------------------------


def _gather_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenation of the CSR rows ``rows`` (duplicates allowed).

    Pure index arithmetic — ``repeat`` of row starts plus a per-segment
    ramp — so a multi-row neighborhood gather is one fancy-index, not a
    Python loop over rows.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(indptr[rows], counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    return indices[starts + offsets]


def build_undirected_csr(n: int, us: np.ndarray, vs: np.ndarray):
    """Canonical CSR (rows sorted, deduped) from undirected edge arrays.

    ``us``/``vs`` hold one entry per undirected edge (self-loops
    allowed, listed once); the result stores both directions and a
    self-loop once per row — the row content of ``nx.Graph``
    adjacency.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    loop = us == vs
    return _csr_of_slots(n, np.concatenate([us, vs[~loop]]), np.concatenate([vs, us[~loop]]))


def _csr_of_slots(n: int, rows: np.ndarray, cols: np.ndarray):
    """CSR ``(indptr, indices)`` of directed ``(row, col)`` slots,
    rows sorted and duplicate slots dropped."""
    if rows.size:
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        rows = rows[keep]
        cols = cols[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if rows.size:
        indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return indptr, np.ascontiguousarray(cols)


def csr_from_graph(graph):
    """The canonical kernel form of an ``nx.Graph``: ``(labels, indptr,
    indices, index_of)``, labels repr-sorted and CSR rows ascending.

    The one graph → CSR builder, behind both kernel classes.
    """
    labels = sorted(graph.nodes, key=repr)
    index_of = {label: i for i, label in enumerate(labels)}
    us: list[int] = []
    vs: list[int] = []
    for u, v in graph.edges:
        us.append(index_of[u])
        vs.append(index_of[v])
    indptr, indices = build_undirected_csr(len(labels), us, vs)
    return labels, indptr, indices, index_of


def collect_edges(edges: Iterable, n: int | None = None, nodes: Iterable | None = None):
    """Consume an edge iterable into ``(labels, us, vs)`` kernel inputs.

    Streams the iterable once, buffering endpoints in bounded chunks.
    Returns labels in repr-sorted order (the kernel's index order) and
    endpoint arrays already mapped to kernel indices.  With ``n`` the
    vertex set is exactly ``range(n)``; ``nodes`` adds isolated
    vertices; otherwise the vertex set is the union of the endpoints.
    All-int labels take a fully vectorized mapping path (numpy unicode
    sort == repr sort for ints); any other label type falls back to a
    dict-driven mapping.
    """
    chunk_u: list = []
    chunk_v: list = []
    blocks_u: list[np.ndarray] = []
    blocks_v: list[np.ndarray] = []
    raw_u: list = []
    raw_v: list = []
    all_int = True

    def _flush():
        if chunk_u:
            blocks_u.append(np.array(chunk_u, dtype=np.int64))
            blocks_v.append(np.array(chunk_v, dtype=np.int64))
            chunk_u.clear()
            chunk_v.clear()

    for u, v in edges:
        if all_int and not (type(u) is int and type(v) is int):
            all_int = False
            raw_u = [int_val for block in blocks_u for int_val in block.tolist()]
            raw_v = [int_val for block in blocks_v for int_val in block.tolist()]
            raw_u.extend(chunk_u)
            raw_v.extend(chunk_v)
            blocks_u.clear()
            blocks_v.clear()
            chunk_u.clear()
            chunk_v.clear()
        if all_int:
            chunk_u.append(u)
            chunk_v.append(v)
            if len(chunk_u) >= (1 << 18):
                _flush()
        else:
            raw_u.append(u)
            raw_v.append(v)

    extra_nodes = list(nodes) if nodes is not None else []
    if all_int and any(type(v) is not int for v in extra_nodes):
        all_int = False
        raw_u = [int_val for block in blocks_u for int_val in block.tolist()]
        raw_v = [int_val for block in blocks_v for int_val in block.tolist()]
        raw_u.extend(chunk_u)
        raw_v.extend(chunk_v)

    if not all_int:
        vertex_set = set(raw_u)
        vertex_set.update(raw_v)
        vertex_set.update(extra_nodes)
        if n is not None:
            vertex_set.update(range(n))
        labels = sorted(vertex_set, key=repr)
        index_of = {label: i for i, label in enumerate(labels)}
        us = np.fromiter((index_of[u] for u in raw_u), dtype=np.int64, count=len(raw_u))
        vs = np.fromiter((index_of[v] for v in raw_v), dtype=np.int64, count=len(raw_v))
        return labels, us, vs

    _flush()
    ue = np.concatenate(blocks_u) if blocks_u else np.empty(0, dtype=np.int64)
    ve = np.concatenate(blocks_v) if blocks_v else np.empty(0, dtype=np.int64)
    if n is not None:
        numeric = np.arange(n, dtype=np.int64)
        if ue.size and (
            int(ue.min()) < 0 or int(ve.min()) < 0 or int(ue.max()) >= n or int(ve.max()) >= n
        ):
            raise ValueError(f"edge endpoint outside range(0, {n})")
        if extra_nodes and (min(extra_nodes) < 0 or max(extra_nodes) >= n):
            raise ValueError(f"node outside range(0, {n})")
    else:
        pool = [ue, ve]
        if extra_nodes:
            pool.append(np.array(extra_nodes, dtype=np.int64))
        numeric = np.unique(np.concatenate(pool)) if pool else np.empty(0, dtype=np.int64)
    # repr order for ints == lexicographic order of their decimal strings.
    order = np.argsort(numeric.astype("U"), kind="stable")
    rank = np.empty(numeric.size, dtype=np.int64)
    rank[order] = np.arange(numeric.size, dtype=np.int64)
    labels = numeric[order].tolist()
    if ue.size:
        us = rank[np.searchsorted(numeric, ue)]
        vs = rank[np.searchsorted(numeric, ve)]
    else:
        us, vs = ue, ve
    return labels, us, vs


# -- the packed kernel ------------------------------------------------------


class PackedGraphKernel:
    """CSR kernel with vectorized primitives and no precomputed masks.

    Same invariants and the same mask type as
    :class:`~repro.graphs.kernel.GraphKernel` — labels repr-sorted,
    each CSR row ascending, kernel index order == port order, vertex
    sets as Python-int bitsets — but every primitive is a vectorized
    scan over the CSR arrays.  Memory is O(n + m) words; there is
    deliberately **no** ``closed_bits`` table.  The int-mask searches
    that read one run on :meth:`bitsets`.

    Build through :func:`repro.graphs.kernel.kernel_for`,
    :func:`repro.graphs.kernel.kernel_from_edges`, or a wire; direct
    construction expects already-canonical CSR parts.
    """

    backend = "packed"

    __slots__ = (
        "n",
        "labels",
        "indptr",
        "indices",
        "_labels_arr",
        "_lab_sorted",
        "_lab_sorted_idx",
        "_index_of",
        "full_mask",
        "_derived",
        "_bitsets",
        "memo",
        "__weakref__",
    )

    def __init__(
        self,
        labels: Sequence[Vertex],
        indptr,
        indices,
        index_of: dict | None = None,
        derived: dict | None = None,
    ):
        self.n = len(labels)
        self.labels = labels if isinstance(labels, list) else list(labels)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if all(type(label) is int for label in self.labels):
            self._labels_arr = np.array(self.labels, dtype=np.int64)
        else:
            self._labels_arr = None
        self._lab_sorted = None
        self._lab_sorted_idx = None
        self._index_of = index_of
        self.full_mask = (1 << self.n) - 1
        # Lazily built arrays that depend only on the CSR ("closed",
        # "back_ports", "m"); bitsets() shares this dict with its twin.
        self._derived = {} if derived is None else derived
        self._bitsets = None
        self.memo = {}

    @classmethod
    def from_graph(cls, graph) -> "PackedGraphKernel":
        """Build from an ``nx.Graph`` (labels repr-sorted, CSR canonical)."""
        return cls(*csr_from_graph(graph))

    @classmethod
    def from_wire_parts(cls, labels, indptr_bytes: bytes, indices_bytes: bytes):
        """Rebuild from :class:`KernelWire` CSR bytes (zero-copy views)."""
        indptr = np.frombuffer(indptr_bytes, dtype=np.int64)
        indices = np.frombuffer(indices_bytes, dtype=np.int64)
        return cls(list(labels), indptr, indices)

    def to_wire(self):
        """This kernel as a ``KernelWire`` (labels + CSR bytes)."""
        from repro.graphs.kernel import KernelWire

        return KernelWire(tuple(self.labels), self.indptr.tobytes(), self.indices.tobytes())

    # -- lazily derived structure --

    @property
    def index_of(self) -> dict:
        if self._index_of is None:
            self._index_of = {label: i for i, label in enumerate(self.labels)}
        return self._index_of

    def packed(self) -> "PackedGraphKernel":
        """This kernel itself (an int kernel's returns the CSR kernel it
        was built over)."""
        return self

    def bitsets(self):
        """The int-mask :class:`~repro.graphs.kernel.GraphKernel` table over this CSR.

        The int-mask searches (local cuts, cuts, interesting vertices,
        ``algorithm1``, weak diameters, branch and bound) read its
        ``closed_bits`` and keep their memo entries on it.  Built once
        on first use, then cached for this kernel's lifetime.  The table
        sits on a second CSR kernel that shares this one's arrays, so
        nothing points back here and no reference cycle forms.  It costs
        up to n²/8 bytes, so only those searches ever build it;
        whole-graph pipelines and validation never do.  The two CSR
        kernels share one dict of derived arrays, which points at
        neither, so ``_closed_csr`` and the back ports are built once.
        """
        if self._bitsets is None:
            from repro.graphs.kernel import GraphKernel

            self._bitsets = GraphKernel.over(
                PackedGraphKernel(
                    self.labels, self.indptr, self.indices, self.index_of, self._derived
                )
            )
        return self._bitsets

    def adjacency(self):
        """The CSR as a ``scipy.sparse.csr_matrix`` of ones.

        The ones are float64 because ``scipy.sparse.csgraph`` converts
        any other dtype to float64 on every call, at twice the cost.
        """
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (np.ones(self.indices.size), self.indices, self.indptr), shape=(self.n, self.n)
        )

    def _closed_csr(self):
        """Closed-neighborhood CSR (rows = ``N[v]``, sorted, deduped).

        O(n + m) words, built once on demand — the *row* form of the
        int backend's ``closed_bits`` table, without the n²-bit cost.
        """
        closed = self._derived.get("closed")
        if closed is None:
            arange = np.arange(self.n, dtype=np.int64)
            rows = np.concatenate([np.repeat(arange, np.diff(self.indptr)), arange])
            closed = self._derived["closed"] = _csr_of_slots(
                self.n, rows, np.concatenate([self.indices, arange])
            )
        return closed

    def edge_count(self) -> int:
        """Number of undirected edges (self-loops counted once)."""
        m = self._derived.get("m")
        if m is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            loops = int((self.indices == rows).sum())
            m = self._derived["m"] = (int(self.indices.size) - loops) // 2 + loops
        return m

    # -- label <-> index <-> mask conversions --

    def index(self, label: Vertex) -> int:
        return self.index_of[label]

    def label(self, index: int) -> Vertex:
        return self.labels[index]

    def _indices_of_labels(self, vertices) -> np.ndarray:
        verts = vertices if isinstance(vertices, (list, tuple)) else list(vertices)
        if (
            self._labels_arr is not None
            and verts
            and all(type(v) is int for v in verts)
        ):
            if self._lab_sorted is None:
                self._lab_sorted_idx = np.argsort(self._labels_arr, kind="stable")
                self._lab_sorted = self._labels_arr[self._lab_sorted_idx]
            arr = np.array(verts, dtype=np.int64)
            pos = np.searchsorted(self._lab_sorted, arr)
            pos_clipped = np.minimum(pos, self.n - 1)
            ok = (pos < self.n) & (self._lab_sorted[pos_clipped] == arr)
            if not ok.all():
                raise KeyError(verts[int(np.flatnonzero(~ok)[0])])
            return self._lab_sorted_idx[pos_clipped]
        index_of = self.index_of
        return np.fromiter((index_of[v] for v in verts), dtype=np.int64, count=len(verts))

    def flags_of(self, vertices: Iterable[Vertex]) -> np.ndarray:
        """Boolean flags (kernel index order) of an iterable of vertex labels."""
        flags = np.zeros(self.n, dtype=bool)
        flags[self._indices_of_labels(vertices)] = True
        return flags

    def bits_of(self, vertices: Iterable[Vertex]) -> int:
        """Bitset mask of an iterable of vertex labels."""
        return bits_from_flags(self.flags_of(vertices))

    def labels_of(self, mask: int) -> set:
        """Vertex labels of the set bits of ``mask``."""
        return self._labels_at(np.flatnonzero(flags_from_bits(mask, self.n)))

    def _labels_at(self, idx: np.ndarray) -> set:
        if self._labels_arr is not None:
            return set(self._labels_arr[idx].tolist())
        labels = self.labels
        return {labels[i] for i in idx.tolist()}

    def rows(self) -> tuple[memoryview, memoryview]:
        """``(indptr, indices)`` as memoryviews: Python row walks read
        plain ints from them, with no copy."""
        return memoryview(self.indptr), memoryview(self.indices)

    def neighbor_row(self, index: int) -> np.ndarray:
        """CSR row of ``index``: neighbor indices, sorted ascending."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def degree(self, index: int) -> int:
        return int(self.indptr[index + 1] - self.indptr[index])

    # -- domination primitives --

    def _closed_flags(self, src: np.ndarray) -> np.ndarray:
        """``N[S]`` as boolean flags, one multi-row gather + scatter."""
        flags = np.zeros(self.n, dtype=bool)
        if src.size:
            flags[_gather_rows(self.indptr, self.indices, src)] = True
            flags[src] = True
        return flags

    def closed_neighborhood_bits(self, mask: int) -> int:
        """``N[S]`` as a bitset, for ``S`` given as a bitset."""
        src = np.flatnonzero(flags_from_bits(mask, self.n))
        return bits_from_flags(self._closed_flags(src))

    def union_closed_bits(self, vertices: Iterable[Vertex]) -> int:
        """``N[S]`` straight from vertex labels (the checker entry)."""
        return bits_from_flags(self._closed_flags(self._indices_of_labels(vertices)))

    def dominates_vertices(self, vertices: Iterable[Vertex]) -> bool:
        return bool(self._closed_flags(self._indices_of_labels(vertices)).all())

    # -- balls (vectorized frontier BFS) --

    def _ball_flags(self, seeds: np.ndarray, radius: int) -> np.ndarray:
        flags = np.zeros(self.n, dtype=bool)
        flags[seeds] = True
        frontier = np.unique(seeds)
        for _ in range(radius):
            if frontier.size == 0:
                break
            nbrs = _gather_rows(self.indptr, self.indices, frontier)
            fresh = nbrs[~flags[nbrs]]
            if fresh.size == 0:
                break
            flags[fresh] = True
            frontier = np.unique(fresh)
        return flags

    def ball_labels(self, center: Vertex, radius: int) -> set:
        """``N^r[center]`` as a set of vertex labels."""
        if radius < 0:
            return set()
        seed = np.array([self.index_of[center]], dtype=np.int64)
        return self._labels_at(np.flatnonzero(self._ball_flags(seed, radius)))

    def ball_labels_of_set(self, vertices: Iterable[Vertex], radius: int) -> set:
        """``N^r[S]`` as a set of labels, for ``S`` given as labels."""
        start = self._indices_of_labels(vertices)
        if radius < 0:
            return set()
        return self._labels_at(np.flatnonzero(self._ball_flags(start, radius)))

    # -- engine routing --

    def back_ports(self) -> np.ndarray:
        """Per-edge-slot back ports aligned with ``indices`` (int64).

        Sorting all directed slots by ``(col, row)`` enumerates, for
        each CSR slot ``s = (u, v)`` in order, exactly the reverse slot
        ``(v, u)``, so one lexsort finds every back port.
        """
        ports = self._derived.get("back_ports")
        if ports is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            reverse_slot = np.lexsort((rows, self.indices))
            ports = self._derived["back_ports"] = reverse_slot - self.indptr[self.indices]
        return ports

    # -- structural surgery --

    def induced(self, keep: np.ndarray) -> "PackedGraphKernel":
        """Sub-kernel induced on the ascending kernel indices ``keep``.

        Labels are inherited (so repr order is preserved) and rows stay
        sorted because the index relabelling is monotone.
        """
        keep = np.asarray(keep, dtype=np.int64)
        inside = np.zeros(self.n, dtype=bool)
        inside[keep] = True
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[keep] = np.arange(keep.size, dtype=np.int64)
        deg = np.diff(self.indptr)
        neighborhood = _gather_rows(self.indptr, self.indices, keep)
        new_rows_all = np.repeat(np.arange(keep.size, dtype=np.int64), deg[keep])
        sel = inside[neighborhood]
        new_rows = new_rows_all[sel]
        new_cols = new_id[neighborhood[sel]]
        indptr = np.zeros(keep.size + 1, dtype=np.int64)
        if new_rows.size:
            indptr[1:] = np.cumsum(np.bincount(new_rows, minlength=keep.size))
        labels = [self.labels[int(k)] for k in keep]
        return PackedGraphKernel(labels, indptr, np.ascontiguousarray(new_cols))


# -- packed pipeline cores --------------------------------------------------


def greedy_cover_packed(kernel: PackedGraphKernel, target_mask: int, candidate_mask: int) -> int:
    """The set-cover greedy: the one selection loop behind every greedy.

    Each pick is the candidate covering the most still-uncovered
    targets, ties toward the lowest kernel index (= ``repr`` order).
    Lazy-greedy with a max-heap of stale gains: gains only decrease as
    targets get covered (submodularity), so a popped entry whose
    recomputed gain still matches its key is a true maximum.  Heap
    order is ``(-gain, index)``, which is exactly that selection.
    """
    n = kernel.n
    remaining = flags_from_bits(target_mask, n)
    remaining_count = int(remaining.sum())
    if remaining_count == 0:
        return 0
    chosen = np.zeros(n, dtype=bool)
    cind, ccols = kernel._closed_csr()
    candidates = np.flatnonzero(flags_from_bits(candidate_mask, n))
    pref = np.zeros(ccols.size + 1, dtype=np.int64)
    if ccols.size:
        pref[1:] = np.cumsum(remaining[ccols])
    gains = pref[cind[candidates + 1]] - pref[cind[candidates]]
    heap = [
        (-int(g), int(c)) for g, c in zip(gains.tolist(), candidates.tolist()) if g > 0
    ]
    heapq.heapify(heap)
    while remaining_count:
        if not heap:
            raise ValueError("some target cannot be dominated by any candidate")
        neg_gain, c = heapq.heappop(heap)
        row = ccols[cind[c] : cind[c + 1]]
        hits = remaining[row]
        gain = int(hits.sum())
        if gain == -neg_gain:
            chosen[c] = True
            remaining[row[hits]] = False
            remaining_count -= gain
        elif gain > 0:
            heapq.heappush(heap, (-gain, c))
    return bits_from_flags(chosen)


def two_packing_packed(kernel: PackedGraphKernel) -> int:
    """The greedy 2-packing behind ``two_packing_lower_bound``.

    Visit vertices by ascending ``(degree, index)``, pick if unblocked,
    block the radius-2 ball — with the blocked set as a boolean array
    and each ball two CSR gathers.
    """
    n = kernel.n
    indptr, indices = kernel.indptr, kernel.indices
    deg = np.diff(indptr)
    order = np.lexsort((np.arange(n, dtype=np.int64), deg))
    blocked = np.zeros(n, dtype=bool)
    count = 0
    for i in order.tolist():
        if blocked[i]:
            continue
        count += 1
        blocked[i] = True
        ring1 = indices[indptr[i] : indptr[i + 1]]
        blocked[ring1] = True
        ring2 = _gather_rows(indptr, indices, ring1)
        blocked[ring2] = True
    return count


def d2_members_packed(kernel: PackedGraphKernel) -> int:
    """``D₂(G)`` membership as a bitset.

    ``v ∉ D₂`` iff some neighbor ``u`` has ``N[v] ⊆ N[u]``.  Candidate
    pairs are pre-filtered by closed degree, then all subset tests run
    as one batched ``searchsorted`` against the globally (row, col)-
    sorted closed CSR keys, reduced per pair with
    ``np.logical_and.reduceat`` — processed in bounded element chunks.
    """
    n = kernel.n
    if n == 0:
        return 0
    cind, ccols = kernel._closed_csr()
    cdeg = np.diff(cind)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(kernel.indptr))
    cols = kernel.indices
    pair_ok = cdeg[cols] >= cdeg[rows]
    pv = rows[pair_ok]
    pu = cols[pair_ok]
    dominated = np.zeros(n, dtype=bool)
    if pv.size:
        closed_keys = np.repeat(np.arange(n, dtype=np.int64), cdeg) * n + ccols
        counts = cdeg[pv]
        bounds = np.concatenate(([0], np.cumsum(counts)))
        start = 0
        while start < pv.size:
            stop = int(
                np.searchsorted(bounds, bounds[start] + _CHUNK_ELEMENTS, side="left")
            )
            stop = max(stop, start + 1)
            stop = min(stop, pv.size)
            vv = pv[start:stop]
            uu = pu[start:stop]
            cnt = counts[start:stop]
            witnesses = _gather_rows(cind, ccols, vv)
            owners = np.repeat(uu, cnt)
            queries = owners * n + witnesses
            pos = np.searchsorted(closed_keys, queries)
            pos_clipped = np.minimum(pos, closed_keys.size - 1)
            found = (pos < closed_keys.size) & (closed_keys[pos_clipped] == queries)
            ok = found | (witnesses == owners)
            starts = np.concatenate(([0], np.cumsum(cnt)))[:-1]
            subset = np.logical_and.reduceat(ok, starts)
            dominated[vv[subset]] = True
            start = stop
    return bits_from_flags(~dominated)


def uncovered_component_roots(kernel: PackedGraphKernel, covered: np.ndarray) -> np.ndarray:
    """Lowest kernel index of every connected component with no
    ``covered`` vertex (``covered`` as boolean flags).

    One ``scipy.sparse.csgraph`` labelling over the CSR.  Kernel index
    order is repr order, so each root is its component's repr-least
    vertex.
    """
    from scipy.sparse.csgraph import connected_components

    count, component = connected_components(kernel.adjacency(), directed=False)
    has_cover = np.zeros(count, dtype=bool)
    has_cover[component[covered]] = True
    _, first = np.unique(component, return_index=True)
    return first[~has_cover]


def gamma_packed(kernel: PackedGraphKernel, index: int) -> int:
    """``γ`` of one kernel index, capped at 2 (see :func:`repro.core.d2.gamma`)."""
    cind, ccols = kernel._closed_csr()
    closed_row = ccols[cind[index] : cind[index + 1]]
    for j in kernel.neighbor_row(index).tolist():
        other = ccols[cind[j] : cind[j + 1]]
        hit = np.searchsorted(other, closed_row)
        hit_clipped = np.minimum(hit, other.size - 1) if other.size else hit
        if other.size and bool(
            ((hit < other.size) & (other[hit_clipped] == closed_row)).all()
        ):
            return 1
    return 2


def twin_survivor_indices(kernel: PackedGraphKernel) -> tuple[np.ndarray, np.ndarray]:
    """Iterated true-twin removal: ``(survivors, representative)``.

    The core of ``remove_true_twins``: per round, survivors are grouped by
    their closed neighborhood *within the current survivor set* and
    only the lowest-index member of each class survives; rounds repeat
    until a fixpoint.  The grouping is two prefix sums (masked closed
    degree + masked neighbor-index sum) to shortlist candidate classes,
    then exact byte-key bucketing on the shortlisted vertices only.

    ``survivors`` is the ascending kernel indices of the fixpoint;
    ``representative[i]`` is the surviving kernel index that represents
    ``i`` (path-compressed through removal chains, itself for
    survivors).
    """
    n = kernel.n
    cind, ccols = kernel._closed_csr()
    survivors = np.ones(n, dtype=bool)
    representative = np.arange(n, dtype=np.int64)
    while True:
        alive = np.flatnonzero(survivors)
        inside = survivors[ccols]
        pref_cnt = np.zeros(ccols.size + 1, dtype=np.int64)
        pref_sum = np.zeros(ccols.size + 1, dtype=np.int64)
        if ccols.size:
            pref_cnt[1:] = np.cumsum(inside)
            pref_sum[1:] = np.cumsum(np.where(inside, ccols, 0))
        cnt = (pref_cnt[cind[1:]] - pref_cnt[cind[:-1]])[alive]
        total = (pref_sum[cind[1:]] - pref_sum[cind[:-1]])[alive]
        # Vertices alone in their (count, index-sum) signature cannot
        # have a twin; only collided signatures need exact keys.
        sig_order = np.lexsort((total, cnt))
        sc = cnt[sig_order]
        st = total[sig_order]
        same_prev = np.zeros(sig_order.size, dtype=bool)
        same_prev[1:] = (sc[1:] == sc[:-1]) & (st[1:] == st[:-1])
        collided = same_prev.copy()
        collided[:-1] |= same_prev[1:]
        candidates = np.sort(alive[sig_order[collided]])
        removed: list[int] = []
        buckets: dict[bytes, int] = {}
        for i in candidates.tolist():
            row = ccols[cind[i] : cind[i + 1]]
            key = row[survivors[row]].tobytes()
            rep = buckets.get(key)
            if rep is None:
                buckets[key] = i
            else:
                removed.append(i)
                representative[i] = rep
        if not removed:
            break
        survivors[np.array(removed, dtype=np.int64)] = False
    # Path-compress removal chains by pointer doubling.
    while True:
        doubled = representative[representative]
        if np.array_equal(doubled, representative):
            return np.flatnonzero(survivors), representative
        representative = doubled
