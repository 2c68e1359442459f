"""Chunked numpy bitset backend: packed uint64 masks over CSR adjacency.

The int-mask :class:`~repro.graphs.kernel.GraphKernel` precomputes one
``n``-bit closed-neighborhood bitset per vertex — O(n²/8) bytes, which
tops out around n ≈ 2000 (BENCH_kernel.json).  This module is the
large-graph substrate behind the same kernel API:

* vertex sets are :class:`PackedMask` — ``ceil(n/64)`` little-endian
  ``uint64`` words (bit ``i`` of the flattened words = kernel index
  ``i``), with the int-mask operator surface (``& | ^ ~``, truthiness,
  ``bit_count``) so mask-shaped call sites run unchanged;
* adjacency is CSR in numpy ``int64`` arrays, rows sorted ascending —
  the same canonical form the int kernel snapshots into ``KernelWire``;
* **no per-node closed-neighborhood masks are precomputed** — that
  table is exactly the quadratic memory this backend exists to avoid.
  Every primitive (``dominates``, ``undominated``, ``span_counts``,
  ``closed_neighborhood_bits``, balls, flood fills) is a vectorized CSR
  scan: multi-row gathers, boolean scatters, prefix sums over
  ``indptr`` segments, and popcounts via ``np.bitwise_count`` (16-bit
  LUT fallback).  Total memory stays O(n + m) words.

Backend selection lives in :func:`repro.graphs.kernel.kernel_for`
(automatic by node count, overridable); this module never decides —
it only implements.  Labels follow the same contract as the int
kernel: kernel index order *is* repr-sorted label order, so greedy
tie-breaks, component ordering, and port numbering agree bit-for-bit
across backends.

The whole-graph pipeline cores at the bottom of this module (greedy
cover, D₂, twin reduction) are the only implementations of those
pipelines: an int kernel reaches them through its cached
:meth:`~repro.graphs.kernel.GraphKernel.packed` view over the same CSR.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

Vertex = Hashable

_CHUNK_ELEMENTS = 1 << 21  # elements per vectorized batch in pair scans


# -- popcount ---------------------------------------------------------------

if hasattr(np, "bitwise_count"):

    def popcount_words(words: np.ndarray) -> int:
        """Total number of set bits across a uint64 word array."""
        return int(np.bitwise_count(words).sum(dtype=np.int64))

else:  # pragma: no cover - numpy < 2.0 fallback
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def popcount_words(words: np.ndarray) -> int:
        """Total number of set bits across a uint64 word array (LUT)."""
        if words.size == 0:
            return 0
        return int(_POP16[words.view(np.uint16)].sum(dtype=np.int64))


def _word_count(n: int) -> int:
    return (n + 63) >> 6


# -- PackedMask -------------------------------------------------------------


class PackedMask:
    """A vertex set as packed uint64 words — the int-mask stand-in.

    Bit ``i`` (word ``i // 64``, bit ``i % 64``) set means "kernel index
    ``i`` is in the set", identical to the int backend's ``1 << i``
    convention.  The class mirrors the slice of the Python-int surface
    the mask call sites actually use — ``& | ^ ~``, truthiness,
    ``==``, ``bit_count()`` — so ``full_mask & ~union_closed_bits(S)``
    style code is backend-agnostic.  Tail bits past ``n`` are always
    zero (``~`` re-masks them), so equality and popcounts are exact.

    Masks are immutable by convention, like ints: operators return new
    instances and nothing in the library mutates ``words`` in place.
    """

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray):
        self.n = n
        self.words = words

    # -- constructors --

    @classmethod
    def zeros(cls, n: int) -> "PackedMask":
        return cls(n, np.zeros(_word_count(n), dtype=np.uint64))

    @classmethod
    def full(cls, n: int) -> "PackedMask":
        words = np.full(_word_count(n), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        rem = n & 63
        if rem and words.size:
            words[-1] = np.uint64((1 << rem) - 1)
        return cls(n, words)

    @classmethod
    def from_bool(cls, flags: np.ndarray) -> "PackedMask":
        """Pack a length-``n`` boolean array (index ``i`` → bit ``i``)."""
        flags = np.ascontiguousarray(flags, dtype=bool)
        n = int(flags.size)
        packed = np.packbits(flags, bitorder="little")
        want = _word_count(n) * 8
        if packed.size != want:
            packed = np.concatenate([packed, np.zeros(want - packed.size, dtype=np.uint8)])
        return cls(n, packed.view(np.uint64))

    @classmethod
    def from_indices(cls, n: int, indices) -> "PackedMask":
        flags = np.zeros(n, dtype=bool)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size:
            flags[idx] = True
        return cls.from_bool(flags)

    @classmethod
    def from_bytes(cls, n: int, data: bytes) -> "PackedMask":
        """Mask from little-endian bytes, e.g. ``mask.to_bytes(k, "little")``
        of an int mask (``k ≤ ceil(n/64)·8``; missing bytes are zero)."""
        words = np.zeros(_word_count(n), dtype=np.uint64)
        words.view(np.uint8)[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return cls(n, words)

    # -- decoding --

    def to_bool(self) -> np.ndarray:
        """The mask as a length-``n`` boolean array (fresh, writable)."""
        if self.n == 0:
            return np.zeros(0, dtype=bool)
        return np.unpackbits(self.words.view(np.uint8), count=self.n, bitorder="little").view(
            np.bool_
        )

    def indices(self) -> np.ndarray:
        """Set-bit indices, ascending (the packed ``iter_bits``)."""
        return np.flatnonzero(self.to_bool())

    def to_bytes(self) -> bytes:
        """The words as little-endian bytes; ``int.from_bytes(m.to_bytes(),
        "little")`` is the int-backend mask of the same set."""
        return self.words.view(np.uint8).tobytes()

    def bit_count(self) -> int:
        return popcount_words(self.words)

    # -- operators (the int-mask surface) --

    def _binary(self, other, op) -> "PackedMask":
        if not isinstance(other, PackedMask):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"mask size mismatch: {self.n} vs {other.n}")
        return PackedMask(self.n, op(self.words, other.words))

    def __and__(self, other):
        return self._binary(other, np.bitwise_and)

    def __or__(self, other):
        return self._binary(other, np.bitwise_or)

    def __xor__(self, other):
        return self._binary(other, np.bitwise_xor)

    __rand__ = __and__
    __ror__ = __or__
    __rxor__ = __xor__

    def __invert__(self) -> "PackedMask":
        words = np.bitwise_not(self.words)
        rem = self.n & 63
        if rem and words.size:
            words[-1] &= np.uint64((1 << rem) - 1)
        return PackedMask(self.n, words)

    def __bool__(self) -> bool:
        return bool(self.words.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedMask):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        count = self.bit_count()
        return f"PackedMask(n={self.n}, bits={count})"


# The issue's name for the shim that lets mask-only callers run on
# either backend; :class:`PackedMask` is that handle.
MaskHandle = PackedMask


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
    self-loop once per row — the exact row content the int kernel
    derives from ``nx.Graph`` adjacency.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    loop = us == vs
    rows = np.concatenate([us, vs[~loop]])
    cols = np.concatenate([vs, us[~loop]])
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
    """CSR kernel with packed-mask primitives and no precomputed masks.

    Same invariants as :class:`~repro.graphs.kernel.GraphKernel` —
    labels repr-sorted, each CSR row ascending, kernel index order ==
    port order — but every vertex-set value is a :class:`PackedMask`
    and every primitive is a vectorized scan over the CSR arrays.
    Memory is O(n + m) words; there is deliberately **no**
    ``closed_bits`` table (accessing it raises).

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
        "_full",
        "_closed",
        "_back_ports",
        "_m",
        "memo",
        "__weakref__",
    )

    def __init__(self, labels: Sequence[Vertex], indptr, indices):
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
        self._index_of = None
        self._full = None
        self._closed = None
        self._back_ports = None
        self._m = None
        self.memo = {}

    @classmethod
    def from_graph(cls, graph) -> "PackedGraphKernel":
        """Build from an ``nx.Graph`` (labels repr-sorted, CSR canonical)."""
        labels = sorted(graph.nodes, key=repr)
        index_of = {label: i for i, label in enumerate(labels)}
        m = graph.number_of_edges()
        us = np.empty(m, dtype=np.int64)
        vs = np.empty(m, dtype=np.int64)
        for k, (u, v) in enumerate(graph.edges):
            us[k] = index_of[u]
            vs[k] = index_of[v]
        indptr, indices = build_undirected_csr(len(labels), us, vs)
        kernel = cls(labels, indptr, indices)
        kernel._index_of = index_of
        return kernel

    @classmethod
    def from_wire_parts(cls, labels, indptr_bytes: bytes, indices_bytes: bytes):
        """Rebuild from :class:`KernelWire` CSR bytes (zero-copy views)."""
        indptr = np.frombuffer(indptr_bytes, dtype=np.int64)
        indices = np.frombuffer(indices_bytes, dtype=np.int64)
        return cls(list(labels), indptr, indices)

    def to_wire(self):
        """This kernel as a ``KernelWire`` — byte-identical to the int
        backend's wire for the same graph (same labels, same CSR)."""
        from repro.graphs.kernel import KernelWire

        return KernelWire(tuple(self.labels), self.indptr.tobytes(), self.indices.tobytes())

    # -- lazily derived structure --

    @property
    def index_of(self) -> dict:
        if self._index_of is None:
            self._index_of = {label: i for i, label in enumerate(self.labels)}
        return self._index_of

    @property
    def full_mask(self) -> PackedMask:
        if self._full is None:
            self._full = PackedMask.full(self.n)
        return self._full

    def packed(self) -> "PackedGraphKernel":
        """This kernel itself (the int kernel's method returns a view)."""
        return self

    @property
    def closed_bits(self):
        raise AttributeError(
            "PackedGraphKernel has no closed_bits: per-node closed-neighborhood "
            "masks are not precomputed on the packed backend (that table is the "
            "O(n^2) memory it exists to avoid). Greedy, D2, twin reduction and "
            "the distributed greedy run on either backend; the int-only "
            "small-subset searches (exact B&B, local cuts, cuts, interesting "
            "vertices, algorithm1) need the int backend "
            "(REPRO_KERNEL_BACKEND=int or set_kernel_backend('int'))."
        )

    def _closed_csr(self):
        """Closed-neighborhood CSR (rows = ``N[v]``, sorted, deduped).

        O(n + m) words, built once on demand — the *row* form of the
        int backend's ``closed_bits`` table, without the n²-bit cost.
        """
        if self._closed is None:
            n = self.n
            arange = np.arange(n, dtype=np.int64)
            rows = np.concatenate([np.repeat(arange, np.diff(self.indptr)), arange])
            cols = np.concatenate([self.indices, arange])
            if rows.size:
                order = np.lexsort((cols, rows))
                rows = rows[order]
                cols = cols[order]
                keep = np.ones(rows.size, dtype=bool)
                keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
                rows = rows[keep]
                cols = cols[keep]
            cind = np.zeros(n + 1, dtype=np.int64)
            if rows.size:
                cind[1:] = np.cumsum(np.bincount(rows, minlength=n))
            self._closed = (cind, np.ascontiguousarray(cols))
        return self._closed

    def edge_count(self) -> int:
        """Number of undirected edges (self-loops counted once)."""
        if self._m is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            loops = int((self.indices == rows).sum())
            self._m = (int(self.indices.size) - loops) // 2 + loops
        return self._m

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

    def bits_of(self, vertices: Iterable[Vertex]) -> PackedMask:
        """Packed mask of an iterable of vertex labels."""
        return PackedMask.from_indices(self.n, self._indices_of_labels(vertices))

    def labels_of(self, mask: PackedMask) -> set:
        """Vertex labels of the set bits of ``mask``."""
        idx = mask.indices()
        if self._labels_arr is not None:
            return set(self._labels_arr[idx].tolist())
        labels = self.labels
        return {labels[i] for i in idx.tolist()}

    def neighbor_row(self, index: int) -> np.ndarray:
        """CSR row of ``index``: neighbor indices, sorted ascending."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def degree(self, index: int) -> int:
        return int(self.indptr[index + 1] - self.indptr[index])

    # -- domination primitives --

    def closed_neighborhood_bits(self, mask: PackedMask) -> PackedMask:
        """``N[S]`` as a packed mask, one multi-row gather + scatter."""
        src = mask.indices()
        flags = np.zeros(self.n, dtype=bool)
        if src.size:
            flags[_gather_rows(self.indptr, self.indices, src)] = True
            flags[src] = True
        return PackedMask.from_bool(flags)

    def union_closed_bits(self, vertices: Iterable[Vertex]) -> PackedMask:
        """``N[S]`` straight from vertex labels (the checker entry)."""
        src = self._indices_of_labels(vertices)
        flags = np.zeros(self.n, dtype=bool)
        if src.size:
            flags[_gather_rows(self.indptr, self.indices, src)] = True
            flags[src] = True
        return PackedMask.from_bool(flags)

    def dominates_vertices(self, vertices: Iterable[Vertex]) -> bool:
        return self.union_closed_bits(vertices).bit_count() == self.n

    def span_counts(self, undominated_mask: PackedMask) -> np.ndarray:
        """Residual spans ``|N[v] ∩ U|`` for every vertex (int64 array).

        One prefix sum over the closed CSR — no per-vertex popcounts.
        """
        cind, ccols = self._closed_csr()
        hits = undominated_mask.to_bool()[ccols]
        pref = np.zeros(ccols.size + 1, dtype=np.int64)
        if ccols.size:
            pref[1:] = np.cumsum(hits)
        return pref[cind[1:]] - pref[cind[:-1]]

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

    def ball_bits(self, center: Vertex, radius: int) -> PackedMask:
        """``N^r[center]`` as a packed mask."""
        if radius < 0:
            return PackedMask.zeros(self.n)
        i = self.index_of[center]
        if radius == 0:
            return PackedMask.from_indices(self.n, [i])
        return PackedMask.from_bool(self._ball_flags(np.array([i], dtype=np.int64), radius))

    def ball_labels(self, center: Vertex, radius: int) -> set:
        if radius < 0:
            return set()
        return self.labels_of(self.ball_bits(center, radius))

    def ball_labels_of_set(self, vertices: Iterable[Vertex], radius: int) -> set:
        start = self._indices_of_labels(vertices)
        if radius < 0:
            return set()
        if radius == 0:
            return self.labels_of(PackedMask.from_indices(self.n, start))
        return self.labels_of(PackedMask.from_bool(self._ball_flags(start, radius)))

    # -- masked connectivity (flood fills) --

    def _flood(self, seed_flags: np.ndarray, within: np.ndarray) -> np.ndarray:
        component = seed_flags & within
        frontier = np.flatnonzero(component)
        while frontier.size:
            nbrs = _gather_rows(self.indptr, self.indices, frontier)
            inside = nbrs[within[nbrs]]
            fresh = inside[~component[inside]]
            if fresh.size == 0:
                break
            component[fresh] = True
            frontier = np.unique(fresh)
        return component

    def component_bits(self, seed: PackedMask, within: PackedMask) -> PackedMask:
        """Connected component of ``G[within]`` containing ``seed``."""
        return PackedMask.from_bool(self._flood(seed.to_bool(), within.to_bool()))

    def components_of_mask(self, mask: PackedMask) -> Iterator[PackedMask]:
        """Connected components of ``G[mask]``, lowest kernel index first."""
        within = mask.to_bool()
        seeds = np.flatnonzero(within)
        remaining = within.copy()
        for s in seeds.tolist():
            if not remaining[s]:
                continue
            seed_flags = np.zeros(self.n, dtype=bool)
            seed_flags[s] = True
            component = self._flood(seed_flags, remaining)
            remaining &= ~component
            yield PackedMask.from_bool(component)

    def count_components_of_mask(self, mask: PackedMask) -> int:
        return sum(1 for _ in self.components_of_mask(mask))

    def is_mask_connected(self, mask: PackedMask) -> bool:
        if not mask:
            return True
        first = next(self.components_of_mask(mask))
        return first.bit_count() == mask.bit_count()

    # -- engine routing --

    def back_ports(self) -> np.ndarray:
        """Per-edge-slot back ports aligned with ``indices`` (int64).

        Sorting all directed slots by ``(col, row)`` enumerates, for
        each CSR slot ``s = (u, v)`` in order, exactly the reverse slot
        ``(v, u)`` — one lexsort replaces the int backend's per-slot
        binary search.
        """
        if self._back_ports is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            reverse_slot = np.lexsort((rows, self.indices))
            self._back_ports = reverse_slot - self.indptr[self.indices]
        return self._back_ports

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


def greedy_cover_packed(
    kernel: PackedGraphKernel, target_mask: PackedMask, candidate_mask: PackedMask
) -> PackedMask:
    """The set-cover greedy: the one selection loop behind every greedy.

    Each pick is the candidate covering the most still-uncovered
    targets, ties toward the lowest kernel index (= ``repr`` order).
    Lazy-greedy with a max-heap of stale gains: gains only decrease as
    targets get covered (submodularity), so a popped entry whose
    recomputed gain still matches its key is a true maximum.  Heap
    order is ``(-gain, index)``, which is exactly that selection.
    """
    n = kernel.n
    remaining = target_mask.to_bool()
    remaining_count = int(remaining.sum())
    chosen = np.zeros(n, dtype=bool)
    if remaining_count == 0:
        return PackedMask.from_bool(chosen)
    cind, ccols = kernel._closed_csr()
    candidates = candidate_mask.indices()
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
    return PackedMask.from_bool(chosen)


def two_packing_packed(kernel: PackedGraphKernel) -> int:
    """Array form of ``two_packing_lower_bound`` — identical count.

    Same deterministic greedy: visit vertices by ascending ``(degree,
    index)``, pick if unblocked, block the radius-2 ball — with the
    blocked set as a boolean array and each ball two CSR gathers.
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


def d2_members_packed(kernel: PackedGraphKernel) -> PackedMask:
    """``D₂(G)`` membership as a packed mask.

    ``v ∉ D₂`` iff some neighbor ``u`` has ``N[v] ⊆ N[u]``.  Candidate
    pairs are pre-filtered by closed degree, then all subset tests run
    as one batched ``searchsorted`` against the globally (row, col)-
    sorted closed CSR keys, reduced per pair with
    ``np.logical_and.reduceat`` — processed in bounded element chunks.
    """
    n = kernel.n
    if n == 0:
        return PackedMask.zeros(0)
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
    return PackedMask.from_bool(~dominated)


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
