"""Compact graph kernel: CSR adjacency + closed-neighborhood bitsets.

Every hot loop in the reproduction — domination checks, greedy residual
spans, ``N^r[v]`` balls, and the simulation engine's delivery routing —
used to re-walk ``nx.Graph`` adjacency dictionaries, allocating a fresh
Python set per call.  :class:`GraphKernel` is the shared compact
representation those loops run on instead:

* vertices are relabelled to ``0..n-1`` in deterministic ``repr`` order
  (the same ordering :func:`repro.graphs.util.relabel_to_integers` and
  the port-numbered :class:`~repro.local_model.network.Network` use, so
  kernel index order *is* port order);
* adjacency is stored once in CSR form (``indptr``/``indices`` as
  ``array('q')``), each row sorted by neighbor index;
* every closed neighborhood ``N[v]`` is precomputed as a Python-int
  bitset, so ``N[S]`` is a loop of ``|S|`` bitwise ORs and a residual
  span is a single ``int.bit_count()``.

Caching contract
----------------

Kernels are built once per graph through :func:`kernel_for` and cached
in a :class:`weakref.WeakKeyDictionary`, so the kernel lives exactly as
long as the graph object.  A kernel assumes the graph is **not mutated
after** ``kernel_for`` — mutate the graph and you must rebuild.  The
cache-hit path stays O(1), so the only automatic guard is the node
count: mutations that change it rebuild transparently, while any
equal-count mutation (edge rewires, node replacement) requires
:func:`invalidate_kernel` (or simply not mutating — the contract; see
README "Performance" and "Correctness tooling").

The contract is checked twice over: statically by ``repro lint`` —
RPR001 flags mutation paths that can reach a function exit without
``invalidate_kernel``, RPR002 flags per-graph caches that never
register with :func:`register_derived_cache` — and dynamically by the
``REPRO_KERNEL_GUARD=1`` sanitizer, under which every cache hit
re-verifies a structural fingerprint and raises
:class:`StaleKernelError` (with build-site provenance) instead of
serving a stale kernel.

Masks are plain Python ints: bit ``i`` set means "vertex with kernel
index ``i`` is in the set".  ``full_mask`` has all ``n`` bits set.

Two backends, one contract
--------------------------

Memory profile of this (int) backend: the precomputed
closed-neighborhood bitsets hold one ``n``-bit int per vertex —
O(n²/8) bytes in the worst case (~12 MB at n = 10⁴, ~1.2 GB at
n = 10⁵) — so it targets the 10³–10⁴ range the experiment workloads
live in.  Beyond that, :func:`kernel_for` automatically switches to
the **packed backend** (:class:`repro.graphs.packed.PackedGraphKernel`):
CSR adjacency in numpy ``int64`` arrays, vertex sets as packed
``uint64`` word arrays (:class:`~repro.graphs.packed.PackedMask`), and
— the load-bearing invariant — **no precomputed per-node
closed-neighborhood masks**; every primitive is a vectorized CSR scan,
keeping memory O(n + m) words all the way to n ≈ 10⁶
(BENCH_bigraph.json).

Selection is by node count against a threshold (default
``8192``), overridable three ways: the ``REPRO_KERNEL_BACKEND``
environment variable (``auto``/``int``/``packed``), the
:func:`set_kernel_backend` API, or the ``backend=`` argument of
:func:`kernel_for`/:func:`kernel_from_edges`.  Both backends share the
canonical form — labels repr-sorted, CSR rows ascending, identical
:class:`KernelWire` bytes — so masks produced by one backend's
primitives feed back into that same backend's primitives unchanged,
and differential tests pin the outputs equal.  Million-node instances
should be built through :func:`kernel_from_edges` /
:func:`kernel_from_edge_file` / :func:`read_wire` (never an
``nx.Graph``) and wrapped in :class:`KernelView` for the
``solve``/``solve_many`` front door.

The whole-graph pipelines run one CSR-array core on either backend:
the set-cover greedy, ``D₂``/``γ``, true-twin reduction and the
distributed greedy.  An int kernel reaches them through
:meth:`GraphKernel.packed`, a cached
:class:`~repro.graphs.packed.PackedGraphKernel` view over its own CSR.
``two_packing_lower_bound`` keeps one core per backend (its int loop
is faster at every size it was measured at).  The int-only pipelines
— the small-subset searches that read ``closed_bits`` — are exact
branch and bound with its ``PackingBound``, local cuts, cuts,
interesting vertices, ``algorithm1`` and ``weak_diameter_mask``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import traceback
import weakref
from array import array
from bisect import bisect_left
from typing import Hashable, Iterable, Iterator, NamedTuple

import networkx as nx

Vertex = Hashable

# Bounded chunk size for streaming digest/serialization of wires: big
# wires are hashed and written piecewise, never as one giant temporary.
_WIRE_CHUNK = 1 << 20


class StaleKernelError(RuntimeError):
    """A cached :class:`GraphKernel` was served for a mutated graph.

    Raised only under the ``REPRO_KERNEL_GUARD=1`` sanitizer (see
    :func:`set_kernel_guard`): the graph's structural fingerprint no
    longer matches the one recorded when its kernel was built, meaning
    some code mutated the graph without calling
    :func:`invalidate_kernel` — every kernel-backed primitive would have
    silently computed on stale topology.  The error message carries the
    build-site provenance of the offending kernel; the stale kernel and
    its derived caches are dropped before raising, so a handler may
    simply invalidate-and-retry.
    """


def wire_digest(wire: "KernelWire") -> str:
    """Canonical content hash of a :class:`KernelWire` snapshot.

    Two graphs with equal labels and equal CSR bytes hash equally, so
    the digest is a durable identity for an instance: the serve layer
    keys its resident cache on it, and the sweep layer's manifests and
    checkpoints use it to prove a shard re-executed after a crash ran
    the *same* instances.

    The hash is fed in bounded chunks (``_WIRE_CHUNK``): the label
    prefix streams byte-identically to ``repr(labels).encode("utf-8")``
    without materializing the whole repr string, and the CSR blobs are
    hashed through a ``memoryview`` window — digesting a million-node
    wire never allocates a second wire-sized object.  Digests are
    byte-for-byte identical to the historical whole-string formula.
    """
    hasher = hashlib.sha256()
    labels = wire.labels
    if not labels:
        hasher.update(b"()")
    elif len(labels) == 1:
        hasher.update(f"({labels[0]!r},)".encode("utf-8"))
    else:
        parts = ["("]
        size = 1
        last = len(labels) - 1
        for k, label in enumerate(labels):
            part = repr(label) if k == last else f"{label!r}, "
            parts.append(part)
            size += len(part)
            if size >= _WIRE_CHUNK:
                hasher.update("".join(parts).encode("utf-8"))
                parts = []
                size = 0
        parts.append(")")
        hasher.update("".join(parts).encode("utf-8"))
    for blob in (wire.indptr, wire.indices):
        view = memoryview(blob)
        for offset in range(0, len(view), _WIRE_CHUNK):
            hasher.update(view[offset : offset + _WIRE_CHUNK])
    return hasher.hexdigest()


class KernelWire(NamedTuple):
    """Compact picklable snapshot of a kernel: labels + raw CSR bytes.

    This is the batch runner's wire format: one ``KernelWire`` per
    instance replaces pickling the ``nx.Graph`` adjacency dicts once per
    ``(instance, algorithm)`` task.  It carries topology and vertex
    labels only — node/edge attribute dicts are not shipped (nothing in
    the solver/experiment stack reads them).  Rebuild with
    :func:`graph_from_wire`, which also pre-seeds the kernel cache so
    the receiving process never re-derives the CSR.
    """

    labels: tuple
    indptr: bytes
    indices: bytes


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Bit positions set in each byte value — lets dense masks be decoded
# bytewise (256-entry table + one to_bytes call) instead of with
# O(popcount) big-int isolate-lowest-bit operations.
_BYTE_BITS = tuple(
    tuple(j for j in range(8) if value >> j & 1) for value in range(256)
)


class GraphKernel:
    """Immutable CSR + bitset snapshot of an ``nx.Graph``.

    Build through :func:`kernel_for` (cached), not directly, unless you
    explicitly want an uncached snapshot.

    This is the *int* backend: it precomputes one ``n``-bit closed
    neighborhood per vertex (O(n²/8) bytes), which is what makes small
    graphs fast and large graphs impossible — the packed backend keeps
    the same API with no precomputed masks (see the module docstring).
    """

    backend = "int"

    __slots__ = (
        "n",
        "labels",
        "index_of",
        "indptr",
        "indices",
        "closed_bits",
        "full_mask",
        "_back_ports",
        "_dense_cut",
        "_packed",
        "__weakref__",
    )

    def __init__(self, graph: nx.Graph):
        labels: list[Vertex] = sorted(graph.nodes, key=repr)
        index_of = {label: i for i, label in enumerate(labels)}
        n = len(labels)
        indptr = array("q", [0])
        indices = array("q")
        closed_bits: list[int] = []
        for i, label in enumerate(labels):
            row = sorted(index_of[u] for u in graph.neighbors(label))
            indices.extend(row)
            indptr.append(len(indices))
            bits = 1 << i
            for j in row:
                bits |= 1 << j
            closed_bits.append(bits)
        self.n = n
        self.labels = labels
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.closed_bits = closed_bits
        self.full_mask = (1 << n) - 1
        self._back_ports: array | None = None
        # Ball walks go bitset-dense past this many visited vertices.
        self._dense_cut = max(64, n >> 3)
        self._packed = None

    @classmethod
    def _from_csr(cls, labels: list[Vertex], indptr: array, indices: array) -> "GraphKernel":
        """Rebuild a kernel from already-canonical CSR parts.

        ``labels`` must be repr-sorted and each CSR row ascending — the
        invariants :meth:`to_wire` snapshots — so only the closed
        bitsets need recomputing (no re-sort, no dict-driven walk of an
        ``nx.Graph``).
        """
        self = object.__new__(cls)
        n = len(labels)
        closed_bits: list[int] = []
        for i in range(n):
            bits = 1 << i
            for j in indices[indptr[i] : indptr[i + 1]]:
                bits |= 1 << j
            closed_bits.append(bits)
        self.n = n
        self.labels = labels
        self.index_of = {label: i for i, label in enumerate(labels)}
        self.indptr = indptr
        self.indices = indices
        self.closed_bits = closed_bits
        self.full_mask = (1 << n) - 1
        self._back_ports = None
        self._dense_cut = max(64, n >> 3)
        self._packed = None
        return self

    def to_wire(self) -> KernelWire:
        """This kernel as a :class:`KernelWire` (labels + CSR bytes)."""
        return KernelWire(tuple(self.labels), self.indptr.tobytes(), self.indices.tobytes())

    def packed(self):
        """This kernel's CSR as a :class:`~repro.graphs.packed.PackedGraphKernel`.

        The whole-graph pipeline cores run on CSR arrays only; this view
        hands them the kernel's own ``array('q')`` CSR through
        ``np.frombuffer`` (no copy) and shares ``labels`` and
        ``index_of``.  Built on first use, then cached with the kernel.
        """
        if self._packed is None:
            import numpy as np

            from repro.graphs.packed import PackedGraphKernel

            view = PackedGraphKernel(
                self.labels,
                np.frombuffer(self.indptr, dtype=np.int64),
                np.frombuffer(self.indices, dtype=np.int64),
            )
            view._index_of = self.index_of
            self._packed = view
        return self._packed

    # -- label <-> index <-> mask conversions --------------------------------

    def index(self, label: Vertex) -> int:
        """Kernel index of ``label``; raises ``KeyError`` when absent."""
        return self.index_of[label]

    def label(self, index: int) -> Vertex:
        """Vertex label at kernel ``index``."""
        return self.labels[index]

    def bits_of(self, vertices: Iterable[Vertex]) -> int:
        """Bitset mask of an iterable of vertex labels."""
        index_of = self.index_of
        mask = 0
        for v in vertices:
            mask |= 1 << index_of[v]
        return mask

    def labels_of(self, mask: int) -> set[Vertex]:
        """Vertex labels of the set bits of ``mask``.

        Sparse masks decode bit-by-bit; dense masks decode bytewise
        (256-entry table over ``to_bytes``), which costs O(n/8) byte
        visits instead of O(popcount) big-int isolate-lowest ops.
        """
        if not mask:
            return set()
        labels = self.labels
        if mask.bit_count() * 8 < mask.bit_length():
            return {labels[i] for i in iter_bits(mask)}
        byte_bits = _BYTE_BITS
        result: set[Vertex] = set()
        base = 0
        for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
            if byte:
                for j in byte_bits[byte]:
                    result.add(labels[base + j])
            base += 8
        return result

    def neighbor_row(self, index: int) -> array:
        """CSR row of ``index``: neighbor indices, sorted ascending."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def degree(self, index: int) -> int:
        return self.indptr[index + 1] - self.indptr[index]

    def edge_count(self) -> int:
        """Number of undirected edges (self-loops counted once)."""
        indptr, indices = self.indptr, self.indices
        loops = 0
        for i in range(self.n):
            pos = bisect_left(indices, i, indptr[i], indptr[i + 1])
            if pos < indptr[i + 1] and indices[pos] == i:
                loops += 1
        return (len(indices) - loops) // 2 + loops

    # -- domination primitives ----------------------------------------------

    def closed_neighborhood_bits(self, mask: int) -> int:
        """``N[S]`` as a bitset, for ``S`` given as a bitset."""
        closed = self.closed_bits
        result = 0
        for i in iter_bits(mask):
            result |= closed[i]
        return result

    def union_closed_bits(self, vertices: Iterable[Vertex]) -> int:
        """``N[S]`` as a bitset, straight from vertex *labels*.

        The label-direct twin of :meth:`closed_neighborhood_bits`: one
        dict lookup + OR per vertex, no intermediate mask to build and
        re-decompose — this is the hot entry the domination checkers
        use.
        """
        closed = self.closed_bits
        index_of = self.index_of
        result = 0
        for v in vertices:
            result |= closed[index_of[v]]
        return result

    def dominates(self, mask: int) -> bool:
        """Whether the vertex set ``mask`` dominates the whole graph."""
        return self.closed_neighborhood_bits(mask) == self.full_mask

    def dominates_vertices(self, vertices: Iterable[Vertex]) -> bool:
        """Whether the vertices (given as labels) dominate the graph."""
        return self.union_closed_bits(vertices) == self.full_mask

    def undominated(self, mask: int) -> int:
        """Bitset of vertices not dominated by the vertex set ``mask``."""
        return self.full_mask & ~self.closed_neighborhood_bits(mask)

    def span_counts(self, undominated_mask: int) -> list[int]:
        """Residual spans ``|N[v] ∩ U|`` for every vertex, as a list."""
        closed = self.closed_bits
        return [(bits & undominated_mask).bit_count() for bits in closed]

    # -- balls (frontier BFS on CSR) ----------------------------------------
    #
    # Hybrid strategy: while the ball is small relative to n, walk CSR
    # rows with a plain index set (small-int ops only — no O(n/64)
    # big-int work per frontier vertex, so tiny balls on huge graphs
    # stay as cheap as adjacency BFS).  Once the visited set crosses
    # ``_dense_cut`` the walk converts to bitsets and finishes with
    # whole-row ORs, which win exactly when frontiers are dense.

    def _mask_from_indices(self, indices: Iterable[int]) -> int:
        flags = bytearray((self.n + 7) >> 3)
        for i in indices:
            flags[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(flags, "little")

    def _expand_dense(self, seen: int, frontier: int, steps: int) -> int:
        # Frontiers here are dense by construction, so decode them
        # bytewise (O(n/8) byte visits) rather than with per-bit
        # isolate-lowest ops, each of which costs O(n/64) words.
        closed = self.closed_bits
        byte_bits = _BYTE_BITS
        for _ in range(steps):
            if not frontier:
                break
            reach = 0
            base = 0
            for byte in frontier.to_bytes((frontier.bit_length() + 7) // 8, "little"):
                if byte:
                    for j in byte_bits[byte]:
                        reach |= closed[base + j]
                base += 8
            frontier = reach & ~seen
            seen |= frontier
        return seen

    def _ball_walk(self, start: Iterable[int], radius: int) -> tuple[bool, object]:
        """BFS core; returns ``(dense, seen)`` — a bitset when ``dense``,
        an index set otherwise."""
        indptr, indices = self.indptr, self.indices
        cut = self._dense_cut
        seen = set(start)
        frontier = list(seen)
        step = 0
        while step < radius and frontier:
            if len(seen) > cut:
                return True, self._expand_dense(
                    self._mask_from_indices(seen),
                    self._mask_from_indices(frontier),
                    radius - step,
                )
            grown = []
            for u in frontier:
                for j in indices[indptr[u] : indptr[u + 1]]:
                    if j not in seen:
                        seen.add(j)
                        grown.append(j)
            frontier = grown
            step += 1
        return False, seen

    def ball_bits(self, center: Vertex, radius: int) -> int:
        """``N^r[center]`` as a bitset; frontier BFS over CSR rows."""
        if radius < 0:
            return 0
        i = self.index_of[center]
        if radius == 0:
            return 1 << i
        dense, seen = self._ball_walk([i], radius)
        return seen if dense else self._mask_from_indices(seen)

    def ball_bits_from_mask(self, mask: int, radius: int) -> int:
        """``N^r[S]`` as a bitset for ``S`` given as a bitset."""
        if radius <= 0 or not mask:
            return 0 if radius < 0 else mask
        if mask.bit_count() > self._dense_cut:
            return self._expand_dense(mask, mask, radius)
        dense, seen = self._ball_walk(iter_bits(mask), radius)
        return seen if dense else self._mask_from_indices(seen)

    def ball_labels(self, center: Vertex, radius: int) -> set[Vertex]:
        """``N^r[center]`` as a set of vertex labels (no mask round-trip
        for small balls — the fast path :func:`repro.graphs.util.ball`
        rides)."""
        if radius < 0:
            return set()
        i = self.index_of[center]
        labels = self.labels
        if radius == 0:
            return {labels[i]}
        dense, seen = self._ball_walk([i], radius)
        if dense:
            return self.labels_of(seen)
        return {labels[i] for i in seen}

    def ball_labels_of_set(self, vertices: Iterable[Vertex], radius: int) -> set[Vertex]:
        """``N^r[S]`` as a set of labels, for ``S`` given as labels."""
        index_of = self.index_of
        start = [index_of[v] for v in vertices]
        if radius < 0:
            return set()
        labels = self.labels
        if radius == 0:
            return {labels[i] for i in start}
        dense, seen = self._ball_walk(start, radius)
        if dense:
            return self.labels_of(seen)
        return {labels[i] for i in seen}

    # -- masked connectivity (flood fills) ----------------------------------

    def component_bits(self, seed: int, within: int) -> int:
        """Connected component of ``G[within]`` containing ``seed``.

        ``seed`` and ``within`` are bitsets; the result is the fixpoint of
        OR-ing closed-neighborhood rows, masked by ``within`` — no
        subgraph object is ever materialized.  ``seed`` bits outside
        ``within`` are ignored.
        """
        closed = self.closed_bits
        component = seed & within
        frontier = component
        while frontier:
            reach = 0
            for i in iter_bits(frontier):
                reach |= closed[i]
            frontier = reach & within & ~component
            component |= frontier
        return component

    def components_of_mask(self, mask: int) -> Iterator[int]:
        """Yield the connected components of ``G[mask]`` as bitsets.

        Components come out ordered by their lowest kernel index — i.e.
        by the repr-least vertex they contain, which is the deterministic
        order the rest of the library sorts components into.
        """
        remaining = mask
        while remaining:
            component = self.component_bits(remaining & -remaining, mask)
            yield component
            remaining &= ~component

    def count_components_of_mask(self, mask: int) -> int:
        """Number of connected components of ``G[mask]``."""
        count = 0
        remaining = mask
        while remaining:
            remaining &= ~self.component_bits(remaining & -remaining, mask)
            count += 1
        return count

    def is_mask_connected(self, mask: int) -> bool:
        """Whether ``G[mask]`` is connected (one flood fill, early bound).

        The empty mask counts as connected (zero components).
        """
        if not mask:
            return True
        return self.component_bits(mask & -mask, mask) == mask

    # -- engine routing ------------------------------------------------------

    def back_ports(self) -> array:
        """Per-edge-slot back ports, aligned with ``indices``.

        For the directed slot ``s`` in row ``u`` pointing at ``v``,
        ``back_ports()[s]`` is the position of ``u`` inside row ``v`` —
        i.e. the receiver port a message sent on ``u``'s port
        ``s - indptr[u]`` lands on.  Rows are sorted, so the reverse
        slot is found by binary search; computed once, then cached.
        """
        if self._back_ports is None:
            indptr, indices = self.indptr, self.indices
            back = array("q", bytes(8 * len(indices)))
            for u in range(self.n):
                for s in range(indptr[u], indptr[u + 1]):
                    v = indices[s]
                    back[s] = bisect_left(indices, u, indptr[v], indptr[v + 1]) - indptr[v]
            self._back_ports = back
        return self._back_ports


_KERNELS: "weakref.WeakKeyDictionary[nx.Graph, GraphKernel]"
# repro: ignore[RPR002] the primary kernel cache itself — invalidate_kernel
# clears it directly, so registering it as a *derived* cache would be circular.
_KERNELS = weakref.WeakKeyDictionary()


# Per-graph caches derived from kernel-era state (e.g. the memoized
# outerplanarity verdict).  invalidate_kernel clears them alongside the
# kernel itself, so one call recovers from any mutation.
_DERIVED_CACHES: list = []


def register_derived_cache(cache: "weakref.WeakKeyDictionary") -> None:
    """Register a per-graph cache for :func:`invalidate_kernel` to clear.

    This is the *other half* of the mutation contract: any module-level
    per-graph cache whose values are derived from kernel-era structure
    (memoized verdicts, ball-mask arenas, exact optima, ...) must pass
    itself here, or the one sanctioned mutation-recovery call —
    ``invalidate_kernel(graph)`` — cannot clear it and it will serve
    stale values.  ``repro lint`` enforces this statically as RPR002.
    """
    _DERIVED_CACHES.append(cache)


# -- the REPRO_KERNEL_GUARD runtime sanitizer -------------------------------
#
# The static pass (repro.lint, RPR001) proves the invalidation contract
# for mutations it can see; the guard catches the rest at runtime —
# aliased mutation, third-party code, REPL experiments.  When enabled,
# kernel_for records a cheap structural fingerprint per graph at build
# time and re-verifies it on every cache hit, raising StaleKernelError
# (with build-site provenance) instead of serving a stale kernel.

_GUARD_ENV = "REPRO_KERNEL_GUARD"
_KERNEL_GUARD = os.environ.get(_GUARD_ENV, "") not in ("", "0")

# graph -> ((n, m, node_xor, edge_xor), "file:line in func" build site).
# Registered as a derived cache: invalidate_kernel resets the record
# along with the kernel itself, so an invalidate-then-rebuild cycle
# re-fingerprints cleanly.
_GUARD_STATE: "weakref.WeakKeyDictionary[nx.Graph, tuple]" = weakref.WeakKeyDictionary()
register_derived_cache(_GUARD_STATE)


def set_kernel_guard(enabled: bool) -> bool:
    """Toggle the staleness sanitizer; returns the previous setting.

    The initial setting comes from the ``REPRO_KERNEL_GUARD`` environment
    variable at import time (any value other than empty/``0`` enables
    it); tests flip it per-case through this function.
    """
    global _KERNEL_GUARD
    previous = _KERNEL_GUARD
    _KERNEL_GUARD = bool(enabled)
    return previous


def kernel_guard_enabled() -> bool:
    """Whether the staleness sanitizer is currently active."""
    return _KERNEL_GUARD


def _structural_fingerprint(graph: nx.Graph) -> tuple[int, int, int, int]:
    """(n, m, node-xor, edge-xor): order-independent, O(n + m), cheap.

    Hashes are per-process (str hashes are salted), which is fine: the
    fingerprint is only ever compared within one process lifetime.
    """
    node_acc = 0
    for v in graph.nodes:
        # repro: ignore[RPR003] salted per process, but the fingerprint is
        # only ever compared within the process that recorded it.
        node_acc ^= hash(v)
    edge_acc = 0
    for u, v in graph.edges:
        hu, hv = hash(u), hash(v)  # repro: ignore[RPR003] in-process only
        if hu > hv:
            hu, hv = hv, hu
        edge_acc ^= hash((hu, hv))  # repro: ignore[RPR003] in-process only
    return (graph.number_of_nodes(), graph.number_of_edges(), node_acc, edge_acc)


def _build_site() -> str:
    """The first non-kernel.py frame below us: where kernel_for was called."""
    here = os.path.basename(__file__)
    for frame in reversed(traceback.extract_stack()[:-2]):
        if os.path.basename(frame.filename) != here:
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown>"


def _guard_record(graph: nx.Graph) -> None:
    try:
        _GUARD_STATE[graph] = (_structural_fingerprint(graph), _build_site())
    except TypeError:  # graph type that cannot be weak-referenced
        pass


def _guard_verify(graph: nx.Graph) -> None:
    try:
        state = _GUARD_STATE.get(graph)
    except TypeError:
        return
    if state is None:
        # Kernel cached before the guard was switched on: adopt it now.
        _guard_record(graph)
        return
    recorded, site = state
    current = _structural_fingerprint(graph)
    if current == recorded:
        return
    invalidate_kernel(graph)  # drop the stale kernel + derived caches
    n0, m0 = recorded[0], recorded[1]
    raise StaleKernelError(
        f"stale GraphKernel: graph was mutated after kernel_for() without "
        f"invalidate_kernel() — kernel built with n={n0}, m={m0} at {site}; "
        f"graph now has n={current[0]}, m={current[1]} "
        f"(adjacency checksum {'matches' if current[2:] == recorded[2:] else 'differs'}). "
        f"Call repro.graphs.invalidate_kernel(graph) after every mutation; "
        f"the stale kernel has been dropped, so retrying is safe."
    )


# -- backend selection ------------------------------------------------------
#
# Small graphs keep the int-mask backend (fast, precomputed masks);
# large graphs get the packed numpy backend (O(n + m) words, no mask
# table).  The switch is a node-count threshold; both the choice and
# the threshold can be forced for testing either backend at any size.

_BACKEND_ENV = "REPRO_KERNEL_BACKEND"
_THRESHOLD_ENV = "REPRO_KERNEL_PACKED_THRESHOLD"
_BACKENDS = ("auto", "int", "packed")
_DEFAULT_PACKED_THRESHOLD = 8192

_KERNEL_BACKEND = os.environ.get(_BACKEND_ENV, "auto") or "auto"
if _KERNEL_BACKEND not in _BACKENDS:  # pragma: no cover - env misconfiguration
    raise ValueError(f"{_BACKEND_ENV} must be one of {_BACKENDS}, got {_KERNEL_BACKEND!r}")
_PACKED_THRESHOLD = int(os.environ.get(_THRESHOLD_ENV, _DEFAULT_PACKED_THRESHOLD))


def set_kernel_backend(backend: str | None = None, *, threshold: int | None = None):
    """Force the kernel backend and/or the auto-selection threshold.

    ``backend`` is ``"auto"`` (select by node count), ``"int"``, or
    ``"packed"``; ``None`` leaves the current choice.  ``threshold`` is
    the node count at which ``"auto"`` switches to packed.  Returns the
    previous ``(backend, threshold)`` pair so tests can restore it.
    Initial values come from ``REPRO_KERNEL_BACKEND`` and
    ``REPRO_KERNEL_PACKED_THRESHOLD`` at import time.
    """
    global _KERNEL_BACKEND, _PACKED_THRESHOLD
    previous = (_KERNEL_BACKEND, _PACKED_THRESHOLD)
    if backend is not None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        _KERNEL_BACKEND = backend
    if threshold is not None:
        _PACKED_THRESHOLD = int(threshold)
    return previous


def kernel_backend() -> tuple[str, int]:
    """The current ``(backend, threshold)`` selection settings."""
    return (_KERNEL_BACKEND, _PACKED_THRESHOLD)


def _resolve_backend(n: int, override: str | None = None) -> str:
    choice = override if override is not None else _KERNEL_BACKEND
    if choice not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {choice!r}")
    if choice == "auto":
        return "packed" if n >= _PACKED_THRESHOLD else "int"
    return choice


class KernelView:
    """Graph-shaped facade over a standalone kernel — no ``nx.Graph``.

    Million-node instances built through :func:`kernel_from_edges` or
    :func:`read_wire` never materialize adjacency dicts; this view
    gives them the minimal ``nx.Graph`` surface the front door uses
    (``number_of_nodes``/``number_of_edges``, node iteration,
    ``neighbors``, ``edges``) while :func:`kernel_for` short-circuits
    straight to the wrapped kernel.  The view is weak-referenceable, so
    per-graph derived caches (exact-OPT, guard state) key on it like
    they key on graphs.  It is read-only: mutation-shaped calls do not
    exist, so the kernel staleness contract is trivially satisfied.
    """

    __slots__ = ("kernel", "__weakref__")

    def __init__(self, kernel):
        self.kernel = kernel

    def number_of_nodes(self) -> int:
        return self.kernel.n

    def number_of_edges(self) -> int:
        return self.kernel.edge_count()

    @property
    def nodes(self):
        return self.kernel.labels

    def __iter__(self):
        return iter(self.kernel.labels)

    def __len__(self) -> int:
        return self.kernel.n

    def __contains__(self, vertex) -> bool:
        try:
            return vertex in self.kernel.index_of
        except TypeError:
            return False

    def has_node(self, vertex) -> bool:
        return vertex in self

    def neighbors(self, vertex):
        kernel = self.kernel
        labels = kernel.labels
        for j in kernel.neighbor_row(kernel.index_of[vertex]):
            yield labels[j]

    @property
    def edges(self):
        kernel = self.kernel
        labels = kernel.labels
        return (
            (labels[i], labels[int(j)])
            for i in range(kernel.n)
            for j in kernel.neighbor_row(i)
            if j >= i  # >= keeps self-loops listed once
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelView(n={self.kernel.n}, backend={self.kernel.backend})"


def kernel_for(graph: nx.Graph, backend: str | None = None) -> GraphKernel:
    """The cached :class:`GraphKernel` of ``graph`` (built on first use).

    **The mutation contract** (enforced by ``repro lint`` rule RPR001
    and, at runtime, the ``REPRO_KERNEL_GUARD`` sanitizer): the cache-hit
    path must stay O(1) — it sits in front of every hot primitive — so
    the only mutation guard applied per call is the node count.  A
    mutation that changes the node count triggers a rebuild; any
    mutation that keeps it (edge rewires, but also equal-count node
    replacement) does **not** and is on the caller: either stop
    mutating after ``kernel_for`` (the contract) or call
    :func:`invalidate_kernel` after the mutation — on *every* path from
    the mutation to the surrounding function's exit, including early
    returns and raised errors.

    Under ``REPRO_KERNEL_GUARD=1`` (or :func:`set_kernel_guard`), every
    cache hit re-verifies a structural fingerprint recorded at build
    time and raises :class:`StaleKernelError` on a contract breach
    instead of serving the stale kernel.  The guard costs O(n + m) per
    hit, so it is a CI/debug tool, not a production default.

    **Backend**: the result is an int-mask :class:`GraphKernel` below
    the packed threshold and a
    :class:`~repro.graphs.packed.PackedGraphKernel` at or above it
    (see :func:`set_kernel_backend`); ``backend=`` forces the choice
    for this call, and a cached kernel of the wrong backend is rebuilt
    transparently.  A :class:`KernelView` short-circuits to its wrapped
    kernel.
    """
    if isinstance(graph, KernelView):
        return graph.kernel
    wanted = _resolve_backend(graph.number_of_nodes(), backend)
    kernel = _KERNELS.get(graph)
    if (
        kernel is not None
        and kernel.n == graph.number_of_nodes()
        and kernel.backend == wanted
    ):
        if _KERNEL_GUARD:
            _guard_verify(graph)
        return kernel
    if wanted == "packed":
        from repro.graphs.packed import PackedGraphKernel

        kernel = PackedGraphKernel.from_graph(graph)
    else:
        kernel = GraphKernel(graph)
    try:
        _KERNELS[graph] = kernel
        if _KERNEL_GUARD:
            _guard_record(graph)
    except TypeError:  # graph type that cannot be weak-referenced
        pass
    return kernel


def graph_from_wire(wire: KernelWire) -> nx.Graph:
    """Rebuild the graph a :class:`KernelWire` was snapshotted from.

    The returned ``nx.Graph`` has the wire's labels and edges, and its
    :class:`GraphKernel` is reconstructed straight from the CSR bytes
    and pre-seeded into the :func:`kernel_for` cache — a worker process
    receiving a wire pays one linear pass, not a full kernel build, and
    every kernel-backed primitive on the rebuilt graph is warm.
    """
    labels = list(wire.labels)
    indptr = array("q")
    indptr.frombytes(wire.indptr)
    indices = array("q")
    indices.frombytes(wire.indices)
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    graph.add_edges_from(
        (labels[u], labels[j])
        for u in range(len(labels))
        for j in indices[indptr[u] : indptr[u + 1]]
        if j >= u  # >= keeps self-loops round-tripping
    )
    kernel = kernel_from_wire(wire)
    try:
        _KERNELS[graph] = kernel
        if _KERNEL_GUARD:
            _guard_record(graph)
    except TypeError:  # graph type that cannot be weak-referenced
        pass
    return graph


def kernel_from_wire(wire: KernelWire, backend: str | None = None):
    """Rebuild just the kernel from a wire (no graph object at all).

    The backend follows the current selection settings (or ``backend=``),
    so a worker process receiving a million-node wire reconstructs a
    packed kernel straight from the CSR bytes — one ``frombuffer``, no
    adjacency dicts, no mask table.
    """
    n = len(wire.labels)
    if _resolve_backend(n, backend) == "packed":
        from repro.graphs.packed import PackedGraphKernel

        return PackedGraphKernel.from_wire_parts(wire.labels, wire.indptr, wire.indices)
    indptr = array("q")
    indptr.frombytes(wire.indptr)
    indices = array("q")
    indices.frombytes(wire.indices)
    return GraphKernel._from_csr(list(wire.labels), indptr, indices)


def instance_from_wire(wire: KernelWire):
    """The wire as a solvable instance: ``nx.Graph`` or :class:`KernelView`.

    Below the packed threshold this is :func:`graph_from_wire` (full
    graph object, kernel pre-seeded); at or above it the instance stays
    a :class:`KernelView` over a packed kernel — the O(n + m) path the
    batch runners and sweep workers hand to ``solve``.
    """
    if _resolve_backend(len(wire.labels)) == "packed":
        return KernelView(kernel_from_wire(wire, "packed"))
    return graph_from_wire(wire)


# -- streaming ingestion ----------------------------------------------------


def kernel_from_edges(
    edges: Iterable, *, n: int | None = None, nodes: Iterable | None = None,
    backend: str | None = None,
):
    """Build a kernel straight from an edge iterable — no ``nx.Graph``.

    Streams ``edges`` once (buffered in bounded chunks), maps labels to
    repr-sorted kernel order (vectorized for all-int labels), and
    assembles canonical CSR with numpy sorts — a million-node instance
    ingests in O(n + m) memory without ever touching adjacency dicts.
    ``n`` declares the vertex set as ``range(n)`` (so trailing isolated
    vertices survive); ``nodes`` adds explicit extra vertices; backend
    selection follows :func:`kernel_for` unless forced.  Wrap the
    result in :class:`KernelView` to feed ``solve``/``solve_many``.
    """
    from repro.graphs.packed import PackedGraphKernel, build_undirected_csr, collect_edges

    labels, us, vs = collect_edges(edges, n=n, nodes=nodes)
    indptr, indices = build_undirected_csr(len(labels), us, vs)
    if _resolve_backend(len(labels), backend) == "packed":
        return PackedGraphKernel(labels, indptr, indices)
    int_indptr = array("q")
    int_indptr.frombytes(indptr.tobytes())
    int_indices = array("q")
    int_indices.frombytes(indices.tobytes())
    return GraphKernel._from_csr(labels, int_indptr, int_indices)


def kernel_from_edge_file(
    path, *, n: int | None = None, nodes: Iterable | None = None,
    backend: str | None = None,
):
    """Build a kernel from a whitespace-separated edge-list file.

    One ``u v`` pair per line; blank lines and ``#`` comments are
    skipped.  The file is read line-by-line into
    :func:`kernel_from_edges`, so ingestion stays streaming end to end.
    """

    def _edges():
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                first, second = line.split()[:2]
                yield int(first), int(second)

    return kernel_from_edges(_edges(), n=n, nodes=nodes, backend=backend)


# -- on-disk wire format ----------------------------------------------------

_WIRE_MAGIC = b"REPROWIRE1\n"


def write_wire(wire: KernelWire, path) -> None:
    """Write a :class:`KernelWire` to disk in bounded chunks.

    Format: magic line; a header line ``<n> <len(indptr)>
    <len(indices)> <label-mode>``; the labels (raw little-endian int64
    for all-int labels, a length-prefixed pickle otherwise); then the
    CSR blobs, each streamed through a ``memoryview`` window so no
    wire-sized temporary is ever created.
    """
    all_int = all(type(label) is int for label in wire.labels)
    with open(path, "wb") as handle:
        handle.write(_WIRE_MAGIC)
        mode = "int" if all_int else "pickle"
        handle.write(
            f"{len(wire.labels)} {len(wire.indptr)} {len(wire.indices)} {mode}\n".encode()
        )
        if all_int:
            label_view = memoryview(array("q", wire.labels).tobytes())
            for offset in range(0, len(label_view), _WIRE_CHUNK):
                handle.write(label_view[offset : offset + _WIRE_CHUNK])
        else:
            blob = pickle.dumps(tuple(wire.labels), protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(f"{len(blob)}\n".encode())
            handle.write(blob)
        for payload in (wire.indptr, wire.indices):
            view = memoryview(payload)
            for offset in range(0, len(view), _WIRE_CHUNK):
                handle.write(view[offset : offset + _WIRE_CHUNK])


def _read_exact(handle, length: int) -> bytes:
    buffer = bytearray(length)
    view = memoryview(buffer)
    offset = 0
    while offset < length:
        got = handle.readinto(view[offset : offset + _WIRE_CHUNK])
        if not got:
            raise ValueError("truncated wire file")
        offset += got
    return bytes(buffer)


def read_wire(path) -> KernelWire:
    """Read a :func:`write_wire` file back into a :class:`KernelWire`.

    Reads in bounded chunks straight into preallocated buffers; combine
    with :func:`kernel_from_wire`/:func:`instance_from_wire` to go from
    disk to a solvable million-node instance without an ``nx.Graph``.
    """
    with open(path, "rb") as handle:
        if handle.readline() != _WIRE_MAGIC:
            raise ValueError(f"{path} is not a repro wire file")
        count_s, indptr_len_s, indices_len_s, mode = handle.readline().split()
        count, indptr_len, indices_len = int(count_s), int(indptr_len_s), int(indices_len_s)
        if mode == b"int":
            raw = array("q")
            raw.frombytes(_read_exact(handle, count * 8))
            labels = tuple(raw)
        else:
            blob_len = int(handle.readline())
            labels = pickle.loads(_read_exact(handle, blob_len))
        indptr = _read_exact(handle, indptr_len)
        indices = _read_exact(handle, indices_len)
    return KernelWire(labels, indptr, indices)


def invalidate_kernel(graph: nx.Graph) -> None:
    """Drop every cached view of ``graph`` (call after mutating it).

    This is the one sanctioned recovery from a mutation: it evicts the
    cached :class:`GraphKernel` *and* every registered derived cache
    (see :func:`register_derived_cache`) plus the sanitizer's
    fingerprint, so the next ``kernel_for`` rebuilds from the mutated
    topology.  The caller's obligation — checked by ``repro lint``
    RPR001 — is to reach this call on every path from a mutation to the
    mutating function's exit.
    """
    try:
        _KERNELS.pop(graph, None)
        for cache in _DERIVED_CACHES:
            cache.pop(graph, None)
    except TypeError:  # not weak-referenceable: nothing was ever cached
        pass
