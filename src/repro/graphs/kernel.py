"""Compact graph kernel: one CSR core, plus a closed-neighborhood bitset table.

Every hot loop in the reproduction — domination checks, greedy residual
spans, ``N^r[v]`` balls, and the simulation engine's delivery routing —
used to re-walk ``nx.Graph`` adjacency dictionaries, allocating a fresh
Python set per call.  The kernel is the shared compact representation
those loops run on instead:

* vertices are relabelled to ``0..n-1`` in deterministic ``repr`` order
  (the same ordering :func:`repro.graphs.util.relabel_to_integers` and
  the port-numbered :class:`~repro.local_model.network.Network` use, so
  kernel index order *is* port order);
* adjacency is stored once in CSR form, each row sorted by neighbor
  index, in a :class:`~repro.graphs.packed.PackedGraphKernel`;
* for the int-mask searches, :class:`GraphKernel` adds every closed
  neighborhood ``N[v]`` as a Python-int bitset, so ``N[S]`` is a loop
  of ``|S|`` bitwise ORs and a residual span is a single
  ``int.bit_count()``.

Caching contract
----------------

Kernels are built once per graph through :func:`kernel_for` and cached
in a :class:`weakref.WeakKeyDictionary`, so the kernel lives exactly as
long as the graph object.  Everything else derived from the graph —
ball masks, local and global cut lists, exact optima, the sanitizer's
fingerprint — is kept in the kernel's ``memo`` dict, so it lives and
dies with the kernel.  A kernel assumes the graph is **not mutated
after** ``kernel_for`` — mutate the graph and you must rebuild.  The
cache-hit path stays O(1), so the only automatic guard is the node
count: mutations that change it rebuild transparently, while any
equal-count mutation (edge rewires, node replacement) requires
:func:`invalidate_kernel` (or simply not mutating — the contract; see
README "Performance" and "Correctness tooling").

The contract is checked twice over: statically by ``repro lint`` —
RPR001 flags mutation paths that can reach a function exit without
``invalidate_kernel``, RPR002 flags module-level per-graph caches
outside ``kernel.memo`` — and dynamically by the
``REPRO_KERNEL_GUARD=1`` sanitizer, under which every cache hit
re-verifies a structural fingerprint and raises
:class:`StaleKernelError` (with build-site provenance) instead of
serving a stale kernel.

Masks are plain Python ints on both backends: bit ``i`` set means
"vertex with kernel index ``i`` is in the set".  ``full_mask`` has all
``n`` bits set.

Two backends, one contract
--------------------------

Every kernel is ingested once, by one canonical-CSR builder
(:func:`~repro.graphs.packed.csr_from_graph`, or the wire and edge-list
readers), into a :class:`~repro.graphs.packed.PackedGraphKernel`:
numpy ``int64`` CSR, O(n + m) words all the way to n ≈ 10⁶
(BENCH_bigraph.json).  Each whole-graph primitive and pipeline — wires,
edge counts, ports and back ports, the set-cover greedy, ``D₂``/``γ``,
true-twin reduction, the two-packing bound, vertex-cover validation —
has one implementation, on that CSR core.

The int backend, :class:`GraphKernel`, is a bitset table over that CSR
kernel: it holds the CSR kernel (:meth:`GraphKernel.packed`) and adds
``closed_bits``, one ``n``-bit int per vertex — O(n²/8) bytes (~12 MB
at n = 10⁴, ~1.2 GB at n = 10⁵) — with the mask primitives, ball walks
and flood fills the int-mask searches run on.  Those searches — exact
branch and bound with its ``PackingBound``, local cuts, cuts,
interesting vertices, ``algorithm1`` and ``weak_diameter_mask`` — reach
the table through ``bitsets()`` on either kernel; on a packed kernel
that builds the same table once and caches it, and their memo entries
live on it.  The table holds its CSR kernel and nothing points back, so
no reference cycle forms.

:func:`kernel_for` returns an int kernel below a node-count threshold
(default ``8192``) and the packed kernel at or above it.  The choice
has two override channels: the ``REPRO_KERNEL_BACKEND`` environment
variable (``auto``/``int``/``packed``) and the
:func:`set_kernel_backend` API.  Both backends share the canonical
form and one mask type, so a mask from either means the same vertex
set, and differential tests pin the outputs equal.  Million-node
instances should be built through :func:`kernel_from_edges` /
:func:`kernel_from_edge_file` / :func:`read_wire` (never an
``nx.Graph``) and wrapped in :class:`KernelView` for the
``solve``/``solve_many`` front door.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import traceback
import weakref
from array import array
from typing import Hashable, Iterable, Iterator, NamedTuple

import networkx as nx

from repro.graphs.packed import (
    PackedGraphKernel,
    build_undirected_csr,
    collect_edges,
    csr_from_graph,
)

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
    its memo are dropped before raising, so a handler may
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
    """The int backend: a closed-neighborhood bitset table over a CSR kernel.

    Build through :func:`kernel_for` (cached), not directly, unless you
    explicitly want an uncached snapshot.

    Every kernel's CSR is a :class:`~repro.graphs.packed.PackedGraphKernel`;
    this class layers on it what the int-mask searches need — one
    ``n``-bit closed neighborhood per vertex (``closed_bits``, O(n²/8)
    bytes), the mask primitives that read it, and the ball walks and
    flood fills.  Whole-graph work (wires, edge counts, ports, the
    pipeline cores) runs on :meth:`packed`, the CSR kernel this table
    was built over.

    ``memo`` is the one mutable part: a dict of results derived from
    this kernel, filled by the modules that compute them.
    """

    backend = "int"

    __slots__ = (
        "n",
        "labels",
        "index_of",
        "closed_bits",
        "full_mask",
        "_csr",
        "_indptr",
        "_indices",
        "_dense_cut",
        "memo",
        "__weakref__",
    )

    def __init__(self, graph: nx.Graph):
        self._layer(PackedGraphKernel(*csr_from_graph(graph)))

    @classmethod
    def over(cls, csr: PackedGraphKernel) -> "GraphKernel":
        """The bitset table over an already-built CSR kernel."""
        self = object.__new__(cls)
        self._layer(csr)
        return self

    def _layer(self, csr: PackedGraphKernel) -> None:
        indptr, indices = csr.rows()
        closed_bits: list[int] = []
        for i in range(csr.n):
            bits = 1 << i
            for j in indices[indptr[i] : indptr[i + 1]]:
                bits |= 1 << j
            closed_bits.append(bits)
        self.n = csr.n
        self.labels = csr.labels
        self.index_of = csr.index_of
        self.closed_bits = closed_bits
        self.full_mask = csr.full_mask
        self._csr = csr
        self._indptr = indptr
        self._indices = indices
        # Ball walks go bitset-dense past this many visited vertices.
        self._dense_cut = max(64, csr.n >> 3)
        self.memo = {}

    def packed(self) -> PackedGraphKernel:
        """The CSR kernel this table was built over (shared labels and
        ``index_of``): the whole-graph primitives and pipeline cores run
        on it."""
        return self._csr

    def bitsets(self) -> "GraphKernel":
        """This kernel itself (the packed kernel's method builds one)."""
        return self

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

    def dominates_vertices(self, vertices: Iterable[Vertex]) -> bool:
        """Whether the vertices (given as labels) dominate the graph."""
        return self.union_closed_bits(vertices) == self.full_mask

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
        indptr, indices = self._indptr, self._indices
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
        ``within`` are ignored.  Frontier bits are peeled inline (lowest
        set bit first) rather than through :func:`iter_bits`: this loop
        is the innermost one of every local-cut test, and a generator
        frame per bit is most of its cost.
        """
        closed = self.closed_bits
        component = seed & within
        frontier = component
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= closed[low.bit_length() - 1]
                frontier ^= low
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

    def articulation_scan(self, mask: int) -> tuple[int, list[int], int]:
        """Components and articulation points of ``G[mask]``, in one pass.

        Returns ``(count, sizes, cut_mask)``: the number of connected
        components; a list with each vertex's component size at its
        kernel index (0 outside ``mask``); and the articulation points
        as a bitset — the vertices whose removal splits their component.
        One iterative Hopcroft–Tarjan depth-first search over the CSR
        rows (no recursion, self-loops ignored), so a caller asking
        "does removing ``v`` disconnect ``G[mask]``?" for many ``v`` pays
        one O(|mask| + edges) walk instead of a flood fill per ``v``.
        """
        indptr, indices = self._indptr, self._indices
        # order[w]: -1 outside the mask, 0 not reached yet, else the
        # DFS discovery number (from 1).  A self-loop reads w's own
        # number, which never lowers low[w].
        order = [-1] * self.n
        low = [0] * self.n
        sizes = [0] * self.n
        if mask.bit_count() * 8 < mask.bit_length():
            roots = list(iter_bits(mask))
        else:  # dense: one C-level string scan beats a big-int op per bit
            roots = [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
        for w in roots:
            order[w] = 0
        clock = 0
        cut_mask = 0
        count = 0
        for root in roots:
            if order[root]:
                continue
            count += 1
            clock += 1
            order[root] = low[root] = clock
            members = [root]
            root_children = 0
            path = [root]
            rows = [iter(indices[indptr[root] : indptr[root + 1]])]
            while True:
                v = path[-1]
                for w in rows[-1]:
                    seen = order[w]
                    if seen:
                        if 0 < seen < low[v]:
                            low[v] = seen
                        continue
                    clock += 1
                    order[w] = low[w] = clock
                    members.append(w)
                    path.append(w)
                    rows.append(iter(indices[indptr[w] : indptr[w + 1]]))
                    break
                else:
                    path.pop()
                    rows.pop()
                    if not path:
                        break
                    parent = path[-1]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if parent == root:
                        root_children += 1
                    elif low[v] >= order[parent]:
                        cut_mask |= 1 << parent
            if root_children > 1:
                cut_mask |= 1 << root
            size = len(members)
            for w in members:
                sizes[w] = size
        return count, sizes, cut_mask


_KERNELS: "weakref.WeakKeyDictionary[nx.Graph, GraphKernel]"
# repro: ignore[RPR002] the one per-graph cache; everything derived from a
# graph lives in its kernel's memo, so dropping the kernel drops it all.
_KERNELS = weakref.WeakKeyDictionary()


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

# The record lives in the kernel's memo under _GUARD_KEY:
# ((n, m, node_xor, edge_xor), "file:line in func" build site).  It goes
# with the kernel, so an invalidate-then-rebuild cycle re-fingerprints
# cleanly.
_GUARD_KEY = "guard"


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


def _guard_record(graph: nx.Graph, kernel) -> None:
    kernel.memo[_GUARD_KEY] = (_structural_fingerprint(graph), _build_site())


def _guard_verify(graph: nx.Graph, kernel) -> None:
    state = kernel.memo.get(_GUARD_KEY)
    if state is None:
        # Kernel cached before the guard was switched on: adopt it now.
        _guard_record(graph, kernel)
        return
    recorded, site = state
    current = _structural_fingerprint(graph)
    if current == recorded:
        return
    invalidate_kernel(graph)  # drop the stale kernel and its memo
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
_BACKENDS = ("auto", "int", "packed")

_KERNEL_BACKEND = os.environ.get(_BACKEND_ENV, "auto") or "auto"
if _KERNEL_BACKEND not in _BACKENDS:  # pragma: no cover - env misconfiguration
    raise ValueError(f"{_BACKEND_ENV} must be one of {_BACKENDS}, got {_KERNEL_BACKEND!r}")
_PACKED_THRESHOLD = 8192


def set_kernel_backend(backend: str | None = None, *, threshold: int | None = None):
    """Force the kernel backend and/or the auto-selection threshold.

    ``backend`` is ``"auto"`` (select by node count), ``"int"``, or
    ``"packed"``; ``None`` leaves the current choice.  ``threshold`` is
    the node count at which ``"auto"`` switches to packed.  Returns the
    previous ``(backend, threshold)`` pair so tests can restore it.
    The initial backend comes from ``REPRO_KERNEL_BACKEND`` at import
    time; the initial threshold is ``8192``.
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


def _resolve_backend(n: int) -> str:
    if _KERNEL_BACKEND == "auto":
        return "packed" if n >= _PACKED_THRESHOLD else "int"
    return _KERNEL_BACKEND


def _select(csr: PackedGraphKernel):
    """``csr`` itself, or the int table over it, as the backend settings
    select for its node count."""
    return csr if _resolve_backend(csr.n) == "packed" else GraphKernel.over(csr)


class KernelView:
    """Graph-shaped facade over a standalone kernel — no ``nx.Graph``.

    Million-node instances built through :func:`kernel_from_edges` or
    :func:`read_wire` never materialize adjacency dicts; this view
    gives them the minimal ``nx.Graph`` surface the front door uses
    (``number_of_nodes``/``number_of_edges``, node iteration,
    ``neighbors``, ``edges``) while :func:`kernel_for` short-circuits
    straight to the wrapped kernel, whose ``memo`` holds everything
    derived from the instance.  Only the pipelines that cut the instance
    down (twin removal, the MVC residual) build an ``nx.Graph`` copy,
    through ``subgraph``/``edge_subgraph``.  It is read-only:
    mutation-shaped calls do not exist, so the kernel staleness contract
    is trivially satisfied.
    """

    __slots__ = ("kernel",)

    def __init__(self, kernel):
        self.kernel = kernel

    def number_of_nodes(self) -> int:
        return self.kernel.n

    def number_of_edges(self) -> int:
        return self.kernel.packed().edge_count()

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
        csr = self.kernel.packed()
        labels = csr.labels
        indptr, indices = csr.rows()
        i = csr.index_of[vertex]
        for j in indices[indptr[i] : indptr[i + 1]]:
            yield labels[j]

    @property
    def edges(self):
        csr = self.kernel.packed()
        labels = csr.labels
        indptr, indices = csr.rows()
        return (
            (labels[i], labels[j])
            for i in range(csr.n)
            for j in indices[indptr[i] : indptr[i + 1]]
            if j >= i  # >= keeps self-loops listed once
        )

    def subgraph(self, nodes) -> nx.Graph:
        """``nx.Graph.subgraph`` of a fresh ``nx.Graph`` copy of the view."""
        return self._graph().subgraph(nodes)

    def edge_subgraph(self, edges) -> nx.Graph:
        """``nx.Graph.edge_subgraph`` of a fresh ``nx.Graph`` copy of the view."""
        return self._graph().edge_subgraph(edges)

    def _graph(self) -> nx.Graph:
        """A new ``nx.Graph`` with the view's labels (in order) and edges."""
        graph = nx.Graph()
        graph.add_nodes_from(self.kernel.labels)
        graph.add_edges_from(self.edges)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelView(n={self.kernel.n}, backend={self.kernel.backend})"


def kernel_for(graph: nx.Graph) -> GraphKernel:
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
    (see :func:`set_kernel_backend`); a cached kernel of the wrong
    backend is rebuilt transparently.  A :class:`KernelView`
    short-circuits to its wrapped kernel.
    """
    if isinstance(graph, KernelView):
        return graph.kernel
    wanted = _resolve_backend(graph.number_of_nodes())
    kernel = _KERNELS.get(graph)
    if (
        kernel is not None
        and kernel.n == graph.number_of_nodes()
        and kernel.backend == wanted
    ):
        if _KERNEL_GUARD:
            _guard_verify(graph, kernel)
        return kernel
    kernel = PackedGraphKernel.from_graph(graph) if wanted == "packed" else GraphKernel(graph)
    _cache(graph, kernel)
    return kernel


def _cache(graph: nx.Graph, kernel) -> None:
    try:
        _KERNELS[graph] = kernel
        if _KERNEL_GUARD:
            _guard_record(graph, kernel)
    except TypeError:  # graph type that cannot be weak-referenced
        pass


def cached_kernel(graph: nx.Graph):
    """The kernel :func:`kernel_for` cached for ``graph`` (of either
    backend), or ``None`` when there is none — this never builds one.

    Lets callers reuse what a kernel already knows (its edge count)
    without paying for a build when nothing else needs the kernel.
    """
    if isinstance(graph, KernelView):
        return graph.kernel
    try:
        kernel = _KERNELS.get(graph)
    except TypeError:  # graph type that cannot be weak-referenced
        return None
    if kernel is None or kernel.n != graph.number_of_nodes():
        return None
    if _KERNEL_GUARD:
        _guard_verify(graph, kernel)
    return kernel


def graph_from_wire(wire: KernelWire) -> nx.Graph:
    """Rebuild the graph a :class:`KernelWire` was snapshotted from.

    The returned ``nx.Graph`` has the wire's labels and edges, and its
    kernel is rebuilt straight from the CSR bytes and pre-seeded into
    the :func:`kernel_for` cache — a worker process receiving a wire
    pays one linear pass, not a full kernel build, and every
    kernel-backed primitive on the rebuilt graph is warm.
    """
    kernel = kernel_from_wire(wire)
    graph = KernelView(kernel)._graph()
    _cache(graph, kernel)
    return graph


def kernel_from_wire(wire: KernelWire):
    """Rebuild just the kernel from a wire (no graph object at all).

    The CSR is one ``frombuffer`` over the wire bytes; the backend
    follows the current selection settings, so a worker process
    receiving a million-node wire gets a packed kernel with no
    adjacency dicts and no mask table.
    """
    return _select(PackedGraphKernel.from_wire_parts(wire.labels, wire.indptr, wire.indices))


def instance_from_wire(wire: KernelWire):
    """The wire as a solvable instance: ``nx.Graph`` or :class:`KernelView`.

    Below the packed threshold this is :func:`graph_from_wire` (full
    graph object, kernel pre-seeded); at or above it the instance stays
    a :class:`KernelView` over a packed kernel — the O(n + m) path the
    batch runners and sweep workers hand to ``solve``.
    """
    if _resolve_backend(len(wire.labels)) == "packed":
        return KernelView(kernel_from_wire(wire))
    return graph_from_wire(wire)


# -- streaming ingestion ----------------------------------------------------


def kernel_from_edges(edges: Iterable, *, n: int | None = None, nodes: Iterable | None = None):
    """Build a kernel straight from an edge iterable — no ``nx.Graph``.

    Streams ``edges`` once (buffered in bounded chunks), maps labels to
    repr-sorted kernel order (vectorized for all-int labels), and
    assembles canonical CSR with numpy sorts — a million-node instance
    ingests in O(n + m) memory without ever touching adjacency dicts.
    ``n`` declares the vertex set as ``range(n)`` (so trailing isolated
    vertices survive); ``nodes`` adds explicit extra vertices; backend
    selection follows :func:`kernel_for`.  Wrap the
    result in :class:`KernelView` to feed ``solve``/``solve_many``.
    """
    labels, us, vs = collect_edges(edges, n=n, nodes=nodes)
    return _select(PackedGraphKernel(labels, *build_undirected_csr(len(labels), us, vs)))


def kernel_from_edge_file(path, *, n: int | None = None, nodes: Iterable | None = None):
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

    return kernel_from_edges(_edges(), n=n, nodes=nodes)


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
    """Drop the cached kernel of ``graph`` (call after mutating it).

    This is the one sanctioned recovery from a mutation: it evicts the
    cached :class:`GraphKernel`, and with it the kernel's ``memo`` —
    every result derived from the graph, the sanitizer's fingerprint
    included — so the next ``kernel_for`` rebuilds from the mutated
    topology.  The caller's obligation — checked by ``repro lint``
    RPR001 — is to reach this call on every path from a mutation to the
    mutating function's exit.
    """
    try:
        _KERNELS.pop(graph, None)
    except TypeError:  # not weak-referenceable: nothing was ever cached
        pass
