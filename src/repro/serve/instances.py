"""Resident instance cache: the strong references that keep caches warm.

The :func:`repro.graphs.kernel.kernel_for` kernel cache is weak-keyed by
the ``nx.Graph`` object, and everything derived from an instance —
ball-mask arenas, cut lists, exact optima — lives in the kernel's
``memo``, so residency is precisely "someone holds a strong reference
to the graph".  This module is that someone: an LRU
map from a canonical instance key to the built graph, shared by every
worker thread of one :class:`~repro.serve.service.ReproService`.

Keys are canonical so repeat submissions resolve to the *same object*:

* family instances — ``("family", name, size, seed)``; the generators
  are deterministic, so equal keys mean equal graphs;
* inline graphs — ``("wire", digest)`` where the digest hashes the
  :class:`~repro.graphs.kernel.KernelWire` CSR bytes; two submissions
  of the same graph JSON produce the same wire and share one resident
  rebuild.

Evicting an entry (capacity bound) drops the strong reference, which
releases the kernel and its memo for that instance — the service's
memory bound is this cache's capacity.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import networkx as nx

from repro.graphs.families import get_family

# wire_digest lives with the wire format now (the sweep layer needs it
# too); re-exported here because it grew up as serve vocabulary.
from repro.graphs.kernel import KernelWire, graph_from_wire, wire_digest  # noqa: F401

InstanceKey = tuple


class InstanceCache:
    """Thread-safe LRU of resolved instances (strong graph references)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("instance cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[InstanceKey, tuple[dict, nx.Graph]]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def resolve_family(
        self, family: str, size: int, seed: int
    ) -> tuple[dict, nx.Graph]:
        """The resident ``(meta, graph)`` for a generated family instance."""
        key: InstanceKey = ("family", family, size, seed)
        meta = {"family": family, "size": size, "seed": seed}
        return self._resolve(key, meta, lambda: get_family(family).make(size, seed))

    def resolve_wire(
        self, digest: str, wire: KernelWire, meta: dict
    ) -> tuple[dict, nx.Graph]:
        """The resident ``(meta, graph)`` for an inline-graph snapshot.

        The rebuild pre-seeds the kernel cache
        (:func:`~repro.graphs.kernel.graph_from_wire`), so even the cold
        path never re-derives the CSR from adjacency dicts.
        """
        key: InstanceKey = ("wire", digest)
        return self._resolve(key, dict(meta), lambda: graph_from_wire(wire))

    def _resolve(self, key: InstanceKey, meta: dict, build) -> tuple[dict, nx.Graph]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            # Build under the lock: graph construction is linear in the
            # instance, and holding the lock guarantees one resident
            # object per key (two racing builders would each keep a
            # private graph and split the kernel/OPT caches).
            self._misses += 1
            entry = (meta, build())
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return entry

    def stats(self) -> dict:
        with self._lock:
            return {
                "resident": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
            }
