"""Per-instance cache of exact optima (the ratio-sweep denominator).

Every ``validate="ratio"`` run divides by ``|OPT|``, and OPT is by far
the most expensive thing the batch runner computes — yet it depends only
on the instance, not on the algorithm under test.  This module memoises
exact solutions per graph so a 12-algorithm comparison solves each
instance exactly once instead of twelve times.

Keying
------

Each optimum is stored in the ``memo`` of the graph's
:class:`~repro.graphs.kernel.GraphKernel` under
``("opt", problem, solver)``, so it lives exactly as long as the
kernel: a node-count-changing mutation or an explicit
:func:`~repro.graphs.kernel.invalidate_kernel` drops it with the kernel,
and the mutation contract is exactly the kernel's (see README
"Performance").  Entries are tagged with a module-level generation:
:func:`clear_opt_cache` bumps it, and a lookup treats an entry from an
older generation as a miss.  (Clearing cannot walk the kernels instead:
the kernel of a :class:`~repro.graphs.kernel.KernelView` is never in the
kernel cache.)

All backends here are deterministic for a fixed input, so a cached
solution is byte-for-byte the solution an uncached call would produce —
enabling the cache can never change a reported ``ratio`` or
``optimum_size``.
"""

from __future__ import annotations

import threading
from typing import Hashable

import networkx as nx

from repro.graphs.kernel import kernel_for

Vertex = Hashable

PROBLEMS = ("mds", "mvc")

# Bumped by clear_opt_cache(); memo entries of older generations are misses.
_GENERATION = 0

# The counters are read-modify-write pairs, so they need a real lock:
# the serve worker pool (`repro.serve`) drives this module from several
# threads at once, and `hits += 1` is not atomic across them.
_STATS_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0}


def _solve(graph: nx.Graph, problem: str, solver: str) -> frozenset:
    """Uncached exact solve; the single dispatch point over backends."""
    if problem == "mvc":
        if solver != "milp":
            raise ValueError(
                "no pure-Python MVC solver is shipped; "
                "MVC optima require solver='milp'"
            )
        from repro.solvers.vc import minimum_vertex_cover

        return frozenset(minimum_vertex_cover(graph))
    if problem != "mds":
        raise ValueError(f"unknown problem {problem!r}; choose from {PROBLEMS}")
    if solver == "bnb":
        from repro.solvers.branch_and_bound import bnb_minimum_dominating_set

        return frozenset(bnb_minimum_dominating_set(graph))
    if solver == "milp":
        from repro.solvers.exact import minimum_dominating_set

        return frozenset(minimum_dominating_set(graph))
    raise ValueError(f"unknown solver backend {solver!r}; choose 'milp' or 'bnb'")


def optimum_solution(
    graph: nx.Graph,
    problem: str = "mds",
    solver: str = "milp",
    *,
    use_cache: bool = True,
) -> frozenset:
    """An exact optimum solution, cached per (kernel, problem, backend).

    ``use_cache=False`` bypasses both lookup and store — the escape
    hatch the CLI exposes as ``--no-opt-cache``.
    """
    if not use_cache:
        return _solve(graph, problem, solver)
    memo = kernel_for(graph).memo
    key = ("opt", problem, solver)
    entry = memo.get(key)
    if entry is not None and entry[0] == _GENERATION:
        with _STATS_LOCK:
            _STATS["hits"] += 1
        return entry[1]
    with _STATS_LOCK:
        _STATS["misses"] += 1
    generation = _GENERATION
    solution = _solve(graph, problem, solver)
    memo[key] = (generation, solution)
    return solution


def optimum_size(
    graph: nx.Graph,
    problem: str = "mds",
    solver: str = "milp",
    *,
    use_cache: bool = True,
) -> int:
    """``|OPT|`` for the given problem/backend (cached)."""
    return len(optimum_solution(graph, problem, solver, use_cache=use_cache))


def clear_opt_cache() -> None:
    """Drop every cached optimum (benchmarks use this to measure cold)."""
    global _GENERATION
    _GENERATION += 1


def snapshot() -> dict[str, int]:
    """A consistent copy of the hit/miss counters.

    Taken under the stats lock so a concurrent solve never yields a
    torn read; this is what the serve ``GET /stats`` endpoint reports.
    """
    with _STATS_LOCK:
        return dict(_STATS)


def cache_stats() -> dict[str, int]:
    """Process-wide hit/miss counters (reset with :func:`reset_cache_stats`)."""
    return snapshot()


def reset_cache_stats() -> None:
    with _STATS_LOCK:
        _STATS["hits"] = 0
        _STATS["misses"] = 0
