"""`repro serve` — the resident job-queue service front door.

Every other entry point is a fresh CLI process, so the expensive state
the performance tiers built — the :func:`repro.graphs.kernel.kernel_for`
weak cache and each kernel's ``memo`` (ball-mask arenas, cut lists,
exact optima from :mod:`repro.solvers.opt_cache`) — dies with each
invocation.  This
package keeps it alive: a stdlib-only HTTP/JSON service
(:class:`ReproHTTPServer`) in front of a bounded job queue and a
resident thread pool (:class:`ReproService`) that executes
``solve_many``/``simulate_many`` specs while instances stay resident in
an LRU :class:`~repro.serve.instances.InstanceCache`, so the second job
on the same instance family reuses warm kernels and cached optima
instead of rebuilding them.

API surface (see the README "Serving" section for a `curl` session)::

    POST   /jobs            submit a solve/simulate job spec
    GET    /jobs/{id}        job status (state, error, wall_time)
    GET    /jobs/{id}/result the report payload (byte-identical to the
                             direct solve_many/simulate_many JSON,
                             modulo ``wall_time``)
    DELETE /jobs/{id}        cancel (mid-queue, or cooperatively mid-run)
    GET    /healthz          liveness
    GET    /stats            queue/cache/result metrics

Threading and invalidation contract
-----------------------------------

Workers are **threads**, not processes, precisely so they share one
kernel cache and one OPT cache.  That is safe under the repo's caching
contract because of three properties, all of which this package must
preserve:

* **Resident graphs are never mutated.**  Jobs only read the graphs the
  :class:`~repro.serve.instances.InstanceCache` holds; nothing in the
  serve path calls a mutating ``nx.Graph`` method, so
  :func:`~repro.graphs.kernel.invalidate_kernel` is never required.
  Any future serve feature that mutates a resident graph must either
  invalidate (and accept losing residency for that instance) or copy.
* **Kernels are immutable once built, and memo entries once stored.**
  Two workers that race on a cold instance may both build the kernel
  or both solve OPT; the loser's store overwrites the winner's with an
  identical value (all backends are deterministic), so duplicated work
  is the worst case — never a wrong answer.  The hit/miss counters themselves
  are lock-guarded (:func:`repro.solvers.opt_cache.snapshot`).
* **Residency is exactly the strong reference.**  ``kernel_for`` is
  weak-keyed and everything derived from an instance lives in its
  kernel's ``memo``; both stay warm only while the instance cache holds
  the graph.  Evicting an instance (LRU capacity) releases the kernel
  and its memo, which is the intended memory bound.

Inline graphs cross from the HTTP handler into the worker pool as
compact :class:`~repro.graphs.kernel.KernelWire` CSR snapshots (the
batch runner's wire format); the first worker to touch one rebuilds
graph + kernel in a single linear pass via
:func:`~repro.graphs.kernel.graph_from_wire`, after which the rebuilt
graph is resident like any family instance.
"""

from repro.serve.http import ReproHTTPServer
from repro.serve.jobs import JOB_STATES, QueueFullError
from repro.serve.schema import SpecError
from repro.serve.service import ReproService

__all__ = [
    "JOB_STATES",
    "QueueFullError",
    "ReproHTTPServer",
    "ReproService",
    "SpecError",
]
