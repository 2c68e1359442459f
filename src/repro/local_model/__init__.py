"""Deterministic synchronous LOCAL-model simulator (Linial's model).

The network is an undirected connected graph whose vertices are
processors with unique ``O(log n)``-bit identifiers.  Computation
proceeds in synchronous rounds; in each round every vertex may send an
arbitrarily large message to each neighbor, receive its neighbors'
messages, and update its state.  The complexity measure is the number of
rounds (Section 1 of the paper).

Layers:

* :mod:`repro.local_model.network` / :mod:`node` — the simulated
  processors and links;
* :mod:`repro.local_model.engine` — the simulation engine: one round
  loop with one delivery path, parameterised by a model scheduler
  (LOCAL and CONGEST deliver every message next round; the async and
  adversarial schedulers of :mod:`schedulers` delay and reorder), fault
  plans (message drops, node crashes), churn and Byzantine plans
  (:mod:`adversary`), and trace policies (``full``/``stats``/``off``);
* :mod:`repro.local_model.algorithm` — the per-node algorithm interface;
* :mod:`repro.local_model.gather` — the radius-r *view gathering*
  primitive: after ``r + 1`` rounds every vertex knows the induced
  subgraph ``G[N^r[v]]`` exactly (it has heard every edge incident to a
  vertex at distance ≤ r); every algorithm in the paper reduces to
  "gather, then decide";
* :mod:`repro.local_model.views` — the knowledge object handed to
  decision functions.
"""

from repro.local_model.algorithm import LocalAlgorithm, ViewAlgorithm
from repro.local_model.engine import (
    CongestScheduler,
    EngineResult,
    FaultPlan,
    LocalScheduler,
    MessageTooLargeError,
    Scheduler,
    SimulationEngine,
    scheduler_for,
)
from repro.local_model.gather import gather_views, rounds_for_radius
from repro.local_model.identifiers import (
    identity_ids,
    shuffled_ids,
    spread_ids,
)
from repro.local_model.network import Network
from repro.local_model.schedulers import AdversarialScheduler, AsyncScheduler
from repro.local_model.views import View

__all__ = [
    "AdversarialScheduler",
    "AsyncScheduler",
    "CongestScheduler",
    "EngineResult",
    "FaultPlan",
    "LocalAlgorithm",
    "LocalScheduler",
    "MessageTooLargeError",
    "Network",
    "Scheduler",
    "SimulationEngine",
    "View",
    "ViewAlgorithm",
    "gather_views",
    "identity_ids",
    "rounds_for_radius",
    "scheduler_for",
    "shuffled_ids",
    "spread_ids",
]
