"""Adversarial scenario plans: dynamic churn and Byzantine nodes.

The fault plans of :mod:`repro.local_model.engine` cover the *benign*
failure corner — seeded message loss and nodes that never start.  This
module holds the genuinely adversarial axis:

* :class:`ChurnPlan` — the graph changes *while the protocol runs*.
  Explicit :class:`ChurnEvent` records (edge add/remove, vertex
  join/leave, keyed by round) and/or a seeded random edge-flip process
  (``rate`` per round up to round ``until``).  The engine applies the
  events between rounds through the kernel's ``invalidate_kernel``
  contract and re-derives ports/adjacency incrementally — under
  ``REPRO_KERNEL_GUARD=1`` every post-churn cache hit re-verifies the
  structural fingerprint, so a stale kernel cannot survive a churn
  round silently.

* :class:`ByzantinePlan` — nodes that run the protocol *wrong on
  purpose*.  Behaviors (cf. the accountability taxonomy of the pod
  consensus line of work, arXiv 2501.14931): ``silent`` suppresses
  every outgoing message, ``babble`` floods every port every round and
  never halts, ``equivocate`` sends *different* payloads to different
  neighbors where the honest protocol would have sent one, and ``lie``
  forwards the honest payloads with the node's identity forged.  The
  engine wraps each Byzantine node's per-node algorithm in
  :class:`ByzantineShim`, which runs the *honest* protocol in shadow
  and corrupts its outbox — so every deviation is counted (suspicion)
  and every corrupted message that actually reaches an honest node is
  tallied (detection), giving the accountability report its per-node
  numbers.

Everything is seeded and consumed in deterministic order, so
adversarial runs reproduce exactly — including across worker processes
(``simulate_many(workers=4)`` stays byte-identical to serial).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Hashable

import networkx as nx

from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.node import Node, NodeContext

Vertex = Hashable

CHURN_KINDS = ("add_edge", "del_edge", "join", "leave")
BYZANTINE_BEHAVIORS = ("silent", "babble", "equivocate", "lie")

#: Offset added to a Byzantine node's uid to forge its wire identity
#: (``lie``/``babble``).  Large enough to never collide with the
#: identifier schemes the repo ships (identity/shuffled/spread are all
#: bounded by n or small multiples of it).
FAKE_UID_OFFSET = 1_000_000_000


@dataclass(frozen=True)
class ChurnEvent:
    """One topology change, applied before the given round executes.

    * ``add_edge``/``del_edge`` — ``u`` and ``v`` are the endpoints;
    * ``join`` — ``u`` is the new vertex, ``v`` an optional anchor
      neighbor it attaches to (``None`` joins it isolated);
    * ``leave`` — ``u`` departs with all incident edges (``v`` unused).
    """

    round: int
    kind: str
    u: Vertex
    v: Vertex | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; choose from {CHURN_KINDS}"
            )
        if self.round < 1:
            raise ValueError(f"churn rounds start at 1, got {self.round}")
        if self.kind in ("add_edge", "del_edge"):
            if self.v is None:
                raise ValueError(f"{self.kind} needs both endpoints")
            if self.u == self.v:
                raise ValueError("self-loops are not allowed")
        if self.kind == "leave" and self.v is not None:
            raise ValueError("leave takes a single vertex")


@dataclass(frozen=True)
class ChurnPlan:
    """A seeded schedule of topology changes, keyed by round.

    ``events`` are applied verbatim; ``rate``/``until`` add a random
    edge-flip process on top: each round ``1..until`` independently
    flips one random edge (remove an existing edge or add a missing
    one, evenly) with probability ``rate``, drawn from a RNG seeded by
    the run's seed — so the same (graph, spec) pair always churns the
    same way.  The random process only touches edges; vertex join/leave
    requires explicit events.
    """

    events: tuple[ChurnEvent, ...] = field(default=(), metadata={"rows": True})
    rate: float = 0.0
    until: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, ChurnEvent):
                raise ValueError(f"churn events must be ChurnEvent, got {event!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"churn rate must be in [0, 1], got {self.rate}")
        if self.until < 0:
            raise ValueError(f"churn until must be >= 0, got {self.until}")
        if self.rate > 0.0 and self.until < 1:
            raise ValueError("churn rate > 0 needs until >= 1")

    @property
    def is_trivial(self) -> bool:
        return not self.events and self.rate == 0.0


@dataclass(frozen=True)
class ByzantinePlan:
    """Which vertices misbehave, and how.

    ``behaviors`` is a tuple of ``(vertex, behavior)`` pairs; behaviors
    come from :data:`BYZANTINE_BEHAVIORS`.  A vertex may appear once.
    """

    behaviors: tuple[tuple[Vertex, str], ...] = field(
        default=(), metadata={"sort": lambda pair: repr(pair[0])}
    )

    def __post_init__(self) -> None:
        pairs = tuple((v, b) for v, b in self.behaviors)
        object.__setattr__(self, "behaviors", pairs)
        seen = set()
        for vertex, behavior in pairs:
            if behavior not in BYZANTINE_BEHAVIORS:
                raise ValueError(
                    f"unknown byzantine behavior {behavior!r}; "
                    f"choose from {BYZANTINE_BEHAVIORS}"
                )
            if vertex in seen:
                raise ValueError(f"vertex {vertex!r} has two byzantine behaviors")
            seen.add(vertex)

    @property
    def is_trivial(self) -> bool:
        return not self.behaviors

    def as_mapping(self) -> dict:
        return dict(self.behaviors)


def churn_rng(seed: int) -> random.Random:
    """The seeded RNG stream of a run's random churn process (distinct
    from the fault-drop and scheduler streams, so enabling one axis
    never re-pairs another axis's draws)."""
    return random.Random(seed ^ 0x5DEECE66D)


def byzantine_rng(seed: int, uid: int) -> random.Random:
    """The seeded RNG stream one Byzantine node's babble payloads draw
    from — keyed by (run seed, node uid) with pure integer arithmetic,
    so streams are independent per node and identical across worker
    processes (string/tuple hashes are salted per process and must not
    enter seed derivation)."""
    return random.Random((seed ^ 0x2545F491) + uid * 0x100000001B3)


def materialize_churn(
    plan: ChurnPlan, graph: nx.Graph, seed: int
) -> dict[int, tuple[ChurnEvent, ...]]:
    """Resolve a plan against a concrete graph: events grouped by round.

    Explicit events and the seeded random process are merged and
    validated against the *evolving* topology (an event that removes a
    missing edge, re-adds a present one, joins an existing vertex, or
    leaves the last vertex is a ``ValueError`` here, before any round
    runs).  The random process evolves the same simulated node/edge
    sets, so its draws are well-defined even when explicit events
    interleave.
    """
    nodes = set(graph.nodes)
    edges = {_edge_key(u, v) for u, v in graph.edges}
    by_round: dict[int, list[ChurnEvent]] = {}
    for event in plan.events:
        by_round.setdefault(event.round, []).append(event)
    rng = churn_rng(seed) if plan.rate > 0.0 else None

    last_round = max(
        [plan.until if rng is not None else 0]
        + [event.round for event in plan.events]
    )
    out: dict[int, tuple[ChurnEvent, ...]] = {}
    for round_index in range(1, last_round + 1):
        events = list(by_round.get(round_index, ()))
        if rng is not None and round_index <= plan.until:
            if rng.random() < plan.rate:
                events.append(_random_flip(round_index, nodes, edges, rng))
        for event in events:
            _apply_to_sets(event, nodes, edges)
        if events:
            out[round_index] = tuple(events)
    return out


def _edge_key(u: Vertex, v: Vertex) -> tuple:
    return (u, v) if repr(u) <= repr(v) else (v, u)


def _random_flip(
    round_index: int, nodes: set, edges: set, rng: random.Random
) -> ChurnEvent:
    """One seeded edge flip on the evolving topology (remove or add)."""
    ordered = sorted(nodes, key=repr)
    complete = len(ordered) * (len(ordered) - 1) // 2
    remove = bool(edges) and (len(edges) >= complete or rng.random() < 0.5)
    if remove:
        u, v = sorted(edges, key=repr)[rng.randrange(len(edges))]
        return ChurnEvent(round_index, "del_edge", u, v)
    # Rejection-sample a missing pair; the loop terminates because the
    # branch is only taken while some non-edge exists.
    while True:
        u = ordered[rng.randrange(len(ordered))]
        v = ordered[rng.randrange(len(ordered))]
        if u != v and _edge_key(u, v) not in edges:
            return ChurnEvent(round_index, "add_edge", u, v)


def _apply_to_sets(event: ChurnEvent, nodes: set, edges: set) -> None:
    """Validate + apply one event to the simulated node/edge sets."""
    kind, u, v = event.kind, event.u, event.v
    if kind == "add_edge":
        if u not in nodes or v not in nodes:
            raise ValueError(
                f"churn round {event.round}: add_edge {u!r}-{v!r} "
                f"references a vertex not in the graph"
            )
        key = _edge_key(u, v)
        if key in edges:
            raise ValueError(
                f"churn round {event.round}: edge {u!r}-{v!r} already exists"
            )
        edges.add(key)
    elif kind == "del_edge":
        key = _edge_key(u, v)
        if key not in edges:
            raise ValueError(
                f"churn round {event.round}: edge {u!r}-{v!r} does not exist"
            )
        edges.discard(key)
    elif kind == "join":
        if u in nodes:
            raise ValueError(
                f"churn round {event.round}: vertex {u!r} already in the graph"
            )
        if v is not None and v not in nodes:
            raise ValueError(
                f"churn round {event.round}: join anchor {v!r} not in the graph"
            )
        nodes.add(u)
        if v is not None:
            edges.add(_edge_key(u, v))
    else:  # leave
        if u not in nodes:
            raise ValueError(
                f"churn round {event.round}: vertex {u!r} not in the graph"
            )
        if len(nodes) == 1:
            raise ValueError(
                f"churn round {event.round}: cannot remove the last vertex"
            )
        nodes.discard(u)
        for key in [key for key in edges if u in key]:
            edges.discard(key)


def churned_graph(
    graph: nx.Graph, plan: ChurnPlan | None, seed: int, upto_round: int
) -> nx.Graph:
    """The topology after every churn event with ``round <= upto_round``.

    A fresh copy — the input graph is never mutated.  This is how
    degradation metrics recover the *final* graph a report was measured
    against: churn materialization is a pure function of (plan, graph,
    seed), so replaying it up to ``report.rounds`` reproduces exactly
    what the engine ran on.
    """
    final = graph.copy()
    if plan is None or plan.is_trivial:
        return final
    for round_index, events in sorted(materialize_churn(plan, graph, seed).items()):
        if round_index > upto_round:
            break
        for event in events:
            if event.kind == "add_edge":
                final.add_edge(event.u, event.v)
            elif event.kind == "del_edge":
                final.remove_edge(event.u, event.v)
            elif event.kind == "join":
                final.add_node(event.u)
                if event.v is not None:
                    final.add_edge(event.u, event.v)
            else:
                final.remove_node(event.u)
    return final


# -- the Byzantine wrapper ----------------------------------------------------


class _ShadowContext:
    """A :class:`NodeContext` stand-in that captures halt() instead of
    committing it to the node — the honest protocol runs against this,
    and the shim decides what actually goes on the wire."""

    def __init__(self, node: Node):
        self._node = node
        self.outbox: dict[int, Any] = {}
        self.halted = False
        self.output: Any = None

    @property
    def uid(self) -> int:
        return self._node.uid

    @property
    def degree(self) -> int:
        return self._node.degree

    @property
    def inbox(self) -> dict[int, Any]:
        return self._node.inbox

    @property
    def state(self) -> dict[str, Any]:
        return self._node.state

    def send(self, port: int, payload: Any) -> None:
        if not 0 <= port < self._node.degree:
            raise ValueError(f"node {self.uid} has no port {port}")
        self.outbox[port] = payload

    def broadcast(self, payload: Any) -> None:
        for port in range(self._node.degree):
            self.outbox[port] = payload

    def halt(self, output: Any) -> None:
        self.halted = True
        self.output = output


def _forge(payload: Any, uid: int, fake_uid: int) -> Any:
    """Recursively replace the sender's identifier inside a payload.

    Protocol payloads in this repo are tuples/frozensets of small values
    — the forgery walks those containers and swaps every occurrence of
    the real uid for the fake one, which is exactly the
    lying-membership attack: the node participates, but under an
    identity no honest node has.
    """
    if isinstance(payload, int) and not isinstance(payload, bool) and payload == uid:
        return fake_uid
    if isinstance(payload, tuple):
        return tuple(_forge(item, uid, fake_uid) for item in payload)
    if isinstance(payload, (frozenset, set)):
        return frozenset(_forge(item, uid, fake_uid) for item in payload)
    if isinstance(payload, list):
        return [_forge(item, uid, fake_uid) for item in payload]
    return payload


class ByzantineShim(LocalAlgorithm):
    """Runs the honest protocol in shadow; corrupts what goes out.

    The engine reads two things back per acting round: ``deviations``
    (cumulative count of messages suppressed, forged, or fabricated —
    the ground-truth suspicion tally) and ``last_changed`` (the ports
    whose outgoing payload differs from the honest one this round — the
    engine marks those deliveries so receivers count as detections
    when a corrupted message actually lands).
    """

    def __init__(self, inner: LocalAlgorithm, behavior: str, rng: random.Random):
        self.inner = inner
        self.behavior = behavior
        self.rng = rng
        self.inner_halted = False
        self.deviations = 0
        self.last_changed: frozenset[int] = frozenset()

    def on_init(self, ctx: NodeContext) -> None:
        self._act(ctx, init=True)

    def on_round(self, ctx: NodeContext) -> None:
        self._act(ctx, init=False)

    def _act(self, ctx: NodeContext, *, init: bool) -> None:
        node = ctx._node
        honest: dict[int, Any] = {}
        halted = self.inner_halted
        output = None
        if not self.inner_halted:
            shadow = _ShadowContext(node)
            if init:
                self.inner.on_init(shadow)
            else:
                self.inner.on_round(shadow)
            honest = shadow.outbox
            halted = shadow.halted
            output = shadow.output
        outbox, changed = self._corrupt(honest, node)
        for port, payload in outbox.items():
            ctx.send(port, payload)
        self.deviations += len(changed)
        self.last_changed = frozenset(changed)
        if halted:
            if self.behavior == "babble":
                # A babbler never goes quiet: remember the honest halt
                # (so the shadow protocol is not run past its end) but
                # keep the node acting every round.
                self.inner_halted = True
            else:
                ctx.halt(output)

    def _corrupt(self, honest: dict[int, Any], node: Node) -> tuple[dict, set]:
        behavior = self.behavior
        fake_uid = node.uid + FAKE_UID_OFFSET
        if behavior == "silent":
            return {}, set(honest)
        if behavior == "babble":
            outbox = {
                port: ("byz", fake_uid, self.rng.randrange(1 << 30))
                for port in range(node.degree)
            }
            return outbox, set(outbox)
        if behavior == "equivocate":
            ports = sorted(honest)
            if len(ports) >= 2:
                # Rotate the honest payloads one port over: every
                # neighbor gets a message the protocol meant for a
                # different neighbor — mutually inconsistent views.
                rotated = {
                    port: honest[ports[(i + 1) % len(ports)]]
                    for i, port in enumerate(ports)
                }
                changed = {p for p in ports if rotated[p] != honest[p]}
                return rotated, changed
            # Degenerate single-message case: forge instead.
            behavior = "lie"
        # lie (and the equivocate fallback): forward honest payloads
        # under a forged identity.
        outbox = {
            port: _forge(payload, node.uid, fake_uid)
            for port, payload in honest.items()
        }
        changed = {port for port in outbox if outbox[port] != honest[port]}
        return outbox, changed
