"""The simulation engine: one round loop, pluggable policies.

Every round-model experiment in the repo runs on
:class:`SimulationEngine`, parameterised along four axes:

* **scheduler** — the round model as a :class:`Scheduler`: an admission
  check per message plus a per-message delivery delay.
  :class:`LocalScheduler` admits everything (unbounded messages);
  :class:`CongestScheduler` rejects any message above its
  ``ids_per_message`` budget with :class:`MessageTooLargeError`.  Both
  deliver every message in the next round (delay 0); the async and
  adversarial schedulers of :mod:`repro.local_model.schedulers` hold
  some messages back.  New models plug in by implementing the protocol,
  no engine subclassing.
* **faults** — a :class:`FaultPlan` of probabilistic message drops and
  crashed nodes, applied at delivery time from a seeded RNG so runs are
  reproducible (and identical across worker processes).
* **churn and Byzantine plans** — topology changes between rounds and
  misbehaving nodes (see :mod:`repro.local_model.adversary`).
* **trace policy** — ``"full"`` keeps per-round :class:`RoundStats`,
  ``"stats"`` keeps aggregate totals, ``"off"`` keeps only the message
  count; payload sizes are measured only when the trace or the
  scheduler needs them.

Every round runs the same phases: apply churn and scheduled crashes,
stop if every honest node has halted, then one pass over the outboxes
counts, admits, and queues each message into the bucket of the round it
is due in; the current round's bucket is delivered; and every live node
acts on its fresh inbox.  All admission happens before any delivery, so
a rejected round leaves no partially-delivered state.

Delivery is *immutable-by-convention*: payloads move from outbox to
inbox **by reference**, never copied.  The contract for algorithm
authors: a payload must not be mutated after it is sent, and a received
payload must be treated as read-only (build a new object to forward
modified knowledge).  Every protocol in the repo already follows this —
dropping the defensive copies is what makes the hot path cheap.

Routing uses an adjacency-indexed buffer built once per engine:
``routes[v][port] == (receiver node, back port)``, so delivering a
message is a single list index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Protocol, runtime_checkable

from repro.local_model.adversary import ByzantineShim, byzantine_rng
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.instrumentation import RoundStats, Trace, payload_size
from repro.local_model.network import Network
from repro.local_model.node import Node, NodeContext
from repro.local_model.schedulers import AdversarialScheduler, AsyncScheduler

Vertex = Hashable

MODELS = ("local", "congest", "async", "adversarial")
TRACE_POLICIES = ("full", "stats", "off")


class MessageTooLargeError(RuntimeError):
    """A message exceeded the CONGEST budget.

    Carries everything needed to act on a failure deep inside a sweep:
    the offending sender *and receiver* identifiers, the round in which
    the message was queued, its size, and the budget it broke.
    """

    def __init__(
        self,
        sender: int,
        units: int,
        budget: int,
        round_index: int | None = None,
        receiver: int | None = None,
    ):
        to = f" to node {receiver}" if receiver is not None else ""
        where = f" in round {round_index}" if round_index is not None else ""
        super().__init__(
            f"node {sender} sent a message of {units} units{to}{where}; "
            f"CONGEST budget is {budget} units per message"
        )
        self.sender = sender
        self.units = units
        self.budget = budget
        self.round_index = round_index
        self.receiver = receiver


@runtime_checkable
class Scheduler(Protocol):
    """A round model: message admission, delay, and delivery order.

    * :meth:`admit` — while ``enforces`` is true the engine calls it once
      per queued message, on the full round snapshot *before* any
      delivery, so a rejected round leaves no partially-delivered state.
      Set ``enforces = False`` only for pass-through policies that admit
      everything; their ``admit`` is never invoked.  ``needs_units``
      tells the engine to measure payload sizes even when the trace
      policy would skip them; otherwise ``admit`` receives ``units=0``.
    * :meth:`delay` — how many rounds past the next one a message is
      held; 0 delivers it in the round after it was sent (LOCAL and
      CONGEST always return 0).  Called once per message, in queueing
      order (outboxes in node order, ports ascending).
    * ``newest_first`` — the delivery order of the messages due in one
      round: oldest first (``False``, FIFO by queueing round and order)
      or newest first (``True``).  When two messages land on the same
      port in the same round the one delivered last wins the slot.

    A scheduler that can hold messages exposes its ``delay_bound``
    (even when it is 0): its runs are adversarial, so a protocol that
    raises fails its own node instead of the run.
    """

    model: str
    enforces: bool
    needs_units: bool
    newest_first: bool

    def admit(self, round_index: int, sender: int, receiver: int, units: int) -> None:
        """Validate one queued message; raise to reject the run."""

    def delay(self, round_index: int, sender_uid: int, receiver_uid: int) -> int:
        """Extra rounds to hold one message (0 = deliver next round)."""


class LocalScheduler:
    """The LOCAL model: messages of unbounded size, everything admitted."""

    model = "local"
    enforces = False
    needs_units = False
    newest_first = False

    def admit(self, round_index: int, sender: int, receiver: int, units: int) -> None:
        return None

    def delay(self, round_index: int, sender_uid: int, receiver_uid: int) -> int:
        return 0


class CongestScheduler:
    """The CONGEST model: at most ``ids_per_message`` units per message."""

    model = "congest"
    enforces = True
    needs_units = True
    newest_first = False

    def __init__(self, ids_per_message: int = 4):
        if ids_per_message < 1:
            raise ValueError("budget must allow at least one identifier")
        self.ids_per_message = ids_per_message

    def admit(self, round_index: int, sender: int, receiver: int, units: int) -> None:
        if units > self.ids_per_message:
            raise MessageTooLargeError(
                sender,
                units,
                self.ids_per_message,
                round_index=round_index,
                receiver=receiver,
            )

    def delay(self, round_index: int, sender_uid: int, receiver_uid: int) -> int:
        return 0


@dataclass(frozen=True)
class FaultPlan:
    """Scenario knobs the pre-engine API could not express.

    * ``drop_probability`` — each delivered message is independently
      lost with this probability (seeded RNG, so runs reproduce);
    * ``crashed`` — vertices (simulator-side labels) that never start:
      a crashed node runs no algorithm, sends nothing, and swallows
      anything addressed to it (tallied separately from drops, in
      ``EngineResult.swallowed_messages``);
    * ``crash_schedule`` — ``(vertex, round)`` pairs for *mid-run*
      crashes: at the start of the given round (1-based) the vertex
      stops acting, its queued outbound messages are swallowed in the
      same round, and from then on it behaves like a ``crashed`` node.
      A scheduled crash of a vertex that is not present when its round
      comes (it left via churn, or already crashed) is a no-op.

    Protocol *correctness* under faults is not guaranteed — that is the
    point: the engine reports what a protocol actually does when the
    network misbehaves.
    """

    drop_probability: float = 0.0
    crashed: tuple[Vertex, ...] = field(default=(), metadata={"sort": repr})
    crash_schedule: tuple[tuple[Vertex, int], ...] = field(
        default=(),
        metadata={"omit": True, "sort": lambda entry: (entry[1], repr(entry[0]))},
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {self.drop_probability}"
            )
        object.__setattr__(self, "crashed", tuple(self.crashed))
        schedule = []
        for entry in self.crash_schedule:
            vertex, when = entry
            if not isinstance(when, int) or isinstance(when, bool) or when < 1:
                raise ValueError(
                    f"scheduled crash rounds are integers >= 1, got {when!r} "
                    f"for vertex {vertex!r} (round-0 crashes go in 'crashed')"
                )
            schedule.append((vertex, when))
        object.__setattr__(self, "crash_schedule", tuple(schedule))

    @property
    def is_trivial(self) -> bool:
        return (
            self.drop_probability == 0.0
            and not self.crashed
            and not self.crash_schedule
        )


@dataclass
class EngineResult:
    """Everything one engine run produced.

    ``round_stats`` is ``None`` unless the trace policy was ``"full"``.
    ``total_messages`` is always counted; ``total_payload`` is ``None``
    when payload sizes were not measured (trace policy ``"off"`` under a
    scheduler that does not need them).
    """

    outputs: dict[Vertex, object]
    rounds: int
    total_messages: int
    total_payload: int | None
    round_stats: list[RoundStats] | None
    dropped_messages: int = 0
    """Messages lost to the fault plan's ``drop_probability`` RNG."""
    swallowed_messages: int = 0
    """Messages addressed to crashed nodes, plus outbound messages a
    scheduled crash caught in a node's queue (never delivered)."""
    crashed: tuple = ()
    """Every vertex that was crashed by the end of the run: the plan's
    round-0 crashes plus scheduled crashes that actually fired."""
    delayed_messages: int = 0
    """Messages an async/adversarial scheduler held for >= 1 round."""
    churn_events: int = 0
    """Topology-change events the churn plan applied during the run."""
    churn_lost_messages: int = 0
    """In-flight messages invalidated by churn (sender left, or its
    queued port no longer exists after an adjacency change)."""
    suspicion: dict = field(default_factory=dict)
    """Accountability tallies, keyed by Byzantine vertex (repr-sorted):
    ``{"behavior", "deviations", "detections"}`` — messages the node
    suppressed/forged, and how many corrupted messages honest nodes
    actually received."""
    failed: tuple = ()
    """Vertices whose protocol raised while the run was adversarial
    (churn, Byzantine peers, or a delaying scheduler active):
    stale or forged inputs paper protocols never planned for.  A failed
    node stops participating — it is the protocol breaking under
    attack, recorded instead of raised.  On benign runs exceptions
    propagate unchanged."""
    timed_out: bool = False
    """An adversarial run exhausted ``max_rounds`` without all honest
    nodes halting (e.g. they waited forever on a silent Byzantine
    peer).  Recorded instead of raised — non-termination under attack
    is a result.  Benign runs still raise ``RuntimeError``."""

    @property
    def trace(self) -> Trace:
        """The per-round stats as a :class:`Trace` (empty unless the
        trace policy was ``"full"``)."""
        return Trace(rounds=list(self.round_stats or []))


class _Run:
    """The mutable state of one :meth:`SimulationEngine.run`."""

    def __init__(self, live: dict, algorithms: dict, crashed: set, shims: dict, shielded: bool):
        self.live = live
        self.algorithms = algorithms
        self.crashed = crashed
        self.shims = shims
        self.shielded = shielded
        self.failed: list[Vertex] = []
        self.outboxes: dict[Vertex, dict[int, object]] = {}
        self.taint: dict[Vertex, frozenset] = {}
        # Held messages by due round, each bucket in queueing order:
        # (sender, port, payload, tainted by a Byzantine shim).
        self.held: dict[int, list[tuple]] = {}

    def remove(self, v: Vertex) -> None:
        """Take ``v`` out of the run for good (crashed or failed)."""
        self.crashed.add(v)
        del self.live[v]
        self.algorithms.pop(v, None)

    def act(self, v: Vertex, node: Node, hook: Callable, *, init: bool = False) -> None:
        """Run one protocol hook of live node ``v``; collect its outbox.

        This is the one place protocol exceptions are handled: on a
        shielded run the node fails and stops participating, otherwise
        the exception propagates.  Messages queued in the round a node
        halts are discarded, except those it sends from ``on_init``.
        """
        ctx = NodeContext(node)
        try:
            hook(ctx)
        except Exception:
            if not self.shielded:
                raise
            self.failed.append(v)
            self.remove(v)
            return
        if ctx.outbox and (init or not node.halted):
            self.outboxes[v] = ctx.outbox
        shim = self.shims.get(v)
        if shim is not None:
            self.taint[v] = shim.last_changed

    def retire(self, lost: Callable[[Vertex, int], bool]) -> int:
        """Drop held messages whose ``(sender, port)`` is ``lost``;
        returns how many were dropped."""
        count = 0
        for bucket in self.held.values():
            kept = [m for m in bucket if not lost(m[0], m[1])]
            count += len(bucket) - len(kept)
            bucket[:] = kept
        return count

    def crash(self, v: Vertex) -> int:
        """A scheduled mid-run crash of live node ``v``; returns how many
        of its queued outbound messages it swallows."""
        self.remove(v)
        return len(self.outboxes.pop(v, ())) + self.retire(
            lambda sender, port: sender == v
        )


class SimulationEngine:
    """Synchronous round loop over a :class:`Network`, policy-driven.

    Every round, all messages due are delivered simultaneously, then all
    non-halted nodes act on their inbox; the run ends when every live
    honest node has halted.  Exceeding ``max_rounds`` raises — an
    algorithm that cannot bound its rounds is not a LOCAL algorithm —
    unless the run is adversarial, where it is recorded as ``timed_out``.
    """

    def __init__(
        self,
        network: Network,
        scheduler: Scheduler | None = None,
        *,
        max_rounds: int = 10_000,
        faults: FaultPlan | None = None,
        trace: str = "full",
        seed: int = 0,
        churn: Mapping[int, tuple] | None = None,
        byzantine: Mapping[Vertex, str] | None = None,
    ):
        if trace not in TRACE_POLICIES:
            raise ValueError(
                f"unknown trace policy {trace!r}; choose from {TRACE_POLICIES}"
            )
        if max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        self.network = network
        self.scheduler = scheduler if scheduler is not None else LocalScheduler()
        self.max_rounds = max_rounds
        self.faults = faults if faults is not None else FaultPlan()
        self.trace_policy = trace
        self.seed = seed
        # churn arrives pre-materialized (round -> events), the shape
        # adversary.materialize_churn produces — the engine applies, it
        # does not plan.
        self.churn: dict[int, tuple] = {
            r: tuple(events) for r, events in (churn or {}).items() if events
        }
        self.byzantine: dict[Vertex, str] = dict(byzantine or {})
        joins = {
            e.u for events in self.churn.values() for e in events if e.kind == "join"
        }
        unknown = [v for v in self.faults.crashed if v not in network.nodes]
        if unknown:
            raise ValueError(f"crashed vertices not in the network: {unknown!r}")
        allowed = set(network.nodes) | joins
        unknown = [v for v, _ in self.faults.crash_schedule if v not in allowed]
        if unknown:
            raise ValueError(
                f"scheduled-crash vertices never in the network: {unknown!r}"
            )
        unknown = [v for v in self.byzantine if v not in allowed]
        if unknown:
            raise ValueError(f"byzantine vertices never in the network: {unknown!r}")
        overlap = [v for v in self.byzantine if v in self.faults.crashed]
        if overlap:
            raise ValueError(
                f"vertices cannot be both byzantine and crashed: {overlap!r}"
            )
        self._shims: dict[Vertex, ByzantineShim] = {}
        # Adjacency-indexed delivery buffer: routes[v][port] is the
        # (receiver, back port) pair the message on that port lands on.
        # Built straight off the CSR kernel's rows: the neighbor on
        # port p of v is indices[indptr[i] + p], and the back port comes
        # from the kernel's reverse-slot array — no per-edge dictionary
        # chains.
        self._routes: dict[Vertex, list[tuple[Node, int]]] = {}
        self._route_rows(network.kernel.labels)

    def _route_rows(self, vertices) -> None:
        """(Re)build the delivery routes of the given vertices from the
        network's *current* kernel — the whole graph at construction,
        just the affected rows after a churn round."""
        kernel = self.network.kernel
        indptr, indices = kernel.rows()
        back = memoryview(kernel.back_ports())
        labels = kernel.labels
        nodes = self.network.nodes
        index_of = kernel.index_of
        for v in vertices:
            i = index_of[v]
            self._routes[v] = [
                (nodes[labels[indices[s]]], back[s])
                for s in range(indptr[i], indptr[i + 1])
            ]

    def _make_algorithm(
        self, factory: Callable[[], LocalAlgorithm], vertex: Vertex, uid: int
    ) -> LocalAlgorithm:
        """One per-node algorithm instance, Byzantine-wrapped if planned."""
        inner = factory()
        behavior = self.byzantine.get(vertex)
        if behavior is None:
            return inner
        shim = ByzantineShim(inner, behavior, byzantine_rng(self.seed, uid))
        self._shims[vertex] = shim
        return shim

    def _churn_step(
        self, run: _Run, events: tuple, factory: Callable[[], LocalAlgorithm]
    ) -> int:
        """Apply one round's churn events; returns messages lost to it.

        Beyond the network's own port re-derivation, the engine must (a)
        rebuild delivery routes for every vertex whose CSR row changed
        *and their neighbors* (a changed row moves the back ports of
        every edge into it), (b) retire queued and held messages whose
        sender left or whose port fell off a shrunken adjacency
        (surviving ports are re-routed by number — the link is whatever
        that port points at now), and (c) boot joined vertices through
        ``on_init`` so they participate from this round on.
        """
        network = self.network
        nodes = network.nodes
        changed, joined, left = network.apply_churn(events)
        lost = 0
        for v in left:
            run.live.pop(v, None)
            run.algorithms.pop(v, None)
            self._routes.pop(v, None)
            lost += len(run.outboxes.pop(v, ()))
        rebuild = set(changed)
        for v in changed:
            rebuild.update(network.graph.neighbors(v))
        rebuild &= set(nodes)
        self._route_rows(sorted(rebuild, key=repr))
        for v in sorted(changed, key=repr):
            outbox = run.outboxes.get(v)
            if not outbox:
                continue
            stale_ports = [p for p in outbox if p >= nodes[v].degree]
            for p in stale_ports:
                del outbox[p]
            lost += len(stale_ports)
            if not outbox:
                del run.outboxes[v]
        lost += run.retire(
            lambda sender, port: sender not in nodes or port >= nodes[sender].degree
        )
        for v in joined:
            node = nodes[v]
            run.live[v] = node
            run.algorithms[v] = self._make_algorithm(factory, v, node.uid)
            run.act(v, node, run.algorithms[v].on_init, init=True)
        return lost

    def run(self, algorithm_factory: Callable[[], LocalAlgorithm]) -> EngineResult:
        """Run to completion; returns outputs plus the configured trace."""
        self._shims.clear()
        scheduler = self.scheduler
        crashed = set(self.faults.crashed)
        live = {
            v: node for v, node in self.network.nodes.items() if v not in crashed
        }
        ids = self.network.ids
        byz = self.byzantine
        churn = self.churn
        algorithms = {
            v: self._make_algorithm(algorithm_factory, v, ids[v]) for v in live
        }
        # Under adversarial conditions (a delaying scheduler, Byzantine
        # peers, churn) a protocol may legitimately blow up on inputs it
        # never planned for (stale phases, forged payloads); the run
        # records the node as failed instead of aborting.  Benign runs
        # keep raise-through semantics.
        run = _Run(
            live,
            algorithms,
            crashed,
            self._shims,
            shielded=hasattr(scheduler, "delay_bound") or bool(byz) or bool(churn),
        )
        outboxes, taint, held = run.outboxes, run.taint, run.held
        routes = self._routes
        enforce = scheduler.admit if getattr(scheduler, "enforces", True) else None
        delay = scheduler.delay
        crash_rounds: dict[int, list[Vertex]] = {}
        for v, when in self.faults.crash_schedule:
            crash_rounds.setdefault(when, []).append(v)
        measure = self.trace_policy != "off" or scheduler.needs_units
        round_stats: list[RoundStats] | None = (
            [] if self.trace_policy == "full" else None
        )
        drop_p = self.faults.drop_probability
        rng = random.Random(self.seed) if drop_p > 0.0 else None

        rounds = 0
        total_messages = 0
        total_payload = 0
        dropped = 0
        swallowed = 0
        delayed = 0
        churn_events = 0
        churn_lost = 0
        crash_fired: list[Vertex] = []
        timed_out = False
        detections: dict[Vertex, int] = {v: 0 for v in byz}
        received: list[Node] = []

        for v, node in list(live.items()):
            run.act(v, node, algorithms[v].on_init, init=True)

        for round_index in range(1, self.max_rounds + 1):
            events = churn.get(round_index)
            if events:
                churn_events += len(events)
                churn_lost += self._churn_step(run, events, algorithm_factory)
            for v in crash_rounds.get(round_index, ()):
                if v in live:
                    crash_fired.append(v)
                    swallowed += run.crash(v)

            # Byzantine nodes never count toward termination: a babbler
            # keeps acting forever, so the run ends when every *honest*
            # live node has halted.
            if all(node.halted for v, node in live.items() if v not in byz):
                break

            # One pass over the outboxes: accounting, admission, and
            # queueing into the bucket of the round each message is due.
            due = held.pop(round_index, [])
            messages = 0
            units_this_round = 0
            for v, outbox in outboxes.items():
                messages += len(outbox)
                sender_routes = routes[v]
                sender_uid = ids[v]
                changed_ports = taint.get(v)
                for port, payload in outbox.items():
                    receiver_uid = sender_routes[port][0].uid
                    units = payload_size(payload) if measure else 0
                    units_this_round += units
                    if enforce is not None:
                        enforce(round_index, sender_uid, receiver_uid, units)
                    message = (
                        v,
                        port,
                        payload,
                        changed_ports is not None and port in changed_ports,
                    )
                    wait = delay(round_index, sender_uid, receiver_uid)
                    if wait:
                        delayed += 1
                        held.setdefault(round_index + wait, []).append(message)
                    else:
                        due.append(message)

            # Delivery: rebind fresh inboxes for last round's receivers,
            # then move payloads by reference through the route index.
            for node in received:
                node.inbox = {}
            received = []
            if scheduler.newest_first:
                due.reverse()
            for v, port, payload, tainted in due:
                if rng is not None and rng.random() < drop_p:
                    dropped += 1
                    continue
                receiver, back_port = routes[v][port]
                if receiver.vertex in crashed:
                    swallowed += 1
                    continue
                if tainted and receiver.vertex not in byz:
                    detections[v] += 1
                if not receiver.inbox:
                    received.append(receiver)
                receiver.inbox[back_port] = payload

            rounds = round_index
            total_messages += messages
            total_payload += units_this_round
            if round_stats is not None:
                round_stats.append(
                    RoundStats(
                        round_index=round_index,
                        messages=messages,
                        payload_units=units_this_round,
                    )
                )

            outboxes.clear()
            taint.clear()
            for v, node in list(live.items()):
                if not node.halted:
                    run.act(v, node, algorithms[v].on_round)
        else:
            if not run.shielded:
                raise RuntimeError(
                    f"algorithm did not halt within {self.max_rounds} rounds"
                )
            timed_out = True

        suspicion: dict[Vertex, dict] = {}
        for v in sorted(byz, key=repr):
            shim = self._shims.get(v)
            suspicion[v] = {
                "behavior": byz[v],
                "deviations": shim.deviations if shim is not None else 0,
                "detections": detections.get(v, 0),
            }
        return EngineResult(
            outputs=self.network.outputs(),
            rounds=rounds,
            total_messages=total_messages,
            total_payload=total_payload if measure else None,
            round_stats=round_stats,
            dropped_messages=dropped,
            swallowed_messages=swallowed,
            crashed=tuple(self.faults.crashed) + tuple(crash_fired),
            delayed_messages=delayed,
            churn_events=churn_events,
            churn_lost_messages=churn_lost,
            suspicion=suspicion,
            failed=tuple(run.failed),
            timed_out=timed_out,
        )


def scheduler_for(
    model: str, budget: int = 4, *, delay: int = 2, seed: int = 0
) -> Scheduler:
    """Build the scheduler for a model name.

    ``budget`` only matters under ``"congest"``; ``delay`` (the
    per-message delay bound) and ``seed`` only under ``"async"`` /
    ``"adversarial"`` (the adversarial policy is deterministic and
    ignores the seed).
    """
    if model == "local":
        return LocalScheduler()
    if model == "congest":
        return CongestScheduler(budget)
    if model == "async":
        return AsyncScheduler(delay, seed)
    if model == "adversarial":
        return AdversarialScheduler(delay)
    raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
