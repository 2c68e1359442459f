"""Adversarial round models: asynchronous and worst-case delivery.

A :class:`~repro.local_model.engine.Scheduler` decides, per message,
whether it is admitted, how many extra rounds it is held, and in which
order the messages due in one round are delivered.  LOCAL and CONGEST
(in :mod:`repro.local_model.engine`) hold nothing: every message arrives
in the next round.  The two schedulers here admit everything
(bandwidth is LOCAL-like) but relax the other half of the synchronous
contract — *when* and *in what order* messages arrive:

* :class:`AsyncScheduler` — each message is independently delayed by a
  seeded number of rounds in ``[0, delay_bound]``; due messages arrive
  FIFO (by queueing round, then queueing order).  This is the classic
  "asynchronous network simulated in rounds" model: the algorithm still
  runs in lock-step, but its inputs can be stale.

* :class:`AdversarialScheduler` — a deterministic worst-case adversary.
  Messages crossing an identifier gradient (lower uid → higher uid) are
  held for the full ``delay_bound``; everything else flies.  Due
  messages are delivered newest-first, so when two messages land on the
  same port in the same round, the *stalest* payload wins the slot —
  the adversary always shows a node the oldest view it is allowed to.

Both expose ``delay_bound``, which marks their runs as adversarial (a
protocol that raises fails its node, not the run).  Determinism
contract: the async delay stream is ``random.Random`` seeded from the
run seed by pure integer arithmetic (no hashing of strings or tuples —
those are salted per process and would break ``workers=4``
byte-identity), and the adversarial policy uses no randomness at all.
"""

from __future__ import annotations

import random

#: Mixed into the run seed to decouple the scheduler's delay stream from
#: the fault plan's drop stream (both are Random(seed)-style consumers).
_DELAY_STREAM_SALT = 0x9E3779B9


class AsyncScheduler:
    """Seeded asynchronous delivery: per-message delay in [0, bound]."""

    model = "async"
    enforces = False
    needs_units = False
    newest_first = False

    def __init__(self, delay_bound: int = 2, seed: int = 0):
        if delay_bound < 0:
            raise ValueError(f"delay bound must be >= 0, got {delay_bound}")
        self.delay_bound = delay_bound
        self.seed = seed
        self._rng = random.Random(seed ^ _DELAY_STREAM_SALT)

    def admit(self, round_index: int, sender: int, receiver: int, units: int) -> None:
        return None

    def delay(self, round_index: int, sender_uid: int, receiver_uid: int) -> int:
        """Rounds to hold this message; one seeded draw per message.

        Draws are consumed in queueing order (the engine walks outboxes
        in node order, ports ascending), so the delay stream — like the
        fault plan's drop stream — is a pure function of the run seed.
        """
        if self.delay_bound == 0:
            return 0
        return self._rng.randrange(self.delay_bound + 1)


class AdversarialScheduler:
    """Deterministic worst-case delivery: maximal delay and stale-wins.

    No randomness: the adversary's choices are a pure function of the
    topology and identifiers, so a run reproduces bit-for-bit with no
    seed bookkeeping, and tightening ``delay_bound`` to 0 recovers
    synchronous LOCAL delivery exactly.  Due messages are delivered
    newest first, so on a port collision the *stalest* payload is
    written last and wins the inbox slot.
    """

    model = "adversarial"
    enforces = False
    needs_units = False
    newest_first = True

    def __init__(self, delay_bound: int = 2):
        if delay_bound < 0:
            raise ValueError(f"delay bound must be >= 0, got {delay_bound}")
        self.delay_bound = delay_bound

    def admit(self, round_index: int, sender: int, receiver: int, units: int) -> None:
        return None

    def delay(self, round_index: int, sender_uid: int, receiver_uid: int) -> int:
        """Hold messages flowing up the identifier order for the full
        bound — the symmetry-breaking direction most paper protocols
        lean on — and deliver the rest immediately."""
        return self.delay_bound if sender_uid < receiver_uid else 0
