"""Incoming-vote buffer (the ``incomingMsgs`` of Algorithm 5).

A background handler stores every received vote indexed by
``(round, step)``; :func:`repro.baplus.voting.count_votes` iterates a
bucket and *parks* on its key while it waits for more: :meth:`VoteBuffer.add`
puts one wake-up on the event loop per parked waiter. Buckets are kept
until explicitly pruned so that certificates can be assembled from past
steps and passive observers can recount votes; pruning one drops whoever
parked on it (a count left behind still ends at its own deadline).

The buffer can be bounded (``budget_messages``): past the budget an
incoming vote must displace a buffered one or be rejected. Eviction is
by *round proximity* — the paper's "undecidable messages" (future-round
and recovery votes that cannot be validated yet, the buffering DoS
vector of PAPERS.md) are the first to go, and votes at or below the
``anchor_round`` being decided right now are never evicted. Because
:meth:`messages` hands out live list references that parked counts
iterate by index, eviction only ever pops from the *tail* of a
strictly-future bucket and never deletes bucket dict entries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

from repro.baplus.messages import VoteMessage
from repro.sim.loop import Environment

_Key = tuple[int, str]


class VoteBuffer:
    """Votes indexed by ``(round, step)``, and who waits for the next."""

    def __init__(self, env: Environment,
                 budget_messages: int | None = None) -> None:
        self._env = env
        self._buckets: dict[_Key, list[VoteMessage]] = defaultdict(list)
        #: ``(callback, arg)`` waiters per key, in the order they parked.
        self._parked: dict[_Key, list[tuple]] = {}
        #: Maximum buffered votes across all buckets (None = unbounded).
        self.budget_messages = budget_messages
        #: Rounds at or below this are protected from eviction (the
        #: round currently being decided; set by the node's round loop).
        self.anchor_round = 0
        self._size = 0
        self.high_water = 0
        self.evicted = 0
        self.rejected = 0

    def __len__(self) -> int:
        return self._size

    def add(self, vote: VoteMessage) -> bool:
        """Buffer ``vote``; False if the budget forced a rejection."""
        key = (vote.round_number, vote.step)
        budget = self.budget_messages
        if budget is not None and self._size >= budget:
            if not self._evict_for(key):
                self.rejected += 1
                return False
        self._buckets[key].append(vote)
        self._size += 1
        if self._size > self.high_water:
            self.high_water = self._size
        parked = self._parked.get(key)
        if parked:
            schedule_now = self._env.schedule_now
            for callback, arg in parked:
                schedule_now(callback, arg)
            parked.clear()
        return True

    def _evict_for(self, incoming_key: _Key) -> bool:
        """Make room for ``incoming_key`` by dropping a far-future vote.

        The victim is the tail of the furthest-future non-empty bucket
        above the anchor. If the incoming vote is itself at or beyond
        that furthest bucket (and not anchored), it is the worst
        candidate and the caller rejects it instead.
        """
        candidates = [key for key, bucket in self._buckets.items()
                      if bucket and key[0] > self.anchor_round]
        if not candidates:
            return False
        victim = max(candidates)
        if incoming_key[0] > self.anchor_round and incoming_key >= victim:
            return False
        self._buckets[victim].pop()
        self._size -= 1
        self.evicted += 1
        return True

    def messages(self, round_number: int, step: str) -> list[VoteMessage]:
        """The current bucket (live list — callers index, don't mutate)."""
        return self._buckets[(round_number, step)]

    def park(self, key: _Key, callback: Callable, arg: Any) -> None:
        """One-shot: the next :meth:`add` for ``key`` schedules
        ``callback(arg)`` on the event loop, waiters in parking order."""
        self._parked.setdefault(key, []).append((callback, arg))

    def unpark(self, key: _Key, callback: Callable, arg: Any) -> None:
        """Withdraw a :meth:`park`, unless :meth:`add` or a prune did."""
        parked = self._parked.get(key, ())
        if (callback, arg) in parked:
            parked.remove((callback, arg))

    def rounds_buffered(self) -> set[int]:
        return {round_number for round_number, _ in self._buckets}

    def buckets_between(self, low: int, high: int
                        ) -> list[tuple[_Key, list[VoteMessage]]]:
        """``((round, step), votes)`` for the rounds ``low <= r < high``."""
        return [(key, bucket) for key, bucket in self._buckets.items()
                if low <= key[0] < high]

    def clear(self) -> None:
        """Drop every bucket and waiter (a crashed node's volatile state)."""
        self._buckets.clear()
        self._parked.clear()
        self._size = 0

    def prune_before(self, round_number: int) -> None:
        """Drop buckets for rounds strictly below ``round_number``."""
        self._drop([key for key in self._buckets if key[0] < round_number])

    def prune_at_or_above(self, round_number: int) -> None:
        """Drop buckets for rounds >= ``round_number`` (recovery cleanup)."""
        self._drop([key for key in self._buckets if key[0] >= round_number])

    def _drop(self, stale: list[_Key]) -> None:
        for key in stale:
            self._size -= len(self._buckets.pop(key))
            self._parked.pop(key, None)
