"""The elastic worker pool: slots, members, and the membership timeline.

The static cluster's primitives address workers *positionally*: partition
``p`` lives on worker ``p % K``, engines sit in a list, accounting loops
run ``for w in range(K)``.  An elastic pool keeps that arithmetic intact by
splitting the worker id space in two:

* **slots** -- the logical worker positions the primitives see.  The slot
  count is *static* for a whole run: it is the peak membership the
  timeline ever reaches, so a partition's slot never moves and every byte
  the communication ledger records is independent of churn.
* **members** -- the physical workers that come and go.  Each slot is
  owned by exactly one live member, chosen by rendezvous (highest-random-
  weight) hashing, so a join steals only its fair share of slots and a
  leave scatters only the departed member's slots over the survivors.

Membership at any stage is a pure function of the (seeded) timeline, which
is what makes same-seed elastic runs byte-identical: the simulated clock
sees more or fewer members sharing the slots' flops, but the plan, the
partitioning and the shuffles never change.

The pool is consumed through a monotone cursor: the executor calls
:meth:`ElasticPool.next_transition` / :meth:`ElasticPool.commit` as stages
execute, applying each event's side effects (block loss on leave,
rebalance traffic on join) exactly once even across stage retries.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.elastic.spec import ElasticEvent, parse_elastic_spec
from repro.errors import ElasticSpecError


@dataclasses.dataclass(frozen=True)
class Transition:
    """One membership event, resolved against the pool state it fires in.

    ``moved_slots`` maps every slot whose owner changes to its *previous*
    owner -- on a leave these are the departed member's slots (their
    blocks are lost), on a join they are the slots the joiner takes over
    (their live blocks are shipped as rebalance traffic).
    """

    event: ElasticEvent
    joined: tuple[int, ...]  # member ids entering the pool
    departed: int | None  # member id leaving the pool
    members_before: tuple[int, ...]
    members_after: tuple[int, ...]
    moved_slots: dict[int, int]  # slot -> previous owner member

    def describe(self) -> str:
        who = (
            f"+{list(self.joined)}" if self.joined else f"-{self.departed}"
        )
        return (
            f"{self.event.describe()} {who}: "
            f"{len(self.members_before)} -> {len(self.members_after)} members, "
            f"{len(self.moved_slots)} slots moved"
        )


class ElasticPool:
    """Seeded deterministic membership over a static slot topology."""

    def __init__(
        self,
        events: str | tuple[ElasticEvent, ...],
        initial: int,
        seed: int = 0,
    ) -> None:
        if isinstance(events, str):
            events = parse_elastic_spec(events)
        if initial < 1:
            raise ElasticSpecError(
                f"elastic pool needs at least one initial member, got {initial}"
            )
        self.events = events
        self.initial = initial
        self.seed = seed
        # Validate the whole timeline up front and record the peak
        # membership: the peak is the slot count, fixed for the run.
        members = list(range(initial))
        next_id = initial
        ever = list(members)
        peak = len(members)
        for event in events:
            members, next_id, changed = self._step(members, next_id, event)
            ever.extend(changed)
            peak = max(peak, len(members))
        #: Logical worker positions; partition ``p`` lives on slot ``p % slots``.
        self.slots = peak
        #: Every member id the timeline ever admits (initial + joiners).
        self.members_ever = tuple(ever)
        # -- mutable cursor state (one run / one staged sequence) -----------
        self._members: list[int] = list(range(initial))
        self._next_id = initial
        self._applied = 0
        # A timeline with no events never moves a slot, so there is nothing
        # for rendezvous hashing to minimise: every member keeps the slot of
        # its own index and a static cluster's worker ids are its positions.
        self._assignment = (
            self.assignment_for(tuple(self._members))
            if events
            else {member: member for member in self._members}
        )
        #: Cumulative stage offset across executed segments of a staged
        #: program -- event stages index the cumulative count.
        self.stage_offset = 0
        #: Human-readable log of committed transitions (reporting only).
        self.applied_log: list[str] = []

    # -- pure timeline queries ----------------------------------------------

    def members_at(self, stage: int) -> tuple[int, ...]:
        """The live member ids once every event at ``stage`` or earlier has
        fired -- a pure function of the timeline, independent of the cursor."""
        members = list(range(self.initial))
        next_id = self.initial
        for event in self.events:
            if event.stage > stage:
                break
            members, next_id, __ = self._step(members, next_id, event)
        return tuple(members)

    def assignment_for(self, members: tuple[int, ...]) -> dict[int, int]:
        """Slot -> owning member under bounded-load rendezvous hashing.

        Each slot ranks every live member by a seeded hash and takes the
        best-ranked one still under the load cap ``ceil(slots/|members|)``.
        The cap keeps the assignment perfectly balanced -- at full
        membership every member owns exactly one slot, so a churn-free
        elastic run costs the same simulated compute as the static cluster
        -- while the hash ranking keeps moves small when membership
        changes.  A pure function of ``(seed, slots, members)``.
        """
        cap = -(-self.slots // len(members))  # ceil division
        load = {member: 0 for member in members}
        assignment: dict[int, int] = {}
        for slot in range(self.slots):
            ranked = sorted(
                members, key=lambda m: (self._rank(slot, m), m), reverse=True
            )
            for member in ranked:
                if load[member] < cap:
                    assignment[slot] = member
                    load[member] += 1
                    break
        return assignment

    def _rank(self, slot: int, member: int) -> int:
        digest = hashlib.blake2b(
            f"{self.seed}|{slot}|{member}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def _step(
        self, members: list[int], next_id: int, event: ElasticEvent
    ) -> tuple[list[int], int, list[int]]:
        """Apply one event to a membership list; returns the new list, the
        next fresh id, and the ids that joined (empty for a leave)."""
        if event.kind == "join":
            joined = list(range(next_id, next_id + event.count))
            return members + joined, next_id + event.count, joined
        # leave: the named member, or the youngest (highest id) by default.
        if event.worker is not None:
            if event.worker not in members:
                raise ElasticSpecError(
                    f"elastic event {event.describe()!r}: member {event.worker} "
                    f"is not live at stage {event.stage} (live: {members})"
                )
            target = event.worker
        else:
            target = max(members)
        if len(members) == 1:
            raise ElasticSpecError(
                f"elastic event {event.describe()!r} would empty the pool"
            )
        return [m for m in members if m != target], next_id, []

    # -- the execution cursor ------------------------------------------------

    @property
    def members(self) -> tuple[int, ...]:
        """The live members at the cursor's current position."""
        return tuple(self._members)

    def member_for_slot(self, slot: int) -> int:
        """The member currently owning ``slot``."""
        return self._assignment[slot]

    def slots_of(self, member: int) -> tuple[int, ...]:
        """The slots currently owned by ``member`` (empty if departed)."""
        return tuple(
            slot for slot in range(self.slots)
            if self._assignment[slot] == member
        )

    def next_transition(self, stage: int) -> Transition | None:
        """The next unapplied event firing at or before *cumulative* stage
        ``stage_offset + stage``, resolved against the current membership --
        or ``None``.  Does not mutate the pool: the caller performs the
        transition's side effects (which may fail and be retried) and only
        then calls :meth:`commit`.
        """
        if self._applied >= len(self.events):
            return None
        event = self.events[self._applied]
        if event.stage > self.stage_offset + stage:
            return None
        before = tuple(self._members)
        after_list, __, joined = self._step(
            list(self._members), self._next_id, event
        )
        after = tuple(after_list)
        new_assignment = self.assignment_for(after)
        moved = {
            slot: owner
            for slot, owner in self._assignment.items()
            if new_assignment[slot] != owner
        }
        departed = None
        if event.kind == "leave":
            (departed,) = set(before) - set(after)
        return Transition(
            event=event,
            joined=tuple(joined),
            departed=departed,
            members_before=before,
            members_after=after,
            moved_slots=moved,
        )

    def commit(self, transition: Transition) -> None:
        """Advance the cursor past ``transition`` (its side effects are done)."""
        self._members = list(transition.members_after)
        self._next_id = max(
            self._next_id,
            max(transition.joined, default=self._next_id - 1) + 1,
        )
        self._assignment = self.assignment_for(transition.members_after)
        self._applied += 1
        self.applied_log.append(transition.describe())

    def finish_segment(self, num_stages: int) -> None:
        """Advance the cumulative stage offset after one plan/segment ran."""
        self.stage_offset += num_stages
