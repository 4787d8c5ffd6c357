"""The invariant oracle: a sequential spec replay of the queue history.

The oracle is a passive :class:`~repro.simt.probe.Probe` that receives
the queue's *logical* operation stream — reservations on Front/Rear,
token stores, token deliveries — and validates every event, as it
happens, against a sequential **FIFO-with-reservation** specification:

* reservations on each control word partition the raw index space:
  no two reservations ever overlap (a duplicated range), and at
  quiescence the reserved ranges tile ``[0, high)`` exactly (a
  permanent gap is a lost range);
* a reservation's watch set covers exactly the slots it claimed
  (the proxy reservation is contiguous and sized to the active mask);
* for variants without the retry-free property, ``front <= rear`` in
  every consistent control-word snapshot, and no dequeue reservation
  overruns the enqueue-side high-water mark;
* a slot is stored at most once, only after it was enqueue-reserved,
  in bounds for monotonic queues, and — for circular queues — only
  after its previous-generation occupant was delivered (wrap safety);
* a slot delivers exactly the token that was stored into it, at most
  once, and only after a dequeue-side reservation covered it;
* at quiescence nothing is lost or duplicated: stored and delivered
  slot sets coincide, leftover parked slots lie beyond the enqueued
  range, the control words equal the reservation totals, and the slot
  array / valid flags are back in their pristine (``dna`` / 0) state.

For the adaptive-capacity variants (:mod:`repro.core.queue_adaptive`)
the oracle additionally models segment hand-off and spill legality:

* **GROW** — the segment map is write-once (``segment-double-link``), a
  pool segment is never re-linked while a live logical segment still
  occupies it (``link-unreleased-segment``), a release names the
  mapping it dissolves (``release-unlinked-segment``, at most once:
  ``segment-double-release``) and may only fire once every slot of the
  logical segment was delivered (``release-undrained-segment``); stores
  are bounded by the *logical* index space and every stored-into
  segment must eventually be linked (``store-unlinked-segment``);
* **SPILL** — re-injections must be backed by outstanding spills, token
  for token (``reinject-unspilled``: the multiset of re-published
  tokens never exceeds the multiset dead-dropped), and at quiescence no
  spilled token is still parked in the overflow ring
  (``spill-never-reinjected``), whose entries must be back to the
  ``dna`` sentinel (``spill-ring-leak``).

What the callback stream does and does not order
------------------------------------------------
A wavefront's callbacks run when the engine *advances its generator* —
i.e. at the issue event of its next op — so callbacks between two
yields are adjacent in the stream and one wavefront's callbacks always
appear in program order.  Cross-wavefront, however, the stream is NOT
ordered by atomic service time: a schedule controller (or plain CU
contention) can delay a wavefront's resume arbitrarily, so the
wavefront that won a reservation *first* may report it *last*.  Every
check here is therefore phrased to be sound under that skew, using only
(a) per-wavefront program order, and (b) causality through memory: a
value read must have been written first, and the write's callback fires
at the write's issue, which precedes its memory effect.  That is why
reservations are interval-accounted rather than required to arrive in
sequence, and why the dequeue-overrun bound uses the claiming
wavefront's own sampled Rear (emitted earlier in its program order)
rather than the enqueue-side high-water mark alone.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.core.constants import DNA, FRONT, REAR
from repro.simt.probe import Probe


class VerificationError(AssertionError):
    """An invariant of the queue specification was violated.

    Attributes
    ----------
    invariant:
        Short machine-readable name of the violated invariant (used by
        the shrinker to confirm a reduced scenario fails the same way).
    detail:
        Human-readable description with the offending values.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"[{invariant}] {detail}")


class InvariantOracle(Probe):
    """Checks one queue's operation history against the sequential spec.

    Construct with the queue under test, feed host-side seed tokens via
    :meth:`note_seed`, attach as the launch ``probe``, and call
    :meth:`finish` after a normally-completed launch.  Any violation
    raises :class:`VerificationError` at the exact event (mid-launch)
    or at quiescence.
    """

    def __init__(self, queue):
        self.queue = queue
        self.prefix = queue.prefix
        self.capacity = int(queue.capacity)
        self.circular = bool(queue.circular)
        self.variant = queue.variant
        self.retry_free = bool(queue.retry_free)
        #: raw slot -> token written there (host seed + device stores).
        self.stored: Dict[int, int] = {}
        #: raw slot -> token handed to a dequeuing lane.
        self.delivered: Dict[int, int] = {}
        #: raw slot -> cycle it was parked on (currently watched).
        self.watched: Dict[int, int] = {}
        #: raw slots covered by some enqueue reservation.
        self.enq_reserved: set = set()
        #: raw slots covered by some dequeue reservation.
        self.deq_reserved: set = set()
        #: enqueue-side reservation high-water mark (spec Rear).
        self.enq_next = 0
        #: dequeue-side reservation high-water mark (spec Front).
        self.deq_next = 0
        #: pending acquire reservation awaiting its watch set.
        self._pending_acquire: Optional[tuple] = None
        #: last counter sample, for consistent front/rear pair checks.
        self._last_counter: Optional[tuple] = None
        #: highest Rear value ever *sampled* (a sound lower bound on the
        #: true Rear: every non-retry-free dequeue reservation is
        #: preceded, in its own generator, by the rear sample that
        #: justified it, so cross-word callback skew cannot fake this).
        self._rear_seen = 0
        #: total events checked (reported by the runner).
        self.events = 0
        # -- adaptive-capacity model (repro.core.queue_adaptive) -------
        self.growable = bool(getattr(queue, "growable", False))
        self.spillable = bool(getattr(queue, "spillable", False))
        #: monotonic store bound: GROW runs to the *logical* index
        #: space, everything else to the physical capacity.
        self.store_bound = int(
            getattr(queue, "logical_capacity", self.capacity)
            if self.growable else self.capacity
        )
        if self.growable:
            self.seg_cap = int(queue.seg_cap)
            #: logical segment -> pool segment (the write-once map).
            self.seg_map: Dict[int, int] = {}
            #: pool segment -> logical segment currently occupying it.
            self.phys_live: Dict[int, int] = {}
            #: logical segments already recycled.
            self.seg_released: Set[int] = set()
            #: per-logical-segment delivery tally (release legality).
            self.seg_delivered: Counter = Counter()
            #: stores seen before their segment's link callback.  The
            #: winner's link callback can legally trail a loser's
            #: adopted-mapping stores in the cross-wavefront stream, so
            #: this is buffered, not convicted, until quiescence.
            self._seg_unlinked_stores: Dict[int, int] = {}
            self._adopt_host_segments()
        if self.spillable:
            #: multiset of tokens dead-dropped but not yet re-published.
            self.pending_spill: Counter = Counter()
            self.n_spilled = 0
            self.n_reinjected = 0

    def _adopt_host_segments(self) -> None:
        for logical, phys in getattr(self.queue, "_host_mapped", ()):
            self.seg_map.setdefault(int(logical), int(phys))
            self.phys_live.setdefault(int(phys), int(logical))

    # ------------------------------------------------------------------
    # host-side wiring
    # ------------------------------------------------------------------
    def note_seed(self, tokens) -> None:
        """Record host-seeded tokens (slots ``[0, len)`` pre-stored)."""
        for i, t in enumerate(np.asarray(tokens, dtype=np.int64)):
            self.stored[int(i)] = int(t)
            self.enq_reserved.add(int(i))
        self.enq_next = len(self.stored)
        if self.growable:
            # seeding may host-link further segments; adopt them.
            self._adopt_host_segments()

    def _fail(self, invariant: str, detail: str) -> None:
        raise VerificationError(
            invariant, f"{self.variant} queue {self.prefix!r}: {detail}"
        )

    # ------------------------------------------------------------------
    # probe callbacks
    # ------------------------------------------------------------------
    def queue_register(self, prefix: str, capacity: int, variant: str) -> None:
        if prefix != self.prefix:
            return
        if capacity != self.capacity:
            self._fail(
                "register-mismatch",
                f"registered capacity {capacity} != configured {self.capacity}",
            )

    def queue_counter(self, prefix, name, cycle, value) -> None:
        if prefix != self.prefix:
            return
        self.events += 1
        if value < 0:
            self._fail("counter-negative", f"{name} sampled negative: {value}")
        # front <= rear on consistent snapshots: the non-retry-free
        # variants sample both words from ONE coalesced read and report
        # them back-to-back within a single generator resume, so an
        # adjacent (front, rear) pair is a consistent snapshot.  RF/AN
        # never emits such pairs (its Front legally overruns Rear while
        # hungry lanes park on future slots).
        last = self._last_counter
        if (
            not self.retry_free
            and name == "rear"
            and last is not None
            and last[0] == "front"
        ):
            if last[1] > value:
                self._fail(
                    "front-exceeds-rear",
                    f"snapshot front={last[1]} > rear={value} at cycle {cycle}",
                )
        self._last_counter = (name, value)
        if name == "rear" and value > self._rear_seen:
            self._rear_seen = int(value)

    def queue_reserve(self, prefix, direction, base, count) -> None:
        if prefix != self.prefix:
            return
        self.events += 1
        base = int(base)
        count = int(count)
        if count <= 0:
            self._fail(
                "reserve-empty", f"{direction} reservation of {count} slots"
            )
        if direction == "acquire":
            if not self.retry_free and base + count > max(
                self._rear_seen, self.enq_next
            ):
                self._fail(
                    "deq-overrun",
                    f"dequeue reserved slots [{base}, {base + count}) beyond "
                    f"any sampled Rear ({self._rear_seen}) without the "
                    "retry-free property",
                )
            taken = self.deq_reserved
            for s in range(base, base + count):
                if s in taken:
                    self._fail(
                        "deq-reservation-overlap",
                        f"slot {s} dequeue-reserved twice (range "
                        f"[{base}, {base + count}) overlaps an earlier "
                        "reservation)",
                    )
                taken.add(s)
            if base + count > self.deq_next:
                self.deq_next = base + count
            self._pending_acquire = (base, count)
        elif direction == "publish":
            taken = self.enq_reserved
            for s in range(base, base + count):
                if s in taken:
                    self._fail(
                        "enq-reservation-overlap",
                        f"slot {s} enqueue-reserved twice (range "
                        f"[{base}, {base + count}) overlaps an earlier "
                        "reservation)",
                    )
                taken.add(s)
            if base + count > self.enq_next:
                self.enq_next = base + count
        else:  # pragma: no cover - defensive
            self._fail("reserve-direction", f"unknown direction {direction!r}")

    def queue_watch(self, prefix, slots, cycle) -> None:
        if prefix != self.prefix:
            return
        self.events += 1
        arr = np.asarray(slots, dtype=np.int64).reshape(-1)
        pending = self._pending_acquire
        self._pending_acquire = None
        if pending is not None:
            base, count = pending
            expect = np.arange(base, base + count, dtype=np.int64)
            if arr.size != count or not np.array_equal(np.sort(arr), expect):
                self._fail(
                    "watch-reservation-mismatch",
                    f"reservation [{base}, {base + count}) but lanes parked "
                    f"on {np.sort(arr).tolist()} (proxy reservation not "
                    "contiguous or not sized to the active mask)",
                )
        for s in arr:
            s = int(s)
            if s in self.watched:
                self._fail(
                    "slot-watched-twice",
                    f"slot {s} parked by two dequeuers concurrently "
                    "(over-reservation)",
                )
            if s in self.delivered:
                self._fail(
                    "watch-consumed-slot",
                    f"slot {s} re-parked after its token was delivered",
                )
            if s not in self.deq_reserved:
                self._fail(
                    "watch-unreserved-slot",
                    f"slot {s} parked without a dequeue reservation",
                )
            self.watched[s] = int(cycle)

    def queue_store(self, prefix, slots, values) -> None:
        if prefix != self.prefix:
            return
        self.events += 1
        arr = np.asarray(slots, dtype=np.int64).reshape(-1)
        vals = np.asarray(values, dtype=np.int64).reshape(-1)
        if vals.size != arr.size:
            vals = np.broadcast_to(vals, arr.shape)
        for s, v in zip(arr, vals):
            s, v = int(s), int(v)
            if v == DNA:
                self._fail(
                    "store-sentinel",
                    f"slot {s}: the dna sentinel was enqueued as a token",
                )
            if s not in self.enq_reserved:
                self._fail(
                    "store-unreserved-slot",
                    f"slot {s} written without an enqueue reservation",
                )
            if s in self.stored:
                self._fail(
                    "slot-stored-twice",
                    f"slot {s} written twice (had {self.stored[s]}, "
                    f"now {v}): entry duplicated or overwritten",
                )
            if not self.circular and s >= self.store_bound:
                self._fail(
                    "store-beyond-capacity",
                    f"slot {s} stored beyond "
                    + ("logical capacity" if self.growable else "capacity")
                    + f" {self.store_bound}: the queue-full abort failed "
                    "to fire",
                )
            if self.growable:
                seg = s // self.seg_cap
                if seg not in self.seg_map:
                    self._seg_unlinked_stores.setdefault(seg, s)
            if self.circular:
                prior = s - self.capacity
                if prior >= 0 and prior not in self.delivered:
                    self._fail(
                        "wrap-overwrite",
                        f"slot {s} reuses physical slot "
                        f"{s % self.capacity} whose previous occupant "
                        f"(raw {prior}) was never delivered",
                    )
            self.stored[s] = v

    def queue_deliver(self, prefix, slots, tokens) -> None:
        if prefix != self.prefix:
            return
        self.events += 1
        arr = np.asarray(slots, dtype=np.int64).reshape(-1)
        toks = np.asarray(tokens, dtype=np.int64).reshape(-1)
        for s, t in zip(arr, toks):
            s, t = int(s), int(t)
            if s in self.delivered:
                self._fail(
                    "slot-delivered-twice",
                    f"slot {s} delivered twice ({self.delivered[s]} then "
                    f"{t}): entry duplicated",
                )
            if s not in self.deq_reserved:
                self._fail(
                    "deliver-unreserved-slot",
                    f"slot {s} delivered without a dequeue reservation",
                )
            want = self.stored.get(s)
            if want is None:
                self._fail(
                    "deliver-unwritten-slot",
                    f"slot {s} delivered token {t} but nothing was ever "
                    "stored there (sentinel/data race: a dna or stale "
                    "value was handed out as a token)",
                )
            if t != want:
                self._fail(
                    "token-corrupted",
                    f"slot {s} delivered {t} but {want} was stored",
                )
            self.delivered[s] = t
            self.watched.pop(s, None)
            if self.growable:
                self.seg_delivered[s // self.seg_cap] += 1

    # ------------------------------------------------------------------
    # adaptive-capacity callbacks (GROW segment hand-off, SPILL legality)
    # ------------------------------------------------------------------
    def queue_segment_link(self, prefix, logical_seg, phys_seg, cycle) -> None:
        if prefix != self.prefix or not self.growable:
            return
        self.events += 1
        logical_seg, phys_seg = int(logical_seg), int(phys_seg)
        if logical_seg in self.seg_map:
            self._fail(
                "segment-double-link",
                f"logical segment {logical_seg} linked to pool segment "
                f"{phys_seg} but was already mapped to "
                f"{self.seg_map[logical_seg]} (the write-once segment-map "
                "CAS won twice)",
            )
        occupant = self.phys_live.get(phys_seg)
        if occupant is not None:
            self._fail(
                "link-unreleased-segment",
                f"pool segment {phys_seg} linked in as logical segment "
                f"{logical_seg} while logical segment {occupant} still "
                "occupies it (free-list pop of a live segment)",
            )
        self.seg_map[logical_seg] = phys_seg
        self.phys_live[phys_seg] = logical_seg
        self._seg_unlinked_stores.pop(logical_seg, None)

    def queue_segment_release(self, prefix, logical_seg, phys_seg) -> None:
        if prefix != self.prefix or not self.growable:
            return
        self.events += 1
        logical_seg, phys_seg = int(logical_seg), int(phys_seg)
        if logical_seg in self.seg_released:
            self._fail(
                "segment-double-release",
                f"logical segment {logical_seg} released twice",
            )
        if self.seg_map.get(logical_seg) != phys_seg:
            self._fail(
                "release-unlinked-segment",
                f"release of logical segment {logical_seg} names pool "
                f"segment {phys_seg} but the map says "
                f"{self.seg_map.get(logical_seg)}",
            )
        got = int(self.seg_delivered.get(logical_seg, 0))
        if got != self.seg_cap:
            self._fail(
                "release-undrained-segment",
                f"logical segment {logical_seg} released after only "
                f"{got}/{self.seg_cap} deliveries: recycling a segment "
                "whose slots are still in flight",
            )
        self.seg_released.add(logical_seg)
        self.phys_live.pop(phys_seg, None)

    def queue_spill(self, prefix, tokens) -> None:
        if prefix != self.prefix or not self.spillable:
            return
        self.events += 1
        toks = np.asarray(tokens, dtype=np.int64).reshape(-1)
        for t in toks:
            t = int(t)
            if t == DNA:
                self._fail(
                    "spill-sentinel",
                    "the dna sentinel was dead-dropped as a token",
                )
            self.pending_spill[t] += 1
        self.n_spilled += int(toks.size)

    def queue_reinject(self, prefix, slots, tokens) -> None:
        if prefix != self.prefix or not self.spillable:
            return
        self.events += 1
        toks = np.asarray(tokens, dtype=np.int64).reshape(-1)
        for t in toks:
            t = int(t)
            if self.pending_spill.get(t, 0) <= 0:
                self._fail(
                    "reinject-unspilled",
                    f"token {t} re-published from the overflow ring with "
                    "no matching outstanding spill (a duplicated or "
                    "invented re-injection)",
                )
            self.pending_spill[t] -= 1
        self.n_reinjected += int(toks.size)

    # ------------------------------------------------------------------
    # quiescence
    # ------------------------------------------------------------------
    def finish(self, memory=None) -> None:
        """Check conservation and pristine state after a drained run.

        Call only after a launch that completed normally (done flag
        raised, no abort): every enqueued token must have been consumed.
        """
        if not self.retry_free and self.deq_next > self.enq_next:
            self._fail(
                "deq-overrun",
                f"final dequeue high-water {self.deq_next} exceeds enqueue "
                f"high-water {self.enq_next} without the retry-free property",
            )
        # the reserved ranges must tile [0, high) at quiescence — a
        # permanent hole means a slot range was lost (transient holes
        # during the run are just cross-wavefront reporting skew).
        if len(self.enq_reserved) != self.enq_next:
            missing = next(
                s for s in range(self.enq_next) if s not in self.enq_reserved
            )
            self._fail(
                "enq-reservation-gap",
                f"enqueue reservations do not tile [0, {self.enq_next}): "
                f"slot {missing} was never reserved (lost range)",
            )
        if len(self.deq_reserved) != self.deq_next:
            missing = next(
                s for s in range(self.deq_next) if s not in self.deq_reserved
            )
            self._fail(
                "deq-reservation-gap",
                f"dequeue reservations do not tile [0, {self.deq_next}): "
                f"slot {missing} was never reserved (lost range)",
            )
        lost = sorted(set(self.stored) - set(self.delivered))
        if lost:
            self._fail(
                "token-lost",
                f"{len(lost)} stored token(s) never delivered, e.g. slot "
                f"{lost[0]} holding {self.stored[lost[0]]}",
            )
        if len(self.stored) != self.enq_next:
            self._fail(
                "reservation-unfilled",
                f"{self.enq_next} slots enqueue-reserved but only "
                f"{len(self.stored)} stored",
            )
        for s in self.watched:
            if s < self.enq_next:
                self._fail(
                    "parked-on-enqueued-slot",
                    f"run finished while a lane was parked on slot {s}, "
                    f"which lies inside the enqueued range "
                    f"[0, {self.enq_next})",
                )
        if self.growable and self._seg_unlinked_stores:
            seg, slot = next(iter(self._seg_unlinked_stores.items()))
            self._fail(
                "store-unlinked-segment",
                f"slot {slot} was stored into logical segment {seg}, "
                "which was never linked to a pool segment",
            )
        if self.spillable:
            leftover = +self.pending_spill
            if leftover:
                tok, cnt = next(iter(leftover.items()))
                self._fail(
                    "spill-never-reinjected",
                    f"{sum(leftover.values())} dead-dropped token(s) "
                    f"never re-published from the overflow ring, e.g. "
                    f"token {tok} (x{cnt})",
                )
        if memory is not None:
            ctrl = memory[self.queue.buf_ctrl]
            if int(ctrl[REAR]) != self.enq_next:
                self._fail(
                    "rear-mismatch",
                    f"final Rear={int(ctrl[REAR])} but "
                    f"{self.enq_next} slots were reserved",
                )
            if int(ctrl[FRONT]) != self.deq_next:
                self._fail(
                    "front-mismatch",
                    f"final Front={int(ctrl[FRONT])} but "
                    f"{self.deq_next} slots were reserved",
                )
            data = memory[self.queue.buf_data]
            stale = np.flatnonzero(data != DNA)
            if self.retry_free and stale.size:
                self._fail(
                    "dna-not-restored",
                    f"{stale.size} slot(s) not restored to the dna "
                    f"sentinel at quiescence, e.g. physical slot "
                    f"{int(stale[0])} holding {int(data[stale[0]])}",
                )
            valid_name = getattr(self.queue, "buf_valid", None)
            if valid_name is not None:
                # a released slot holds its generation's (negative)
                # release tag; a positive flag was published and never
                # collected
                valid = memory[valid_name]
                up = np.flatnonzero(valid > 0)
                if up.size:
                    self._fail(
                        "valid-not-cleared",
                        f"{up.size} valid flag(s) still set at "
                        f"quiescence, e.g. physical slot {int(up[0])}",
                    )
            if self.spillable:
                ring = memory[self.queue.buf_spill_toks]
                stale = np.flatnonzero(ring != DNA)
                if stale.size:
                    self._fail(
                        "spill-ring-leak",
                        f"{stale.size} overflow-ring entr(ies) not "
                        f"restored to the dna sentinel at quiescence, "
                        f"e.g. entry {int(stale[0])} holding "
                        f"{int(ring[stale[0]])}",
                    )

    # ------------------------------------------------------------------
    @property
    def n_lane_delivered(self) -> int:
        """Tokens handed to dequeuing lanes (single queue: all of them)."""
        return len(self.delivered)

    def delivered_token_counts(self) -> Counter:
        """Multiset of token values handed to lanes (differential tests
        compare this across variants: same workload, same multiset)."""
        return Counter(self.delivered.values())

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line progress digest (used to diagnose hung runs)."""
        return (
            f"enq_reserved={self.enq_next} stored={len(self.stored)} "
            f"deq_reserved={self.deq_next} delivered={len(self.delivered)} "
            f"parked={len(self.watched)} events={self.events}"
        )


class MultiQueueOracle(Probe):
    """The sharded-queue specification: per-shard FIFO + transfer legality.

    Wraps one :class:`InvariantOracle` per shard of a
    :class:`~repro.core.queue_sharded.ShardedQueue` or of a
    :class:`~repro.ext.distributed.DistributedWorkQueues` — every
    per-shard invariant of the sequential spec keeps holding verbatim
    inside each shard — and layers the cross-shard rules of SHARDED's
    steal protocol on top (a DIST steal is a plain dequeue at the
    victim, so no transfer ever fires):

    * a transfer may only move slots the thief dequeue-reserved at the
      victim (``steal-unreserved-slot``), carrying exactly the tokens
      stored there (``steal-token-mismatch``), and no source slot is
      ever transferred twice (``steal-double-transfer``);
    * every announced transfer must land: the destination slots it
      reserved receive exactly the transferred tokens by quiescence
      (``steal-transfer-incomplete`` / ``steal-transfer-corrupted``);
    * conservation across shards: transfers cancel out, so the tokens
      delivered to *lanes* (per-shard deliveries minus transfer
      consumptions) equal the workload's ground truth — exposed via
      :attr:`n_lane_delivered` / :meth:`delivered_token_counts`, which
      the scenario runner checks against the expected totals.

    The per-shard ordering argument is unchanged from
    :class:`InvariantOracle`: a thief announces ``queue_steal``
    *between* its destination-side reservation and the victim-side
    delivery, all inside one generator resume, so the transfer
    classification can never race with the events it classifies.
    """

    def __init__(self, queue):
        self.queue = queue
        self.shards: Dict[str, InvariantOracle] = {
            sh.prefix: InvariantOracle(sh) for sh in queue.shards
        }
        #: (src_prefix, src_raw_slot) ever transferred out.
        self._transferred: Set[Tuple[str, int]] = set()
        #: (dst_prefix, dst_raw_slot) -> token expected to land there.
        self._expected_store: Dict[Tuple[str, int], int] = {}
        #: multiset of tokens currently announced as transfers (their
        #: victim-side delivery is a transfer, not a lane consumption).
        self._transfer_tokens: Counter = Counter()
        #: cross-shard transfer events checked here (not in sub-oracles).
        self._own_events = 0

    # -- bookkeeping shared with the scenario runner -------------------
    @property
    def events(self) -> int:
        return self._own_events + sum(o.events for o in self.shards.values())

    @property
    def n_lane_delivered(self) -> int:
        total = sum(len(o.delivered) for o in self.shards.values())
        return total - len(self._transferred)

    def delivered_token_counts(self) -> Counter:
        counts: Counter = Counter()
        for o in self.shards.values():
            counts.update(o.delivered.values())
        counts.subtract(self._transfer_tokens)
        return +counts

    def note_seed(self, tokens) -> None:
        """Split the host seed round-robin, exactly as
        :meth:`repro.core.queue_sharded.ShardedQueue.seed` does."""
        toks = list(tokens)
        n = len(self.queue.shards)
        for i, sh in enumerate(self.queue.shards):
            self.shards[sh.prefix].note_seed(toks[i::n])

    def _fail(self, invariant: str, detail: str) -> None:
        raise VerificationError(
            invariant,
            f"{self.queue.variant} queue {self.queue.prefix!r}: {detail}",
        )

    # -- per-shard event dispatch --------------------------------------
    def queue_register(self, prefix, capacity, variant) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_register(prefix, capacity, variant)

    def queue_counter(self, prefix, name, cycle, value) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_counter(prefix, name, cycle, value)

    def queue_reserve(self, prefix, direction, base, count) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_reserve(prefix, direction, base, count)

    def queue_watch(self, prefix, slots, cycle) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_watch(prefix, slots, cycle)

    def queue_store(self, prefix, slots, values) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_store(prefix, slots, values)

    def queue_deliver(self, prefix, slots, tokens) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_deliver(prefix, slots, tokens)

    def queue_segment_link(self, prefix, logical_seg, phys_seg, cycle) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_segment_link(prefix, logical_seg, phys_seg, cycle)

    def queue_segment_release(self, prefix, logical_seg, phys_seg) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_segment_release(prefix, logical_seg, phys_seg)

    def queue_spill(self, prefix, tokens) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_spill(prefix, tokens)

    def queue_reinject(self, prefix, slots, tokens) -> None:
        o = self.shards.get(prefix)
        if o is not None:
            o.queue_reinject(prefix, slots, tokens)

    # -- the cross-shard rules -----------------------------------------
    def queue_steal(
        self, src_prefix, dst_prefix, src_slots, dst_base, tokens
    ) -> None:
        self._own_events += 1
        src = self.shards.get(src_prefix)
        dst = self.shards.get(dst_prefix)
        if src is None or dst is None:
            self._fail(
                "steal-unknown-shard",
                f"transfer between {src_prefix!r} and {dst_prefix!r}, at "
                f"least one of which is not a shard of this queue",
            )
        if src_prefix == dst_prefix:
            self._fail(
                "steal-self-transfer",
                f"shard {src_prefix!r} announced a transfer to itself",
            )
        arr = np.asarray(src_slots, dtype=np.int64).reshape(-1)
        toks = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if toks.size != arr.size:
            self._fail(
                "steal-shape-mismatch",
                f"{arr.size} source slots but {toks.size} tokens",
            )
        dst_base = int(dst_base)
        for i, (s, t) in enumerate(zip(arr, toks)):
            s, t = int(s), int(t)
            if (src_prefix, s) in self._transferred:
                self._fail(
                    "steal-double-transfer",
                    f"source slot {s} of shard {src_prefix!r} transferred "
                    "twice: the batch was duplicated",
                )
            if s not in src.deq_reserved:
                self._fail(
                    "steal-unreserved-slot",
                    f"source slot {s} of shard {src_prefix!r} transferred "
                    "without a dequeue-side claim on the victim's Front",
                )
            want = src.stored.get(s)
            if want is None or want != t:
                self._fail(
                    "steal-token-mismatch",
                    f"transfer carries token {t} from slot {s} of shard "
                    f"{src_prefix!r} but "
                    + ("nothing" if want is None else f"{want}")
                    + " was stored there",
                )
            self._transferred.add((src_prefix, s))
            self._transfer_tokens[t] += 1
            key = (dst_prefix, dst_base + i)
            if key in self._expected_store:
                self._fail(
                    "steal-double-transfer",
                    f"destination slot {dst_base + i} of shard "
                    f"{dst_prefix!r} targeted by two transfers",
                )
            self._expected_store[key] = t

    # -- quiescence ----------------------------------------------------
    def finish(self, memory=None) -> None:
        # transfer completeness first: it localizes a steal-path bug
        # more precisely than the per-shard conservation audits below.
        for (dst_prefix, slot), tok in sorted(self._expected_store.items()):
            got = self.shards[dst_prefix].stored.get(slot)
            if got is None:
                self._fail(
                    "steal-transfer-incomplete",
                    f"transfer reserved slot {slot} of shard "
                    f"{dst_prefix!r} for token {tok} but the store never "
                    "landed (token lost in transit)",
                )
            if got != tok:
                self._fail(
                    "steal-transfer-corrupted",
                    f"transfer put {got} into slot {slot} of shard "
                    f"{dst_prefix!r}, expected {tok}",
                )
        for o in self.shards.values():
            o.finish(memory)

    def summary(self) -> str:
        parts = [
            f"{prefix}: {o.summary()}" for prefix, o in self.shards.items()
        ]
        parts.append(
            f"transfers={len(self._transferred)} "
            f"pending_landings={len(self._expected_store)}"
        )
        return " | ".join(parts)
