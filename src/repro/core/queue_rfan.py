"""RF/AN — the paper's retry-free, arbitrary-n concurrent queue (§4).

Dequeue (Listing 1 + Listing 2)
    Hungry lanes agree on relative indices with a wavefront-local
    aggregation (the lock-step ``atomic_inc`` on ``lQueueSlotsNeeded``);
    the proxy lane then advances ``Front`` by the hungry count with a
    single **atomic fetch-add** — which cannot fail — and every hungry
    lane is parked on a unique slot.  From then on the lane checks its
    slot with one plain (non-atomic) global read per work cycle until the
    ``dna`` sentinel is replaced by a token.  The queue-empty exception
    has been *refactored into a memory poll*: no retry of any queue
    operation ever happens.

Enqueue (Listing 3)
    Lanes aggregate their newly-discovered token counts locally; the
    proxy advances ``Rear`` once by the total; lanes then copy their
    tokens into their reserved slots in lock-step, verifying each target
    slot still holds the sentinel.  A non-sentinel target is a queue-full
    exception, which **aborts the kernel** (capacity is a host planning
    decision, not something the device can fix by spinning).

Cost profile per wavefront work cycle: one local aggregation + *at most
one* global atomic for dequeue and one for enqueue, independent of how
many entries move — the arbitrary-n property.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable

import numpy as np

from repro.simt import (
    Abort,
    AtomicKind,
    AtomicRMW,
    KernelContext,
    LocalOp,
    MemRead,
    MemWrite,
    Op,
)
from repro.simt.engine import transactions_for
from repro.simt.lanes import segmented_rank

from .constants import DNA, FRONT, REAR
from .queue_api import (
    DeviceQueue,
    IdleCycle,
    K_ARRIVAL_CHECKS,
    K_DEQ_TOKENS,
    K_ENQ_TOKENS,
    K_PROXY_ATOMICS,
)
from .state import WavefrontQueueState


class RetryFreeQueue(DeviceQueue):
    """The proposed retry-free / arbitrary-n queue.

    The protocol is four steps, each implemented once and reused by the
    adaptive, sharded and planted-bug variants: :meth:`_reserve`
    (Listing 1), :meth:`_take` (Listing 2's grant and ``dna`` restore),
    :meth:`_advance` (the proxy fetch-add of Listings 1 and 3) and
    :meth:`_store` (Listing 3's sentinel-checked store).  ``acquire``
    reserves slots for hungry lanes, then polls.  The polls run every
    work cycle of every starved wavefront, and a wavefront whose polls
    stay elided parks on them (:meth:`idle_cycle`).  Each poll is
    followed by one step, :meth:`_after_map` after the map poll and
    :meth:`after_poll` after the data poll, which the persistent kernel
    also runs when a parked wavefront's poll sees a store.

    Storage is a flat ring behind the hooks :meth:`_poll_cache`,
    :meth:`_remapped`, :meth:`_map` and :meth:`_slots`, which GROW's
    segment-chained storage overrides.
    """

    variant = "RF/AN"
    retry_free = True
    arbitrary_n = True

    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        probe = ctx.probe
        if probe is not None and self._registered is not ctx.stats:
            self._register(ctx)

        # --- Listing 1: slot reservation for newly hungry lanes --------
        n_hungry = st.wavefront_size - st.n_token - st.n_watching
        if n_hungry:
            yield from self._reserve(ctx, st, n_hungry)

        # --- Listing 2: data-arrival poll for every watching lane ------
        if st.n_watching == 0:
            return
        # the watch set only changes on reservation/grant, so the lane,
        # address and transaction arrays — and the poll op itself, whose
        # result the engine refills at each completion — are cached
        # between polls: this poll runs every work cycle of every starved
        # wavefront.
        cache = st.cache
        if cache is None:
            st.cache = cache = self._poll_cache(ctx, st)
        if cache[4] is not None:
            # mapped storage polls its map first
            yield cache[4]
        yield from self._after_map(ctx, st)

    def _after_map(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        """Listing 2 after the map poll (``st.cache[4]``) completed, or
        from the start for storage without a map: while the map changed
        under the watched slots, rebuild the poll set and poll the new
        map; then the data-arrival poll and :meth:`after_poll`."""
        cache = st.cache
        while cache[4] is not None and self._remapped(ctx, cache):
            st.cache = cache = self._poll_cache(ctx, st)
            st.idle = None
            if cache[4] is not None:
                yield cache[4]
        if cache[3] == 0:
            # no monitored slot has storage (yet, or ever when winding
            # down past the bound): no data can arrive there.
            return
        probe = ctx.probe
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "dna_spin", self.prefix)
        yield cache[2]
        yield from self.after_poll(ctx, st)

    def idle_cycle(
        self, ctx: KernelContext, st: WavefrontQueueState, calls: bool
    ) -> IdleCycle | None:
        # idle with every lane watching: the next acquire reserves
        # nothing and re-yields the cached polls, the map poll while a
        # watched segment is unmapped, then the data poll of the mapped
        # slots.  A flat ring parks only when every slot is in bounds.
        known = st.idle
        if known is not None and self in known:
            return known[self]
        cache = st.cache
        wf_size = st.wavefront_size
        if cache is None or st.n_watching != wf_size:
            return None
        map_poll, n = cache[4], cache[3]
        if map_poll is None:
            if n != wf_size:
                return None
            reads, steps = (cache[2],), (self.after_poll,)
        elif n:
            reads = (map_poll, cache[2])
            steps = (self._after_map, self.after_poll)
        else:
            reads, steps = (map_poll,), (self._after_map,)
        k = len(reads)
        custom = ctx.stats.custom

        def fold(r: int) -> None:
            # the data poll ends each cycle; it ran step by step before
            # this park, so its counter exists
            if n:
                custom[K_ARRIVAL_CHECKS] += r // k * n

        if calls:
            probe = ctx.probe
            wf_id = ctx.wf_id
            prefix = self.prefix

            def spin() -> None:
                probe.wf_phase(wf_id, "dna_spin", prefix)

            def empty() -> None:
                probe.queue_instant(prefix, "empty_poll", probe.now, n)

            calls = (None,) * (k - 1) + (spin, empty) if n else (None, None)
        else:
            calls = None
        if known is None:
            known = st.idle = {}
        idle = known[self] = IdleCycle(
            reads, k, steps, fold, ("dna_spin", self.prefix), calls
        )
        return idle

    def after_poll(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Iterable[Op]:
        """Listing 2 after the cached data-arrival poll (``st.cache``)
        completed: count the checks, and return the ops that grant what
        arrived, for the caller to ``yield from`` (none, and no
        generator, on the common empty poll)."""
        cache = st.cache
        read = cache[2]
        n_lanes = cache[3]
        ctx.stats.custom[K_ARRIVAL_CHECKS] += n_lanes
        # An elided re-sample (read.fresh False) means no store hit the
        # slot array since the previous poll, and a cached poll op only
        # survives polls that granted nothing — so the previous verdict
        # (no arrivals) still holds without any reduction.  Otherwise:
        # task tokens are non-negative and DNA is the smallest sentinel,
        # so max(slots) == DNA means no data arrived — one reduction in
        # the common empty poll instead of a compare plus an any().
        if not read.fresh or int(read.result.max()) == DNA:
            probe = ctx.probe
            if probe is not None:
                probe.queue_instant(self.prefix, "empty_poll", probe.now, n_lanes)
            return ()
        return self._granted(ctx, st, cache[0], cache[1], read.result)

    def _granted(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        lanes: np.ndarray,
        phys: np.ndarray,
        res: np.ndarray,
    ) -> Iterable[Op]:
        """The ops a poll that saw arrivals runs: :meth:`_take`."""
        return self._take(ctx, st, lanes, phys, res)

    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        counts = np.asarray(counts, dtype=np.int64)
        has_new = counts > 0
        if not has_new.any():
            return

        # --- Listing 3 lines 2-11: local aggregation of counts ---------
        probe = self._probe(ctx)
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        ranks, total = segmented_rank(has_new, counts)
        yield LocalOp(ctx.device.lds_op_cycles)

        # --- line 15: proxy reserves `total` entries with one AFA ------
        base = yield from self._advance(ctx, REAR, total)
        yield from self._map(ctx, base, total)

        # --- lines 24-27: lock-step copy, one sub-iteration per token
        # rank within the busiest lane.
        max_count = int(counts.max())
        lane_base = base + ranks
        for t in range(max_count):
            active = counts > t
            raw = lane_base[active] + t
            oob = ~self._in_bounds(raw)
            if oob.any():
                # enqueue must never store out of bounds (§4.3); a
                # monotonic queue that ran past capacity is full.
                x = int(raw[oob][0])
                yield self._full(
                    f"raw index {x} beyond capacity {self.capacity} "
                    f"(fill {x}/{self.capacity})",
                    x,
                )
            yield from self._store(
                ctx, raw, self._slots(ctx, raw), tokens[active, t],
                self._ring_full,
            )
        ctx.stats.custom[K_ENQ_TOKENS] += int(total)

    # ------------------------------------------------------------------
    # storage: a flat ring; segment-chained storage (GROW) overrides these
    # ------------------------------------------------------------------
    def _poll_cache(self, ctx: KernelContext, st: WavefrontQueueState) -> tuple:
        """The cached poll set ``(lanes, phys, poll, n_lanes, map_poll)``:
        the watching lanes whose slots have storage, their physical
        slots, the data poll of those slots, the lane count, and the
        poll of the storage map that ``acquire`` yields first (None for
        a flat ring, which has no map)."""
        lanes, raw = self._watched(st)
        read = self._poll_read(self.buf_data, self._slots(ctx, raw))
        return (lanes, read.index, read, int(lanes.size), None)

    def _remapped(self, ctx: KernelContext, cache: tuple) -> bool:
        """Whether the map poll ``cache[4]`` saw the map change."""
        return False

    def _map(self, ctx: KernelContext, base: int, n: int) -> Iterable[Op]:
        """The ops that give storage to the ``n`` raw slots reserved at
        ``base`` on Rear, run between the fetch-add and the stores."""
        return ()

    def _slots(self, ctx: KernelContext, raw: np.ndarray) -> np.ndarray:
        """The physical slots of ``raw`` as this wavefront sees them."""
        return self._phys(raw)

    # ------------------------------------------------------------------
    # protocol steps
    # ------------------------------------------------------------------
    def _watched(self, st: WavefrontQueueState) -> tuple:
        """``(lanes, raw)``: the watching lanes whose slots address real
        storage (Listing 2 line 3), and those raw slots."""
        watching = st.slot >= 0
        raw = st.slot[watching]
        inb = self._in_bounds(raw)
        return np.flatnonzero(watching)[inb], raw[inb]

    @staticmethod
    def _poll_read(buf: str, index) -> MemRead:
        """A cached, prechecked poll of ``buf[index]``.  The index is
        frozen: the watch set never changes while the op is cached
        (MemRead hot-loop contract), which also lets the engine reuse its
        span across re-issues."""
        index = np.asarray(index, dtype=np.int64)
        index.setflags(write=False)
        trans = transactions_for(index) if index.size else 0
        return MemRead(buf, index, trans=trans, prechecked=True)

    def _reserve(
        self, ctx: KernelContext, st: WavefrontQueueState, n_hungry: int
    ) -> Generator[Op, Op, None]:
        """Listing 1: park every hungry lane on its own fresh slot."""
        # lock-step local atomic_inc: zeroing by the proxy + per-lane
        # increment, one LDS round (lines 2-9 of Listing 1).
        hungry, ranks, total = yield from self._aggregate(ctx, st, n_hungry)
        # proxy thread reserves `total` slots with one AFA (line 13).
        base = yield from self._advance(ctx, FRONT, total)
        lanes = np.flatnonzero(hungry)
        st.watch(lanes, base + ranks[lanes])
        probe = ctx.probe
        if probe is not None:
            probe.queue_watch(self.prefix, base + ranks[lanes], probe.now)

    def _advance(
        self, ctx: KernelContext, word: int, n: int
    ) -> Generator[Op, Op, int]:
        """The proxy lane's fetch-add of ``n`` on control ``word``
        (``Front``: Listing 1 line 13; ``Rear``: Listing 3 line 15).  It
        cannot fail; returns the first reserved raw index."""
        op = AtomicRMW(self.buf_ctrl, word, AtomicKind.ADD, n)
        yield op
        ctx.stats.custom[K_PROXY_ATOMICS] += 1
        base = int(op.old[0])
        if ctx.probe is not None:
            self._announce(ctx, word, base, n)
        return base

    def _take(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        lanes: np.ndarray,
        phys: np.ndarray,
        res: np.ndarray,
    ) -> Generator[Op, Op, np.ndarray]:
        """Listing 2's grant: watching ``lanes`` (polling slots ``phys``,
        which read ``res``) whose token arrived pick it up and put the
        ``dna`` sentinel back, so the slot can be reused when the queue
        is circular (§4.2).  Returns the granted raw slots.

        The probe events fire at the restore write's issue, i.e.
        strictly before any later wrap-around producer can observe the
        restored sentinel — the ordering the verification oracle relies
        on.
        """
        arrived = res != DNA
        got_lanes = lanes[arrived]
        tokens = res[arrived]
        raw = st.slot[got_lanes]
        probe = ctx.probe
        if probe is not None:
            probe.queue_grant(self.prefix, raw, probe.now)
            probe.queue_deliver(self.prefix, raw, tokens)
        yield MemWrite(self.buf_data, phys[arrived], DNA)
        st.unwatch(got_lanes)
        st.grant(got_lanes, tokens)
        ctx.stats.custom[K_DEQ_TOKENS] += int(got_lanes.size)
        return raw

    def _store(
        self,
        ctx: KernelContext,
        raw: np.ndarray,
        phys,
        vals: np.ndarray,
        taken: Callable[[np.ndarray], Abort],
        reinject: bool = False,
    ) -> Generator[Op, Op, None]:
        """Listing 3 lines 25-27: check that every target slot (raw
        indices ``raw`` at physical ``phys``) still holds the sentinel,
        then store ``vals``.  A slot holding data is a queue-full
        exception that aborts the kernel with ``taken(raw_of_bad)``.
        ``reinject`` reports the store as a spill re-publication."""
        check = MemRead(self.buf_data, phys)
        yield check
        bad = check.result != DNA
        if bad.any():
            yield taken(raw[bad])
        probe = ctx.probe
        if probe is not None:
            if reinject:
                probe.queue_reinject(self.prefix, raw, vals)
            probe.queue_store(self.prefix, raw, vals)
        yield MemWrite(self.buf_data, phys, vals)

    def _ring_full(self, bad: np.ndarray) -> Abort:
        # the overwritten slot still holds live data, so the physical
        # ring is at capacity.
        return self._full(
            f"target slot not data-not-arrived (Listing 3 line 25; ring "
            f"fill {self.capacity}/{self.capacity})",
            self.capacity,
        )
