"""Adaptive-capacity RF/AN variants: GROW and SPILL (graceful capacity).

The paper's queues treat capacity as a host planning decision: running
out aborts the kernel (Listing 3 line 25, §4.3).  A scheduler serving
real traffic cannot afford that, so this module layers two graceful
capacity modes over the RF/AN reservation protocol without touching its
retry-free core — Front/Rear still advance by single never-failing
fetch-adds, lanes still park on private slots, and no queue operation is
ever retried.

:class:`GrowQueue` (variant ``GROW``)
    A segment-chained buffer in the style of segment-recycling bounded
    queues (Aksenov et al., "Memory Bounds for Concurrent Bounded
    Queues").  The logical index space is unbounded; physical storage is
    a statically allocated pool of fixed-size segments (GPUs cannot
    malloc mid-kernel, §3.1).  A write-once *segment map* translates
    logical segments to pool segments.  When Rear crosses into an
    unmapped logical segment, the publishing wavefront claims a free
    pool segment and installs it with a **single never-retried CAS**:
    losing the race is not an error — the loser adopts the winner's
    mapping straight from the CAS result and returns its claimed segment
    to the free list.  Consumers recycle: once every slot of a logical
    segment has been delivered (tracked by one batched fetch-add on a
    per-segment drain counter), the pool segment is released for reuse,
    so steady-state memory stays bounded by the pool while total
    throughput is unbounded.

:class:`SpillQueue` (variant ``SPILL``)
    Backpressure over a circular RF/AN ring.  A producer whose batch
    would push the ring past a high-water mark does not abort — and
    does not take the Rear reservation it normally would: it
    *dead-drops* the batch's tokens into a side overflow ring and moves
    on.  A *drain pump*, run from ``acquire`` (which the persistent
    scheduler calls every work cycle), re-publishes spilled tokens
    through the ordinary Rear path once the ring's fill estimate falls
    below a low-water mark, in FIFO order under a pump lock.  Dropping
    the *reservation* (not just the store) is what keeps the ring
    sound: every Rear slot is still filled promptly, so no watcher can
    be parked on an empty slot long enough for a second watcher to wrap
    onto the same physical slot (the §4.2 constraint).  Degrade-don't-
    die is the cooperative-kernels posture (Sorensen et al.):
    oversubscription costs latency, not the kernel.

Both variants surface their activity through ``queue.grow.*`` /
``queue.spill.*`` stat counters and the probe callbacks
``queue_segment_link`` / ``queue_segment_release`` / ``queue_spill`` /
``queue_reinject``, which the verification oracle uses to check segment
hand-off and spill/re-inject legality (see ``repro.verify.oracle``).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

import numpy as np

from repro.simt import (
    Abort,
    AtomicKind,
    AtomicRMW,
    GlobalMemory,
    KernelContext,
    MemRead,
    MemWrite,
    Op,
)
from repro.simt.engine import transactions_for

from .constants import DNA, REAR
from .queue_api import (
    DeviceQueue,
    K_ENQ_TOKENS,
    QueueFull,
    queue_full,
)
from .queue_rfan import RetryFreeQueue
from .state import WavefrontQueueState

# adaptive-capacity counters (reported next to the queue.* family)
K_GROW_LINKS = "queue.grow.segment_links"        # segment-map CAS wins
K_GROW_LINK_LOSSES = "queue.grow.link_losses"    # CAS losses (adopted winner)
K_GROW_RELEASES = "queue.grow.segment_releases"  # drained segments recycled
K_GROW_PEAK_LIVE = "queue.grow.peak_live_segments"
K_SPILL_TOKENS = "queue.spill.tokens"            # dead-dropped enqueues
K_SPILL_REINJECTED = "queue.spill.reinjected"    # re-published by the pump
K_SPILL_PUMP_RUNS = "queue.spill.pump_runs"      # pump lock acquisitions
K_SPILL_PEAK_DEPTH = "queue.spill.peak_depth"    # overflow-ring high water

# spill-ring control words
SP_HEAD = 0
SP_TAIL = 1
SP_LOCK = 2


class GrowQueue(RetryFreeQueue):
    """Segment-chained RF/AN queue with a recycling free-list.

    It runs :class:`RetryFreeQueue`'s protocol over its own storage
    hooks, and recycles drained segments on the grant (``_granted``).

    Parameters
    ----------
    capacity:
        Physical pool size in slots (the memory footprint), rounded up
        to a whole number of segments.  Unlike the bare variants this is
        *not* a throughput limit: logical indices run to
        ``max_segments * seg_cap``.
    seg_cap:
        Slots per segment (default: ``capacity // pool_segments``).
    pool_segments:
        Number of pool segments when ``seg_cap`` is not given.
    max_segments:
        Logical segment-map length; a generous default bounds the map
        buffer without practically limiting throughput.
    """

    variant = "GROW"
    growable = True

    def __init__(
        self,
        capacity: int,
        prefix: str = "wq",
        circular: bool = False,
        *,
        seg_cap: int | None = None,
        pool_segments: int = 4,
        max_segments: int | None = None,
    ):
        if circular:
            raise ValueError(
                "GROW is monotonic by construction (recycling replaces "
                "wrap-around); circular=True is not supported"
            )
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if seg_cap is None:
            if pool_segments <= 0:
                raise ValueError("pool_segments must be positive")
            seg_cap = max(1, -(-capacity // pool_segments))
        else:
            if seg_cap <= 0:
                raise ValueError("seg_cap must be positive")
            pool_segments = max(1, -(-capacity // seg_cap))
        super().__init__(seg_cap * pool_segments, prefix, circular=False)
        self.seg_cap = int(seg_cap)
        self.pool_segments = int(pool_segments)
        if max_segments is None:
            max_segments = max(64, self.pool_segments * 64)
        if max_segments < self.pool_segments:
            raise ValueError("max_segments must cover the pool")
        self.max_segments = int(max_segments)
        #: logical index space — the oracle bounds stores by this, not
        #: by the physical pool size.
        self.logical_capacity = self.max_segments * self.seg_cap
        self.buf_segmap = f"{prefix}.segmap"
        self.buf_segstate = f"{prefix}.segstate"
        self.buf_segdrain = f"{prefix}.segdrain"
        self._wf_segmap: dict = {}
        self._host_mapped: List[Tuple[int, int]] = [(0, 0)]
        self._live_segments = 1
        self._peak_live = 1
        idx = np.arange(self.pool_segments, dtype=np.int64)
        idx.setflags(write=False)
        self._segstate_idx = idx
        self._segstate_trans = transactions_for(idx)

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        super().allocate(memory)
        memory.alloc(self.buf_segmap, self.max_segments, fill=-1)
        memory.mark_hot(self.buf_segmap)
        memory.alloc(self.buf_segstate, self.pool_segments, fill=0)
        memory.alloc(self.buf_segdrain, self.max_segments, fill=0)
        # logical segment 0 is pre-mapped so seeding and the first
        # enqueue need no device-side link.
        memory[self.buf_segmap][0] = 0
        memory[self.buf_segstate][0] = 1
        self._wf_segmap.clear()
        self._host_mapped = [(0, 0)]
        self._live_segments = 1
        self._peak_live = 1

    def _host_map(self, memory: GlobalMemory, logical: int) -> int:
        """Host-side segment link for seeding (mirrors the device CAS)."""
        segmap = memory[self.buf_segmap]
        if segmap[logical] >= 0:
            return int(segmap[logical])
        segstate = memory[self.buf_segstate]
        free = np.flatnonzero(np.asarray(segstate) == 0)
        if free.size == 0:
            raise QueueFull(
                f"seed overflows the segment pool "
                f"({self.pool_segments} x {self.seg_cap} slots)"
            )
        phys = int(free[0])
        segstate[phys] = 1
        segmap[logical] = phys
        self._host_mapped.append((logical, phys))
        self._live_segments += 1
        self._peak_live = max(self._peak_live, self._live_segments)
        return phys

    def _seed_slot(self, memory: GlobalMemory, raw: int) -> int:
        seg, off = divmod(raw, self.seg_cap)
        return self._host_map(memory, seg) * self.seg_cap + off

    def _host_slot(self, memory: GlobalMemory, raw: int) -> int | None:
        seg, off = divmod(raw, self.seg_cap)
        phys_seg = int(memory[self.buf_segmap][seg])
        return None if phys_seg < 0 else phys_seg * self.seg_cap + off

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _in_bounds(self, raw: np.ndarray) -> np.ndarray:
        # bounded by the logical index space, not the physical pool.
        return raw < self.logical_capacity

    def _segcache(self, wf_id: int) -> np.ndarray:
        cache = self._wf_segmap.get(wf_id)
        if cache is None:
            cache = np.full(self.max_segments, -1, dtype=np.int64)
            for logical, phys in self._host_mapped:
                cache[logical] = phys
            self._wf_segmap[wf_id] = cache
        return cache

    # ------------------------------------------------------------------
    # kernel side: segment plumbing
    # ------------------------------------------------------------------
    def _claim_free_segment(
        self, ctx: KernelContext
    ) -> Generator[Op, Op, int]:
        """Pop one free pool segment (scan + CAS, bounded tries).

        This is a free-list pop, not a queue operation: the RF/AN
        retry-free property concerns Front/Rear arbitration and is
        untouched.  The scan is bounded; a pool with no free segment is
        a *graceful* queue-full — consumption has not kept up with the
        pool size, which remains a host planning decision.
        """
        for _ in range(self.pool_segments):
            scan = MemRead(
                self.buf_segstate,
                self._segstate_idx,
                trans=self._segstate_trans,
                prechecked=True,
            )
            yield scan
            free = np.flatnonzero(scan.result == 0)
            if free.size == 0:
                yield self._full(
                    f"segment pool exhausted ({self.pool_segments} "
                    f"segments x {self.seg_cap} slots live, none drained)",
                    self.capacity,
                )
            claim = AtomicRMW(
                self.buf_segstate, int(free[0]), AtomicKind.CAS, 0, 1
            )
            yield claim
            if bool(claim.success[0]):
                return int(free[0])
        yield self._full(
            f"segment pool contended out ({self.pool_segments} claim "
            f"rounds lost)",
            self.capacity,
        )
        raise AssertionError("unreachable")  # pragma: no cover

    def _link_segments(
        self,
        ctx: KernelContext,
        segcache: np.ndarray,
        first_seg: int,
        last_seg: int,
    ) -> Generator[Op, Op, None]:
        """Ensure logical segments ``first..last`` are mapped.

        The link itself is one CAS that is *never retried*: on a loss
        the winner's mapping rides back on the CAS result (``op.old``)
        and the loser's claimed pool segment goes straight back to the
        free list.
        """
        custom = ctx.stats.custom
        probe = ctx.probe
        if last_seg >= self.max_segments:
            yield self._full(
                f"segment map exhausted (logical segment {last_seg} >= "
                f"max_segments {self.max_segments})",
                last_seg * self.seg_cap,
                capacity=self.logical_capacity,
            )
        unknown = [
            s for s in range(first_seg, last_seg + 1) if segcache[s] < 0
        ]
        if not unknown:
            return
        # refresh this wavefront's view first: another wavefront may
        # have linked these segments already.
        idx = np.asarray(unknown, dtype=np.int64)
        look = MemRead(self.buf_segmap, idx)
        yield look
        segcache[idx] = look.result
        for s in unknown:
            if segcache[s] >= 0:
                continue
            phys = yield from self._claim_free_segment(ctx)
            link = AtomicRMW(self.buf_segmap, s, AtomicKind.CAS, -1, phys)
            yield link
            if bool(link.success[0]):
                segcache[s] = phys
                custom[K_GROW_LINKS] += 1
                self._live_segments += 1
                self._peak_live = max(self._peak_live, self._live_segments)
                custom[K_GROW_PEAK_LIVE] = self._peak_live
                if probe is not None:
                    probe.queue_segment_link(self.prefix, s, phys, probe.now)
            else:
                # lost the race: adopt the winner's mapping from the CAS
                # result and return our claimed segment to the pool.
                segcache[s] = int(link.old[0])
                custom[K_GROW_LINK_LOSSES] += 1
                yield MemWrite(self.buf_segstate, phys, 0)

    def _translate(self, segcache: np.ndarray, raw: np.ndarray) -> np.ndarray:
        seg, off = np.divmod(raw, self.seg_cap)
        return segcache[seg] * self.seg_cap + off

    # ------------------------------------------------------------------
    # kernel side: the storage hooks of the RF/AN protocol
    # ------------------------------------------------------------------
    def _poll_cache(self, ctx: KernelContext, st: WavefrontQueueState) -> tuple:
        # Watched slots fall in two classes: *mapped* (their logical
        # segment is linked in this wavefront's cached map — poll the
        # translated physical slot exactly like RF/AN) and *unmapped*
        # (the producer has not linked the segment yet — poll the
        # segment-map words instead; a non-negative value there means
        # the segment just got linked, see _remapped).  Both polls are
        # cached prechecked reads: the engine elides the re-sample unless
        # a store (or the link CAS — atomics bump the write epoch too)
        # touched the polled words.
        segcache = self._segcache(ctx.wf_id)
        lanes, raw = self._watched(st)
        segs = raw // self.seg_cap
        mapped = segcache[segs] >= 0
        lanes = lanes[mapped]
        read = self._poll_read(
            self.buf_data, self._translate(segcache, raw[mapped])
        )
        seg_read = None
        if (~mapped).any():
            seg_read = self._poll_read(self.buf_segmap, np.unique(segs[~mapped]))
        return (lanes, read.index, read, int(lanes.size), seg_read)

    def _remapped(self, ctx: KernelContext, cache: tuple) -> bool:
        seg_read = cache[4]
        if not seg_read.fresh:
            return False
        linked = seg_read.result >= 0
        self._segcache(ctx.wf_id)[seg_read.index[linked]] = seg_read.result[linked]
        return bool(linked.any())

    def _map(
        self, ctx: KernelContext, base: int, n: int
    ) -> Generator[Op, Op, None]:
        # growth: map every logical segment the reservation spans
        return self._link_segments(
            ctx, self._segcache(ctx.wf_id), base // self.seg_cap,
            (base + n - 1) // self.seg_cap,
        )

    def _slots(self, ctx: KernelContext, raw: np.ndarray) -> np.ndarray:
        return self._translate(self._segcache(ctx.wf_id), raw)

    def _granted(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        lanes: np.ndarray,
        phys: np.ndarray,
        res: np.ndarray,
    ) -> Generator[Op, Op, None]:
        # the RF/AN grant, then recycle the segments it drained
        raw_got = yield from self._take(ctx, st, lanes, phys, res)
        yield from self._recycle(ctx, self._segcache(ctx.wf_id), raw_got)

    def _recycle(
        self, ctx: KernelContext, segcache: np.ndarray, raw_got: np.ndarray
    ) -> Generator[Op, Op, None]:
        """Account deliveries per segment; release fully drained ones.

        One batched fetch-add covers every distinct segment in the
        arrival batch (array-index atomics are the arbitrary-n idiom).
        A segment whose drain counter reaches ``seg_cap`` is quiescent:
        the release write is ordered after this wavefront's sentinel
        restore (program order), and the drain AFAs of *other* consumers
        are ordered after theirs — so a later claimant can only see a
        fully restored segment.
        """
        custom = ctx.stats.custom
        probe = ctx.probe
        segs, counts = np.unique(raw_got // self.seg_cap, return_counts=True)
        drain = AtomicRMW(
            self.buf_segdrain, segs, AtomicKind.ADD, counts.astype(np.int64)
        )
        yield drain
        done = drain.old + counts == self.seg_cap
        if not done.any():
            return
        done_segs = segs[done]
        phys_segs = segcache[done_segs]
        custom[K_GROW_RELEASES] += int(done_segs.size)
        self._live_segments -= int(done_segs.size)
        if probe is not None:
            # fired at the release write's *issue*: the callback precedes
            # the write's memory effect, which precedes any claim CAS
            # that observes the freed state — so the oracle always sees
            # release-before-relink, free of cross-wavefront skew.
            for s, p in zip(done_segs, phys_segs):
                probe.queue_segment_release(self.prefix, int(s), int(p))
        yield MemWrite(self.buf_segstate, phys_segs, 0)

    def _ring_full(self, bad: np.ndarray) -> Abort:
        # a mapped slot below Rear can only be non-sentinel if the
        # recycle protocol broke: surface it, never overwrite.
        return queue_full(
            f"grow queue {self.prefix!r}: target slot not "
            f"data-not-arrived in a freshly mapped segment "
            f"(recycle protocol violation)",
            self.prefix, self.capacity, int(bad[0]),
        )


class SpillQueue(RetryFreeQueue):
    """Circular RF/AN ring with dead-drop backpressure and a drain pump.

    A publish whose batch would push the ring's fill estimate past
    ``high_water`` takes *no* Rear reservation: the whole batch is
    appended to the overflow ring instead.  The pump (run from
    ``acquire`` every work cycle) re-publishes spilled tokens through
    the normal Rear path — fresh reservation, sentinel check, store —
    once fill drops to ``low_water``, in FIFO order under a CAS lock.

    Dropping the reservation (not just the store) preserves the §4.2
    ring soundness argument: every reserved Rear slot is still filled
    promptly by its publisher, so the window in which a slot is
    reserved-but-empty stays short and bounded, exactly as in the bare
    circular RF/AN queue — ``capacity`` must still exceed the resident
    lane count plus the concurrent publish burst, but no longer needs
    to cover the workload's fill excursions: those spill.

    Parameters
    ----------
    capacity:
        Ring size.  Must exceed the number of resident lanes plus a
        publish-burst margin (same constraint as ``circular=True``
        RF/AN); bursts beyond ``high_water`` spill instead of aborting.
    spill_capacity:
        Overflow-ring entries (default ``max(64, 4 * capacity)``).
        Exhausting *this* is still a graceful queue-full abort.
    high_water:
        Projected fill above which a publish dead-drops
        (default ``3 * capacity // 4``).
    low_water:
        Fill at or below which the pump re-publishes
        (default ``capacity // 2``).
    pump_batch:
        Max tokens one pump run re-publishes (bounds the lock hold).
    """

    variant = "SPILL"
    spillable = True

    def __init__(
        self,
        capacity: int,
        prefix: str = "wq",
        circular: bool = True,
        *,
        spill_capacity: int | None = None,
        high_water: int | None = None,
        low_water: int | None = None,
        pump_batch: int = 8,
    ):
        # the ring is the whole point: SPILL is always circular.
        super().__init__(capacity, prefix, circular=True)
        if spill_capacity is None:
            spill_capacity = max(64, 4 * self.capacity)
        if spill_capacity <= 0:
            raise ValueError("spill_capacity must be positive")
        if high_water is None:
            high_water = 3 * self.capacity // 4
        if low_water is None:
            low_water = self.capacity // 2
        if not 0 < low_water <= high_water <= self.capacity:
            raise ValueError(
                f"need 0 < low_water <= high_water <= capacity, got "
                f"low={low_water} high={high_water} cap={self.capacity}"
            )
        if pump_batch <= 0:
            raise ValueError("pump_batch must be positive")
        self.spill_capacity = int(spill_capacity)
        self.high_water = int(high_water)
        self.low_water = int(low_water)
        self.pump_batch = int(pump_batch)
        self.buf_spill_toks = f"{prefix}.spill.toks"
        self.buf_spill_ctrl = f"{prefix}.spill.ctrl"
        self._spill_pending = 0
        self._peak_depth = 0

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        super().allocate(memory)
        # the token word doubles as the entry-valid flag: DNA means the
        # entry is claimed but not yet written (or already consumed), so
        # the pump never reads a half-published entry and wrap reuse is
        # safe without a separate flag array.
        memory.alloc(self.buf_spill_toks, self.spill_capacity, fill=DNA)
        memory.alloc(self.buf_spill_ctrl, 3, fill=0)
        self._spill_pending = 0
        self._peak_depth = 0

    def drain_host(self, memory: GlobalMemory) -> np.ndarray:
        resident = super().drain_host(memory)
        sctrl = memory[self.buf_spill_ctrl]
        toks = memory[self.buf_spill_toks]
        out = list(resident)
        for e in range(int(sctrl[SP_HEAD]), int(sctrl[SP_TAIL])):
            v = toks[e % self.spill_capacity]
            if v != DNA:
                out.append(int(v))
        return np.asarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # kernel side
    # ------------------------------------------------------------------
    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        # the persistent scheduler calls acquire every work cycle, which
        # makes it the natural pump hook: spilled work drains even when
        # every lane is parked waiting for exactly those tokens (at
        # wind-down Front overruns Rear, the fill estimate goes
        # negative, and any polling wavefront pumps).
        yield from self._pump(ctx)
        yield from super().acquire(ctx, st)

    #: never park: every idle cycle's acquire runs the pump first
    idle_cycle = DeviceQueue.idle_cycle

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
        probe = self._probe(ctx)
        total = int(counts.sum())
        fill_rd = self._read_ctrl()
        yield fill_rd
        front, rear = int(fill_rd.result[0]), int(fill_rd.result[1])
        if rear + total - front > self.high_water:
            # backpressure: dead-drop the whole batch — crucially
            # *before* taking any Rear reservation, so the ring never
            # carries a slot nobody is about to fill.
            flat = np.concatenate(
                [tokens[i, : counts[i]] for i in np.flatnonzero(has_new)]
            )
            yield from self._spill(ctx, flat)
            return
        # the unmodified RF/AN circular publish (Listing 3)
        yield from super().publish(ctx, st, counts, tokens)

    def _spill(
        self, ctx: KernelContext, vals: np.ndarray
    ) -> Generator[Op, Op, None]:
        custom = ctx.stats.custom
        probe = ctx.probe
        n = int(vals.size)
        head_rd = MemRead(self.buf_spill_ctrl, SP_HEAD)
        yield head_rd
        head = int(head_rd.result[0])
        claim = AtomicRMW(self.buf_spill_ctrl, SP_TAIL, AtomicKind.ADD, n)
        yield claim
        base = int(claim.old[0])
        depth = base + n - head
        # head only advances, so a stale read overestimates the depth:
        # if the estimate fits, the true depth fits.
        if depth > self.spill_capacity:
            yield self._full(
                f"spill ring exhausted ({depth} pending > spill_capacity "
                f"{self.spill_capacity}); the pump cannot keep up",
                depth,
                capacity=self.spill_capacity,
            )
        entries = (base + np.arange(n, dtype=np.int64)) % self.spill_capacity
        self._spill_pending += n
        self._peak_depth = max(self._peak_depth, depth)
        custom[K_SPILL_TOKENS] += n
        custom[K_SPILL_PEAK_DEPTH] = self._peak_depth
        if probe is not None:
            # fired at the entry write's *issue*: it precedes the write's
            # memory effect, which precedes any pump read that returns
            # these tokens — so the oracle always sees spill-before-
            # reinject for each token, free of cross-wavefront skew.
            probe.queue_spill(self.prefix, vals)
        yield MemWrite(self.buf_spill_toks, entries, vals)

    # -- drain pump -----------------------------------------------------
    def _gate_ok(self) -> bool:
        """Zero-op gate: don't even read fill when nothing is pending.

        ``_spill_pending`` mirrors (tail - head): both ends move exactly
        once per spilled/re-published token, so the mirror is eventually
        exact; staleness only delays a pump by a cycle, never loses one
        (acquire runs every work cycle until termination).
        """
        return self._spill_pending > 0

    def _pump(self, ctx: KernelContext) -> Generator[Op, Op, None]:
        if not self._gate_ok():
            return
        custom = ctx.stats.custom
        ctrl_rd = self._read_ctrl()
        yield ctrl_rd
        front, rear = int(ctrl_rd.result[0]), int(ctrl_rd.result[1])
        # reservations outpacing publishes drive the estimate negative —
        # which is exactly when re-publication helps most.  A near-full
        # overflow ring forces the pump regardless of fill.
        forced = self._spill_pending > self.spill_capacity - 2 * self.capacity
        if rear - front > self.low_water and not forced:
            return
        lock = AtomicRMW(self.buf_spill_ctrl, SP_LOCK, AtomicKind.CAS, 0, 1)
        yield lock
        if not bool(lock.success[0]):
            return  # someone else is pumping; no retry
        custom[K_SPILL_PUMP_RUNS] += 1
        hr = MemRead(
            self.buf_spill_ctrl,
            np.array([SP_HEAD, SP_TAIL], dtype=np.int64),
        )
        yield hr
        head, tail = int(hr.result[0]), int(hr.result[1])
        k = min(tail - head, self.pump_batch)
        if k <= 0:
            yield MemWrite(self.buf_spill_ctrl, SP_LOCK, 0)
            return
        entries = (head + np.arange(k, dtype=np.int64)) % self.spill_capacity
        tok_rd = MemRead(self.buf_spill_toks, entries)
        yield tok_rd
        toks = tok_rd.result
        # an entry still holding DNA was claimed but not yet written;
        # FIFO order stops the batch there (retried next cycle).
        unwritten = np.flatnonzero(toks == DNA)
        if unwritten.size:
            k = int(unwritten[0])
        if k > 0:
            toks = np.ascontiguousarray(toks[:k])
            yield from self._reinject(ctx, toks)
            yield from self._retire_entries(ctx, entries[:k], head + k)
            self._spill_pending -= k
            custom[K_SPILL_REINJECTED] += k
        yield MemWrite(self.buf_spill_ctrl, SP_LOCK, 0)

    def _reinject(
        self, ctx: KernelContext, toks: np.ndarray
    ) -> Generator[Op, Op, None]:
        """Re-publish spilled tokens through the ordinary Rear path."""
        k = int(toks.size)
        base = yield from self._advance(ctx, REAR, k)
        raw = base + np.arange(k, dtype=np.int64)
        yield from self._store(
            ctx, raw, self._phys(raw), toks, self._reinject_full,
            reinject=True,
        )
        ctx.stats.custom[K_ENQ_TOKENS] += k

    def _reinject_full(self, bad: np.ndarray) -> Abort:
        # fill was at or below low_water when the pump started; a target
        # can only be occupied if the ring is undersized for the
        # resident lanes — the same §4.2 abort as bare circular.
        return self._full(
            f"target slot not data-not-arrived during spill "
            f"re-publication (ring capacity {self.capacity} below "
            f"resident-lane demand)",
            self.capacity,
        )

    def _retire_entries(
        self, ctx: KernelContext, entries: np.ndarray, new_head: int
    ) -> Generator[Op, Op, None]:
        """Mark entries consumed and advance the ring head.

        Exclusive under the pump lock, so plain writes suffice; the
        lock-release write is ordered after them (program order), which
        is what makes the next holder's reads safe.  Split out so the
        fault-injection plant can model a crash *between* the token
        stores and the head advance (see ``repro.verify.faults``).
        """
        yield MemWrite(self.buf_spill_toks, entries, DNA)
        yield MemWrite(self.buf_spill_ctrl, SP_HEAD, new_head)
