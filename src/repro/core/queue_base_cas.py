"""BASE — a traditional lock-free, CAS-based concurrent queue (§5.3).

This is the ablation baseline with *neither* of the paper's properties:

* **No arbitrary-n** — every hungry lane runs its own dequeue, every
  produced token its own enqueue.  All those requests hit the shared
  ``Front``/``Rear`` words individually and serialize at the atomic unit:
  a wavefront's dequeue is a burst of per-lane CASes instead of the one
  proxy fetch-add of the proposed design.  (The lanes speculate disjoint
  tickets from their wavefront rank — the charitable traditional
  formulation; a same-expected CAS loop convoys catastrophically under
  lock-step execution, far beyond the BASE slowdowns the paper reports.
  See DESIGN.md §7.)
* **No retry-free** — cross-wavefront interference between the shared
  load and the CAS burst fails the speculation; failed lanes stay hungry
  and retry next work cycle (Algorithm 1's outer loop), and a dequeue
  against an empty queue raises a queue-empty exception.  Both retry
  flavours grow with active threads — Figure 1.

Slot hand-off uses per-slot *valid flags*, the standard fix for the
reserve-then-write race in array-based CAS queues (cf. Valois 1994): an
enqueuer reserves a slot by CAS on ``Rear``, writes the token, then sets
the flag; a dequeuer that won a slot by CAS on ``Front`` polls the flag
before reading.  This is exactly the kind of extra shared-memory traffic
the proposed design eliminates.

Queue-full aborts the kernel for all variants (paper footnote 2).
"""

from __future__ import annotations

from typing import Generator

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
from repro.simt.lanes import rank_within

from .constants import FRONT, REAR
from .queue_api import (
    DeviceQueue,
    K_CAS_ROUNDS,
    K_DEQ_REQUESTS,
    K_DEQ_TOKENS,
    K_EMPTY_EXC,
    K_ENQ_TOKENS,
)
from .state import WavefrontQueueState


class BaseCasQueue(DeviceQueue):
    """Traditional per-lane CAS queue (the paper's BASE variant)."""

    variant = "BASE"
    retry_free = False
    arbitrary_n = False

    def __init__(self, capacity: int, prefix: str = "wq", circular: bool = False):
        super().__init__(capacity, prefix=prefix, circular=circular)
        self.buf_valid = f"{prefix}.valid"

    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        super().allocate(memory)
        memory.alloc(self.buf_valid, self.capacity, fill=0)
        memory.mark_hot(self.buf_valid)  # polled like the slot array

    def _host_mark_valid(self, memory: GlobalMemory, start: int, n: int) -> None:
        valid = memory[self.buf_valid]
        for raw in range(start, start + n):
            valid[self._phys(raw)] = 1

    def _is_full(self, front: int, rear: int, extra: int) -> bool:
        if self.circular:
            return rear + extra - front > self.capacity
        return rear + extra > self.capacity

    # ------------------------------------------------------------------
    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        """One dequeue attempt per hungry lane per work cycle.

        A lane that wins its :meth:`_claim` parks the claimed slot in
        ``st.slot`` and completes the hand-off (valid-flag poll + data
        read) on this or a later cycle; a lane whose CAS fails, or that
        saw an empty queue, simply remains hungry — Algorithm 1's outer
        loop is the retry loop.
        """
        stats = ctx.stats
        probe = self._probe(ctx)
        n = st.n_hungry
        if n:
            yield from self._claim(ctx, st, n)

        # 2. hand-off: poll valid flags of every claimed slot once per
        #    work cycle; producers may still be writing.
        if st.n_watching:
            claimed = st.slot >= 0
            lanes = np.flatnonzero(claimed)
            raw = st.slot[lanes]
            phys = self._phys(raw)
            if probe is not None:
                probe.wf_phase(ctx.wf_id, "dna_spin", self.prefix)
            vread = MemRead(self.buf_valid, phys)
            yield vread
            ready = vread.result == 1
            if ready.any():
                yield from self._collect(
                    ctx, st, lanes[ready], raw[ready], phys[ready]
                )
            else:
                stats.custom[K_CAS_ROUNDS] += 1  # hand-off spin traffic
                if probe is not None:
                    probe.queue_instant(
                        self.prefix, "handoff_spin", probe.now, int(lanes.size)
                    )

    def _collect(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        lanes: np.ndarray,
        raw: np.ndarray,
        phys: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Hand-off of claimed slots whose valid flag is set: read their
        tokens, clear the flags and grant the tokens to the watching
        ``lanes``."""
        dread = MemRead(self.buf_data, phys)
        yield dread
        # probe events fire at the flag-clear's issue, strictly before a
        # wrap-around producer can see the slot released (oracle order).
        probe = ctx.probe
        if probe is not None:
            probe.queue_grant(self.prefix, raw, probe.now)
            probe.queue_deliver(self.prefix, raw, dread.result)
        yield MemWrite(self.buf_valid, phys, 0)
        st.unwatch(lanes)
        st.grant(lanes, dread.result)
        ctx.stats.custom[K_DEQ_TOKENS] += int(lanes.size)

    def _claim(
        self, ctx: KernelContext, st: WavefrontQueueState, n: int
    ) -> Generator[Op, Op, None]:
        """Per-lane CAS ticket claims for the ``n`` hungry lanes, one
        attempt per work cycle; winners start watching their slot.

        Each hungry lane executes
            old = load(front)
            if (old + my_rank >= rear) -> queue-empty exception
            CAS(&front, old + my_rank, old + my_rank + 1)
        i.e. the standard *speculative ticket* formulation of a
        per-thread CAS dequeue on SIMT hardware: a lane speculates that
        the hungry lanes before it in the wavefront will claim the
        preceding entries, so uncontended wavefronts feed all their lanes
        in one chained burst.  A totally naive same-expected CAS loop
        convoys catastrophically under lock-step execution (every round
        feeds at most one lane) — far beyond the BASE slowdowns the paper
        reports — so this is the charitable traditional baseline; see
        DESIGN.md §7.  Interference from other wavefronts between the
        load and the CAS burst still fails the speculation, and those
        failures (Figure 1) grow with the number of active wavefronts.
        """
        stats = ctx.stats
        probe = ctx.probe
        attempting = st.hungry_mask()
        stats.custom[K_DEQ_REQUESTS] += n
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        ctrl = self._read_ctrl()
        yield ctrl
        front, rear = self._sampled(probe, ctrl)
        avail = rear - front
        ranks, _ = rank_within(attempting)
        live = attempting & (ranks < avail)
        starved = int(attempting.sum() - live.sum())
        if starved:
            # queue-empty exception: these lanes give up this work
            # cycle and retry on the next one (§3.2 / §6.5).
            stats.custom[K_EMPTY_EXC] += starved
            if probe is not None:
                probe.queue_instant(self.prefix, "empty", probe.now, starved)
        if not live.any():
            return
        lanes = np.flatnonzero(live)
        exp = front + ranks[lanes]
        op = AtomicRMW(
            self.buf_ctrl,
            np.full(lanes.size, FRONT, dtype=np.int64),
            AtomicKind.CAS,
            exp,
            exp + 1,
        )
        yield op
        won = op.success
        if won.any():
            st.watch(lanes[won], exp[won])
            if probe is not None:
                # the winning tickets of one CAS burst are always a
                # contiguous run from the Front value current at service
                # time (the atomic unit serializes the burst, and each
                # win advances the word by one).
                probe.queue_reserve(
                    self.prefix, "acquire", int(exp[won][0]), int(won.sum()),
                )
                probe.queue_watch(self.prefix, exp[won], probe.now)
        if not won.all():
            # failed speculation: retry next work cycle (counted as retry
            # traffic; engine counted the CAS failures)
            stats.custom[K_CAS_ROUNDS] += 1
            if probe is not None:
                probe.queue_instant(
                    self.prefix, "cas_retry", probe.now, int((~won).sum()),
                )

    # ------------------------------------------------------------------
    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Per-token CAS enqueue (traditional, non-aggregated).

        Newly discovered tokens must be in the queue before the work
        cycle's completion accounting, so the enqueue loops until every
        token is placed: per round, one shared read of (Front, Rear) and
        one lock-step CAS burst from every lane still holding tokens —
        at most one placement per round, exactly the serialization the
        arbitrary-n property removes.
        """
        stats = ctx.stats
        probe = self._probe(ctx)
        counts = np.asarray(counts, dtype=np.int64)
        if not (counts > 0).any():
            return
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        placed = np.zeros_like(counts)

        # per-token speculative-ticket CAS enqueues (mirror of acquire):
        # each round, every lane with an unplaced token reloads (Front,
        # Rear) and CASes Rear at its rank-speculated ticket; winners copy
        # their token and set the valid flag.  All tokens must land before
        # the work cycle's completion accounting, so rounds repeat until
        # everything is placed — each failed round is retry traffic the
        # arbitrary-n property would have avoided.
        first_round = True
        while True:
            pending = counts > placed
            if not pending.any():
                break
            if not first_round:
                stats.custom[K_CAS_ROUNDS] += 1
            first_round = False
            ctrl = self._read_ctrl()
            yield ctrl
            front, rear = self._sampled(probe, ctrl)
            ranks, n_round = rank_within(pending)
            if self._is_full(front, rear, n_round):
                yield self._full_at(front, rear, n_round)
            lanes = np.flatnonzero(pending)
            exp = rear + ranks[lanes]
            op = AtomicRMW(
                self.buf_ctrl,
                np.full(lanes.size, REAR, dtype=np.int64),
                AtomicKind.CAS,
                exp,
                exp + 1,
            )
            yield op
            won = op.success
            if probe is not None and not won.all():
                probe.queue_instant(
                    self.prefix, "cas_retry", probe.now, int((~won).sum())
                )
            if not won.any():
                continue
            win_lanes = lanes[won]
            raw = exp[won]
            phys = self._phys(raw)
            if probe is not None:
                # as in acquire: a burst's winning Rear tickets form one
                # contiguous run starting at the serviced Rear value.
                probe.queue_reserve(
                    self.prefix, "publish", int(raw[0]), int(raw.size)
                )
            if self.circular:
                yield from self._await_release(ctx, phys)
            yield from self._fill(
                ctx, raw, phys, tokens[win_lanes, placed[win_lanes]]
            )
            placed[win_lanes] += 1
            stats.custom[K_ENQ_TOKENS] += int(win_lanes.size)

    # ------------------------------------------------------------------
    # publish steps shared with AN
    # ------------------------------------------------------------------
    def _full_at(self, front: int, rear: int, need: int) -> Abort:
        return self._full(
            f"fill {rear - front}/{self.capacity} (rear={rear} "
            f"front={front} need={need})",
            rear - front,
        )

    def _await_release(
        self, ctx: KernelContext, phys
    ) -> Generator[Op, Op, None]:
        """Circular ring: wait until previous-generation consumers have
        released (cleared the valid flag of) every target slot."""
        probe = ctx.probe
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "full_wait", self.prefix)
        while True:
            vread = MemRead(self.buf_valid, phys)
            yield vread
            if not (vread.result == 1).any():
                break
            ctx.stats.custom[K_CAS_ROUNDS] += 1
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)

    def _fill(
        self, ctx: KernelContext, raw: np.ndarray, phys, toks: np.ndarray
    ) -> Generator[Op, Op, None]:
        """Publish reserved slots: write the tokens, then raise the valid
        flags (the publication order consumers rely on)."""
        if ctx.probe is not None:
            ctx.probe.queue_store(self.prefix, raw, toks)
        yield MemWrite(self.buf_data, phys, toks)
        yield MemWrite(self.buf_valid, phys, 1)
