"""AN — arbitrary-n aggregation on top of a CAS-based queue (§5.3).

This ablation adds the paper's *arbitrary-n* property to BASE: hungry
lanes (resp. newly produced tokens) are counted with a wavefront-local
aggregation and the **proxy lane** moves ``Front`` (resp. ``Rear``) by the
whole batch with a single CAS.  What it deliberately lacks is the
*retry-free* property: the proxy's CAS can fail when another wavefront
got there first, forcing a re-read + retry round (counted in
``queue.cas_retry_rounds``), and dequeueing from an empty queue is still
an exception that leaves lanes hungry.

Comparing AN against BASE isolates the benefit of arbitrary-n; comparing
RF/AN against AN isolates the benefit of retry-free (Table 4, Figure 4).

Slot hand-off reuses BASE's per-slot valid flags.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.simt import (
    AtomicKind,
    AtomicRMW,
    KernelContext,
    LocalOp,
    MemRead,
    Op,
)
from repro.simt.lanes import rank_within, segmented_rank

from .constants import FRONT, REAR
from .queue_api import (
    K_CAS_ROUNDS,
    K_DEQ_REQUESTS,
    K_EMPTY_EXC,
    K_ENQ_TOKENS,
    K_PROXY_ATOMICS,
)
from .queue_base_cas import BaseCasQueue
from .state import WavefrontQueueState


class ArbitraryNQueue(BaseCasQueue):
    """Proxy-aggregated CAS queue (the paper's AN variant)."""

    variant = "AN"
    retry_free = False
    arbitrary_n = True

    # ------------------------------------------------------------------
    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        stats = ctx.stats
        dev = ctx.device
        probe = self._probe(ctx)
        n = st.n_hungry
        if n == 0:
            return
        hungry = st.hungry_mask()
        stats.custom[K_DEQ_REQUESTS] += n
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        ranks, _total = rank_within(hungry)
        yield LocalOp(dev.lds_op_cycles)  # local aggregation of hungry lanes

        first_round = True
        while True:
            ctrl = self._read_ctrl()
            yield ctrl
            front, rear = self._sampled(probe, ctrl)
            avail = rear - front
            m = min(n, avail)
            if m <= 0:
                # queue-empty exception: all hungry lanes stay hungry.
                stats.custom[K_EMPTY_EXC] += n
                if probe is not None:
                    probe.queue_instant(self.prefix, "empty", probe.now, n)
                return
            if not first_round:
                stats.custom[K_CAS_ROUNDS] += 1
            first_round = False
            # proxy claims m entries with one CAS; it can fail.
            op = AtomicRMW(
                self.buf_ctrl, FRONT, AtomicKind.CAS, front, front + m
            )
            yield op
            stats.custom[K_PROXY_ATOMICS] += 1
            if bool(op.success[0]):
                break
            # CAS failed: somebody moved Front; re-read and retry.
            if probe is not None:
                probe.queue_instant(self.prefix, "cas_retry", probe.now, 1)

        # first m hungry lanes receive slots front .. front+m-1.
        served = hungry & (ranks < m)
        lanes = np.flatnonzero(served)
        raw = front + ranks[served]
        phys = self._phys(raw)
        # the served lanes watch their slots while the proxy spins on
        # the valid flags
        st.watch(lanes, raw)
        if probe is not None:
            probe.queue_proxy(self.prefix, "acquire", m)
            probe.queue_reserve(self.prefix, "acquire", front, m)
            probe.queue_watch(self.prefix, raw, probe.now)
            probe.wf_phase(ctx.wf_id, "dna_spin", self.prefix)

        while True:
            vread = MemRead(self.buf_valid, phys)
            yield vread
            if np.all(vread.result == 1):
                break
            stats.custom[K_CAS_ROUNDS] += 1
            if probe is not None:
                probe.queue_instant(
                    self.prefix, "handoff_spin", probe.now, int(lanes.size)
                )

        yield from self._collect(ctx, st, lanes, raw, phys)

    # ------------------------------------------------------------------
    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        stats = ctx.stats
        dev = ctx.device
        probe = self._probe(ctx)
        counts = np.asarray(counts, dtype=np.int64)
        has_new = counts > 0
        if not has_new.any():
            return
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        ranks, total = segmented_rank(has_new, counts)
        yield LocalOp(dev.lds_op_cycles)

        first_round = True
        while True:
            ctrl = self._read_ctrl()
            yield ctrl
            front, rear = self._sampled(probe, ctrl)
            if self._is_full(front, rear, total):
                yield self._full_at(front, rear, total)
            if not first_round:
                stats.custom[K_CAS_ROUNDS] += 1
            first_round = False
            op = AtomicRMW(
                self.buf_ctrl, REAR, AtomicKind.CAS, rear, rear + total
            )
            yield op
            stats.custom[K_PROXY_ATOMICS] += 1
            if bool(op.success[0]):
                break
            if probe is not None:
                probe.queue_instant(self.prefix, "cas_retry", probe.now, 1)

        if probe is not None:
            self._announce(ctx, REAR, rear, total)

        lane_base = rear + ranks
        max_count = int(counts.max())
        for t in range(max_count):
            active = counts > t
            raw = lane_base[active] + t
            phys = self._phys(raw)
            if self.circular:
                yield from self._await_release(ctx, phys)
            yield from self._fill(ctx, raw, phys, tokens[active, t])
        stats.custom[K_ENQ_TOKENS] += int(total)
