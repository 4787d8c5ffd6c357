"""NAIVE — the textbook per-lane CAS queue, kept as ablation evidence.

This is the maximally literal port of a per-thread CAS dequeue to SIMT:
every hungry lane loads ``Front`` (lock-step: they all see the same
value) and CASes it to ``+1``, so *at most one lane per wavefront per
attempt can win*; everyone else fails and retries on the next work cycle.
First-principles simulation shows this formulation convoys: feeding a
64-lane wavefront takes ~64 work cycles, and at scale the atomic unit
saturates with failing CASes, producing slowdowns orders of magnitude
beyond what the paper reports for its BASE.  That observation is why the
shipping :class:`~repro.core.queue_base_cas.BaseCasQueue` uses the
speculative-ticket formulation instead (DESIGN.md §7) — and this class
exists so ``benchmarks/bench_ablation_naive_cas.py`` can regenerate the
evidence.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.constants import FRONT
from repro.core.queue_api import (
    K_CAS_ROUNDS,
    K_DEQ_REQUESTS,
    K_EMPTY_EXC,
)
from repro.core.queue_base_cas import BaseCasQueue
from repro.core.state import WavefrontQueueState
from repro.simt import AtomicKind, AtomicRMW, KernelContext, Op


class NaiveCasQueue(BaseCasQueue):
    """Per-lane CAS with shared expected value: one winner per attempt.

    Only the claim differs from BASE; the valid-flag hand-off is BASE's.
    """

    variant = "NAIVE"
    retry_free = False
    arbitrary_n = False

    def _claim(
        self, ctx: KernelContext, st: WavefrontQueueState, n: int
    ) -> Generator[Op, Op, None]:
        """One shared-expected CAS attempt per work cycle."""
        stats = ctx.stats
        probe = ctx.probe
        attempting = st.hungry_mask()
        stats.custom[K_DEQ_REQUESTS] += n
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        ctrl = self._read_ctrl()
        yield ctrl
        front, rear = self._sampled(probe, ctrl)
        if rear - front <= 0:
            stats.custom[K_EMPTY_EXC] += n
            if probe is not None:
                probe.queue_instant(self.prefix, "empty", probe.now, n)
            return
        op = AtomicRMW(
            self.buf_ctrl,
            np.full(n, FRONT, dtype=np.int64),
            AtomicKind.CAS,
            front,
            front + 1,
        )
        yield op
        winners = np.flatnonzero(op.success)
        if winners.size:
            lane = np.flatnonzero(attempting)[winners[:1]]
            st.watch(lane, np.array([front], dtype=np.int64))
            if probe is not None:
                probe.queue_reserve(self.prefix, "acquire", front, 1)
                probe.queue_watch(
                    self.prefix, np.array([front], dtype=np.int64), probe.now
                )
        else:
            stats.custom[K_CAS_ROUNDS] += 1
            if probe is not None:
                probe.queue_instant(self.prefix, "cas_retry", probe.now, n)
