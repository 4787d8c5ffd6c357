"""Distributed per-group work queues with stealing (extension, §2.1).

The related work the paper builds on (Tzeng, Patney & Owens 2010) studied
the design space "from a single monolithic task queue to distributed
queuing with task stealing and donation".  The paper itself argues a
single low-contention queue; this module implements the distributed
alternative so the trade-off can be measured on the same simulator
(``benchmarks/bench_ext_distributed.py``):

* one bounded CAS queue (with valid-flag hand-off) per *queue group*;
  each wavefront's home queue is ``wf_id % n_queues``;
* enqueues go to the home queue (proxy-aggregated CAS reserve);
* dequeues try the home queue first; when it is empty, the wavefront
  *steals*: it probes the other queues round-robin, one victim per work
  cycle;
* the global termination protocol is unchanged — in-flight counting is
  queue-layout agnostic.

Compared to the single RF/AN queue, distribution trades proxy-counter
contention for load imbalance and steal probing; with a saturating
workload the single retry-free queue stays ahead, while the distributed
layout narrows the gap as contention rises.
"""

from __future__ import annotations

from typing import Generator, Iterable, List

import numpy as np

from repro.core.constants import FRONT, REAR
from repro.core.queue_api import (
    DeviceQueue,
    K_CAS_ROUNDS,
    K_DEQ_REQUESTS,
    K_DEQ_TOKENS,
    K_EMPTY_EXC,
    K_ENQ_TOKENS,
    K_PROXY_ATOMICS,
    QueueFull,
    queue_full,
)
from repro.core.state import WavefrontQueueState
from repro.simt import (
    AtomicKind,
    AtomicRMW,
    GlobalMemory,
    KernelContext,
    LocalOp,
    MemRead,
    MemWrite,
    Op,
)
from repro.simt.lanes import rank_within, segmented_rank

K_STEALS = "queue.steal_attempts"
K_STEAL_HITS = "queue.steal_hits"
K_DONATIONS = "queue.donated_tokens"


class DistributedWorkQueues(DeviceQueue):
    """N proxy-aggregated CAS queues with round-robin stealing."""

    variant = "DIST"
    retry_free = False
    arbitrary_n = True

    def __init__(
        self,
        capacity: int,
        n_queues: int = 4,
        prefix: str = "dwq",
        circular: bool = False,
        donate_threshold: int | None = None,
    ):
        """``donate_threshold``: when a wavefront publishes more than this
        many tokens in one batch, the excess is *donated* to the next
        queue (Tzeng et al.'s donation mechanism) — spreading bursts
        instead of waiting for victims to come stealing.  ``None``
        disables donation."""
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if donate_threshold is not None and donate_threshold <= 0:
            raise ValueError("donate_threshold must be positive or None")
        super().__init__(capacity, prefix=prefix, circular=circular)
        self.n_queues = n_queues
        self.donate_threshold = donate_threshold
        #: per-wavefront steal cursor lives in the state cache dict; the
        #: queue object itself stays immutable/shareable.

    # ------------------------------------------------------------------
    def _ctrl(self, q: int) -> str:
        return f"{self.prefix}.{q}.ctrl"

    def _data(self, q: int) -> str:
        return f"{self.prefix}.{q}.data"

    def _valid(self, q: int) -> str:
        return f"{self.prefix}.{q}.valid"

    def allocate(self, memory: GlobalMemory) -> None:
        for q in range(self.n_queues):
            memory.alloc(self._data(q), self.capacity, fill=0)
            memory.mark_hot(self._data(q))
            memory.alloc(self._valid(q), self.capacity, fill=0)
            memory.mark_hot(self._valid(q))
            memory.alloc(self._ctrl(q), 2, fill=0)

    def seed(self, memory: GlobalMemory, tokens: Iterable[int]) -> int:
        toks = np.asarray(list(tokens), dtype=np.int64)
        if np.any(toks < 0):
            raise ValueError("task tokens must be non-negative")
        for i, t in enumerate(toks):
            q = i % self.n_queues
            ctrl = memory[self._ctrl(q)]
            rear = int(ctrl[REAR])
            if rear + 1 > self.capacity:
                raise QueueFull(f"seed overflows queue {q}")
            memory[self._data(q)][self._phys(rear)] = t
            memory[self._valid(q)][self._phys(rear)] = 1
            ctrl[REAR] = rear + 1
        return int(toks.size)

    # ------------------------------------------------------------------
    def _home(self, ctx: KernelContext) -> int:
        return ctx.wf_id % self.n_queues

    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        stats = ctx.stats
        dev = ctx.device
        n = st.n_hungry
        if n == 0:
            return
        hungry = st.hungry_mask()
        stats.custom[K_DEQ_REQUESTS] += n
        ranks, _ = rank_within(hungry)
        yield LocalOp(dev.lds_op_cycles)

        # probe order: home queue, then one steal victim per work cycle
        if not isinstance(st.cache, dict):
            st.cache = {"steal_cursor": 0}
        home = self._home(ctx)
        cursor = st.cache["steal_cursor"]
        victim = (home + 1 + cursor) % self.n_queues
        probes = [home] if self.n_queues == 1 else [home, victim]

        for probe_i, q in enumerate(probes):
            is_steal = probe_i > 0
            if is_steal:
                stats.custom[K_STEALS] += 1
                st.cache["steal_cursor"] = (cursor + 1) % max(
                    self.n_queues - 1, 1
                )
            ctrl = MemRead(self._ctrl(q), np.array([FRONT, REAR], dtype=np.int64))
            yield ctrl
            front, rear = int(ctrl.result[0]), int(ctrl.result[1])
            m = min(n, rear - front)
            if m <= 0:
                if not is_steal and self.n_queues == 1:
                    stats.custom[K_EMPTY_EXC] += n
                continue
            op = AtomicRMW(self._ctrl(q), FRONT, AtomicKind.CAS, front, front + m)
            yield op
            stats.custom[K_PROXY_ATOMICS] += 1
            if not bool(op.success[0]):
                stats.custom[K_CAS_ROUNDS] += 1
                continue
            if is_steal:
                stats.custom[K_STEAL_HITS] += 1
            served = hungry & (ranks < m)
            lanes = np.flatnonzero(served)
            phys = self._phys(front + ranks[served])
            while True:
                vread = MemRead(self._valid(q), phys)
                yield vread
                if np.all(vread.result == 1):
                    break
                stats.custom[K_CAS_ROUNDS] += 1
            dread = MemRead(self._data(q), phys)
            yield dread
            yield MemWrite(self._valid(q), phys, 0)
            st.grant(lanes, dread.result)
            stats.custom[K_DEQ_TOKENS] += int(lanes.size)
            return
        stats.custom[K_EMPTY_EXC] += n

    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        counts = np.asarray(counts, dtype=np.int64)
        total = int(np.maximum(counts, 0).sum())
        if total == 0:
            return
        if (
            self.donate_threshold is not None
            and self.n_queues > 1
            and total > self.donate_threshold
        ):
            # donate the excess: lanes with odd wavefront rank publish to
            # the neighbour queue, splitting the burst roughly in half.
            ranks, _ = rank_within(counts > 0)
            keep = (ranks % 2 == 0) & (counts > 0)
            give = (counts > 0) & ~keep
            ctx.stats.custom[K_DONATIONS] += int(counts[give].sum())
            yield from self._publish_to(
                ctx, self._home(ctx), np.where(keep, counts, 0), tokens
            )
            yield from self._publish_to(
                ctx,
                (self._home(ctx) + 1) % self.n_queues,
                np.where(give, counts, 0),
                tokens,
            )
            return
        yield from self._publish_to(ctx, self._home(ctx), counts, tokens)

    def _publish_to(
        self,
        ctx: KernelContext,
        q: int,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        stats = ctx.stats
        dev = ctx.device
        counts = np.asarray(counts, dtype=np.int64)
        has_new = counts > 0
        if not has_new.any():
            return
        ranks, total = segmented_rank(has_new, counts)
        yield LocalOp(dev.lds_op_cycles)

        while True:
            ctrl = MemRead(self._ctrl(q), np.array([FRONT, REAR], dtype=np.int64))
            yield ctrl
            front, rear = int(ctrl.result[0]), int(ctrl.result[1])
            full = (
                rear + total - front > self.capacity
                if self.circular
                else rear + total > self.capacity
            )
            if full:
                yield queue_full(
                    f"distributed queue {q} full: fill "
                    f"{rear - front}/{self.capacity} (rear={rear} "
                    f"front={front} need={total})",
                    f"{self.prefix}.{q}", self.capacity, rear - front,
                    shard=q,
                )
            op = AtomicRMW(self._ctrl(q), REAR, AtomicKind.CAS, rear, rear + total)
            yield op
            stats.custom[K_PROXY_ATOMICS] += 1
            if bool(op.success[0]):
                break
            stats.custom[K_CAS_ROUNDS] += 1

        lane_base = rear + ranks
        max_count = int(counts.max())
        for t in range(max_count):
            active = counts > t
            phys = self._phys(lane_base[active] + t)
            yield MemWrite(self._data(q), phys, tokens[active, t])
            yield MemWrite(self._valid(q), phys, 1)
        stats.custom[K_ENQ_TOKENS] += int(total)
