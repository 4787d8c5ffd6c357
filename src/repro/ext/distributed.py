"""Distributed per-group work queues with stealing (extension, §2.1).

The related work the paper builds on (Tzeng, Patney & Owens 2010) studied
the design space "from a single monolithic task queue to distributed
queuing with task stealing and donation".  The paper itself argues a
single low-contention queue; this module implements the distributed
alternative so the trade-off can be measured on the same simulator
(``benchmarks/bench_ext_distributed.py``).

DIST is a topology over the paper's AN queue (§5.3): ``shards`` holds
one :class:`~repro.core.queue_an.ArbitraryNQueue` per queue group, and
every reservation, hand-off and store runs AN's own steps.  What DIST
adds is only where those steps go:

* each wavefront's home queue is ``wf_id % n_queues``; enqueues go to
  the home queue (optionally *donating* half of a large burst to the
  next queue);
* dequeues try the home queue first; when it is empty, the wavefront
  *steals*: it probes the other queues round-robin, one victim per work
  cycle, and a steal is a plain AN dequeue at the victim;
* the global termination protocol is unchanged — in-flight counting is
  queue-layout agnostic.

Compared to the single RF/AN queue, distribution trades proxy-counter
contention for load imbalance and steal probing; with a saturating
workload the single retry-free queue stays ahead, while the distributed
layout narrows the gap as contention rises.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List

import numpy as np

from repro.core.constants import FRONT
from repro.core.queue_an import ArbitraryNQueue
from repro.core.queue_api import DeviceQueue, K_CAS_ROUNDS, K_EMPTY_EXC
from repro.core.state import WavefrontQueueState
from repro.simt import GlobalMemory, KernelContext, Op
from repro.simt.lanes import rank_within

K_STEALS = "queue.steal_attempts"
K_STEAL_HITS = "queue.steal_hits"
K_DONATIONS = "queue.donated_tokens"


class DistributedWorkQueues(DeviceQueue):
    """N AN queues with round-robin stealing and burst donation."""

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
        #: the AN queues, ``<prefix>.<q>.{data,ctrl,valid}`` in memory.
        self.shards: List[ArbitraryNQueue] = [
            ArbitraryNQueue(capacity, prefix=f"{prefix}.{q}", circular=circular)
            for q in range(n_queues)
        ]
        #: per-wavefront steal cursor, reset at every allocate() so one
        #: queue object can serve successive launches.
        self._cursor: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        for sh in self.shards:
            sh.allocate(memory)
        self._cursor.clear()

    def seed(self, memory: GlobalMemory, tokens: Iterable[int]) -> int:
        """Round-robin the initial tokens (token ``i`` to queue
        ``i % n_queues``)."""
        toks = list(tokens)
        return sum(
            sh.seed(memory, toks[q :: self.n_queues])
            for q, sh in enumerate(self.shards)
        )

    def drain_host(self, memory: GlobalMemory) -> np.ndarray:
        return np.concatenate([sh.drain_host(memory) for sh in self.shards])

    # ------------------------------------------------------------------
    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        n = st.n_hungry
        if n == 0:
            return
        custom = ctx.stats.custom
        wf = ctx.wf_id
        home = wf % self.n_queues
        hq = self.shards[home]
        hq._probe(ctx)  # registered before the aggregation's phase event
        hungry, ranks, _ = yield from hq._aggregate(ctx, st, n)

        # probe order: home queue, then one steal victim per work cycle
        probes = [home]
        if self.n_queues > 1:
            cursor = self._cursor.get(wf, 0)
            probes.append((home + 1 + cursor) % self.n_queues)
        for q in probes:
            sh = self.shards[q]
            steal = q != home
            if steal:
                custom[K_STEALS] += 1
                self._cursor[wf] = (cursor + 1) % (self.n_queues - 1)
            probe = sh._probe(ctx)
            ctrl = sh._read_ctrl()
            yield ctrl
            front, rear = sh._sampled(probe, ctrl)
            m = min(n, rear - front)
            if m <= 0:
                continue
            if not (yield from sh._cas(ctx, FRONT, front, m)):
                custom[K_CAS_ROUNDS] += 1
                continue
            if steal:
                custom[K_STEAL_HITS] += 1
            yield from sh._handoff(ctx, st, hungry, ranks, front, m)
            return
        custom[K_EMPTY_EXC] += n

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
        home = ctx.wf_id % self.n_queues
        parts = [(home, counts)]
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
            parts = [
                (home, np.where(keep, counts, 0)),
                ((home + 1) % self.n_queues, np.where(give, counts, 0)),
            ]
        for q, c in parts:
            yield from self.shards[q].publish(ctx, st, c, tokens)
