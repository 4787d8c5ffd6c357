"""Coverage for the distributed-queues extension's less-travelled paths.

``tests/test_ext_queues.py`` pins the happy paths (home dequeue,
stealing, seeding); these tests exercise what it leaves dark: the
donation mechanism, constructor/seed validation, circular layouts,
steal-cursor rotation, the queue-full abort surfacing through the
scheduler, and the multi-queue oracle over DIST's AN shards.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    QueueFull,
    SchedulerControl,
    WorkCycleResult,
    persistent_kernel,
)
from repro.ext import DistributedWorkQueues
from repro.ext.distributed import K_DONATIONS, K_STEALS
from repro.simt import Compute, Engine, KernelAbort, QueueFullError
from repro.verify.oracle import MultiQueueOracle
from repro.verify.schedule import RandomController

from test_core_scheduler import CountdownWorker, FanoutWorker


def run_with_queue(q, worker, seeds, testgpu, n_wf=6, observers=()):
    eng = Engine(testgpu)
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))
    kern = persistent_kernel(q, worker, sched)
    res = eng.launch(
        kern, n_wf, params={"max_work_cycles": 500_000}, observers=observers
    )
    return eng, sched, res


class RelayWorker:
    """Token ``v`` spawns ``v + 1000`` while ``v // 1000 < hops``: each
    seed starts a chain of ``hops + 1`` tasks, one token in flight per
    chain, so a tight circular ring keeps wrapping."""

    def __init__(self, hops):
        self.hops = hops

    def make_state(self, ctx):
        return None

    def work_cycle(self, ctx, wstate, st):
        active = st.has_token
        yield Compute(4)
        toks = st.token.copy()
        counts = np.where(active & (toks // 1000 < self.hops), 1, 0)
        return WorkCycleResult(
            completed=active.copy(),
            new_counts=counts.astype(np.int64),
            new_tokens=(toks + 1000).reshape(-1, 1),
        )


class TestDonation:
    def test_burst_publishes_are_donated(self, testgpu):
        # fanout's binary-tree bursts exceed a threshold of 1 whenever a
        # wavefront publishes two children in one batch; the excess must
        # land on the neighbour queue and be counted.
        q = DistributedWorkQueues(
            capacity=8192, n_queues=3, donate_threshold=1
        )
        eng, sched, res = run_with_queue(
            q, FanoutWorker(1023), [0], testgpu, n_wf=6
        )
        assert res.stats.custom["scheduler.tasks_completed"] == 1023
        assert res.stats.custom[K_DONATIONS] > 0
        assert sched.is_done(eng.memory)

    def test_donation_spreads_load_across_queues(self, testgpu):
        # with a single seeded home queue and no donation, the other
        # queues only fill via stealing; donation must put tokens there
        # directly — observable as rear > 0 on a neighbour queue.
        q = DistributedWorkQueues(
            capacity=8192, n_queues=2, donate_threshold=1
        )
        eng, _, res = run_with_queue(
            q, FanoutWorker(255), [0], testgpu, n_wf=2
        )
        rears = [int(eng.memory[q.shards[i].buf_ctrl][1]) for i in range(2)]
        assert min(rears) > 0
        assert res.stats.custom[K_DONATIONS] > 0

    def test_single_queue_never_donates(self, testgpu):
        q = DistributedWorkQueues(
            capacity=8192, n_queues=1, donate_threshold=1
        )
        _, _, res = run_with_queue(q, FanoutWorker(255), [0], testgpu)
        assert res.stats.custom.get(K_DONATIONS, 0) == 0

    def test_invalid_donate_threshold(self):
        with pytest.raises(ValueError):
            DistributedWorkQueues(capacity=8, n_queues=2, donate_threshold=0)
        with pytest.raises(ValueError):
            DistributedWorkQueues(capacity=8, n_queues=2, donate_threshold=-3)


class TestValidationAndLayout:
    def test_seed_overflow_raises_queue_full(self, testgpu):
        eng = Engine(testgpu)
        q = DistributedWorkQueues(capacity=2, n_queues=2)
        q.allocate(eng.memory)
        with pytest.raises(QueueFull):
            q.seed(eng.memory, [1, 2, 3, 4, 5])

    def test_seed_rejects_negative_tokens(self, testgpu):
        eng = Engine(testgpu)
        q = DistributedWorkQueues(capacity=8, n_queues=2)
        q.allocate(eng.memory)
        with pytest.raises(ValueError):
            q.seed(eng.memory, [1, -2])

    def test_drain_host_returns_every_queue_content(self, testgpu):
        eng = Engine(testgpu)
        q = DistributedWorkQueues(capacity=16, n_queues=2)
        q.allocate(eng.memory)
        q.seed(eng.memory, [5, 6, 7])
        assert Counter(q.drain_host(eng.memory).tolist()) == Counter([5, 6, 7])

    def test_circular_layout_completes_countdown(self, testgpu):
        # tight circular rings force physical-slot wrap-around in every
        # queue; the run must still complete exactly.
        q = DistributedWorkQueues(capacity=48, n_queues=2, circular=True)
        eng, sched, res = run_with_queue(
            q, CountdownWorker(), [12, 9, 5], testgpu
        )
        assert res.stats.custom["scheduler.tasks_completed"] == 12 + 9 + 5 + 3
        assert sched.is_done(eng.memory)

    def test_queue_full_aborts_launch(self, testgpu):
        # undersized non-circular queues must surface the full condition
        # as a kernel abort, not silently drop tokens.
        q = DistributedWorkQueues(capacity=6, n_queues=2)
        eng = Engine(testgpu)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [30, 30, 30, 30])
        sched.seed(eng.memory, 4)
        kern = persistent_kernel(q, CountdownWorker(), sched)
        with pytest.raises(KernelAbort):
            eng.launch(kern, 6, params={"max_work_cycles": 500_000})


class TestStealRotation:
    def test_steal_attempts_cover_multiple_victims(self, testgpu):
        # with 4 queues and only queue 0 seeded, a starved wavefront's
        # round-robin cursor must rotate across victims rather than
        # re-probing one; stealing more than once proves rotation since
        # each work cycle probes a different victim.
        q = DistributedWorkQueues(capacity=8192, n_queues=4)
        _, _, res = run_with_queue(
            q, FanoutWorker(2047), [0], testgpu, n_wf=8
        )
        assert res.stats.custom["scheduler.tasks_completed"] == 2047
        assert res.stats.custom[K_STEALS] > res.stats.custom.get(
            "queue.steal_hits", 0
        )


class TestEmptyAccounting:
    def test_single_queue_counts_an_empty_probe_once(self, testgpu):
        # with one queue the home probe is the only probe: an empty one
        # is one queue-empty exception per hungry lane, never two.
        q = DistributedWorkQueues(capacity=4096, n_queues=1)
        _, _, res = run_with_queue(q, CountdownWorker(), [10, 6, 3, 1], testgpu)
        custom = res.stats.custom
        assert 0 < custom["queue.empty_exceptions"]
        assert custom["queue.empty_exceptions"] <= custom["queue.dequeue_requests"]


class TestCircularRelease:
    def test_wrapping_publish_waits_for_release_or_aborts(self, testgpu):
        # a 5-slot ring per queue with 8 chains in flight wraps under an
        # adversarial schedule; a producer must never overwrite a slot
        # whose previous token is still unconsumed.  Either every task
        # completes or the launch aborts queue-full; never a short count.
        q = DistributedWorkQueues(capacity=5, n_queues=2, circular=True)
        ctrl = RandomController(0, hold_prob=0.3, burst=32)
        try:
            _, _, res = run_with_queue(
                q, RelayWorker(30), list(range(8)), testgpu, n_wf=4,
                observers=[ctrl],
            )
        except QueueFullError:
            return
        assert res.stats.custom["scheduler.tasks_completed"] == 8 * 31

    @pytest.mark.parametrize(
        "capacity,n_wf,seed,hold,burst",
        [(5, 4, 34, 0.3, 32), (5, 4, 84, 0.3, 32), (5, 4, 91, 0.3, 32),
         (4, 6, 6, 0.05, 16)],
    )
    def test_wrapping_ring_hands_off_one_generation_at_a_time(
        self, capacity, n_wf, seed, hold, burst, testgpu
    ):
        # a valid flag left by the previous generation of a slot must
        # neither release a producer (it overwrites a token nobody took:
        # the seed-34/84/91 wedges) nor feed a consumer (it collects a
        # token already delivered: seed 6 used to complete 272 of 248).
        q = DistributedWorkQueues(
            capacity=capacity, n_queues=2, circular=True
        )
        oracle = MultiQueueOracle(q)
        oracle.note_seed(list(range(8)))
        ctrl = RandomController(seed, hold_prob=hold, burst=burst)
        try:
            eng, _, res = run_with_queue(
                q, RelayWorker(30), list(range(8)), testgpu, n_wf=n_wf,
                observers=[ctrl, oracle],
            )
        except QueueFullError:
            return
        oracle.finish(eng.memory)
        assert res.stats.custom["scheduler.tasks_completed"] == 8 * 31


class TestMultiQueueOracle:
    @pytest.mark.parametrize(
        "n_queues,donate", [(3, None), (3, 1), (4, None)]
    )
    def test_fanout_passes_the_multi_queue_oracle(
        self, n_queues, donate, testgpu
    ):
        # every steal is a plain AN dequeue at the victim, so each shard's
        # own sequential spec holds and nothing crosses shards.
        n = 1023
        q = DistributedWorkQueues(
            capacity=8192, n_queues=n_queues, donate_threshold=donate
        )
        oracle = MultiQueueOracle(q)
        oracle.note_seed([0])
        eng, sched, res = run_with_queue(
            q, FanoutWorker(n), [0], testgpu, observers=[oracle]
        )
        assert sched.is_done(eng.memory)
        oracle.finish(eng.memory)
        assert oracle.delivered_token_counts() == Counter(range(n))
        assert oracle.events > 0
        # the probe is passive: a bare run matches the checked one
        _, _, bare = run_with_queue(q, FanoutWorker(n), [0], testgpu)
        assert bare.cycles == res.cycles
        assert bare.stats.snapshot() == res.stats.snapshot()
