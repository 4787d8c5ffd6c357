"""Integration tests for the persistent-thread scheduler."""

import numpy as np
import pytest

from repro import simt
from repro.core import (
    QUEUE_VARIANTS,
    SchedulerControl,
    WavefrontQueueState,
    WorkCycleResult,
    make_queue,
    persistent_kernel,
)
from repro.simt import Compute, Engine

ALL_VARIANTS = sorted(QUEUE_VARIANTS)


class CountdownWorker:
    """Toy irregular workload: token v spawns token v-1 while v > 0.

    Total tasks for seed v is v+1, giving an exact oracle for the
    termination protocol and the task accounting.
    """

    def make_state(self, ctx):
        return None

    def work_cycle(self, ctx, wstate, st):
        active = st.has_token
        yield Compute(4)
        toks = st.token.copy()
        completed = active.copy()
        counts = np.where(active & (toks > 0), 1, 0).astype(np.int64)
        new = np.maximum(toks - 1, 0).reshape(-1, 1)
        return WorkCycleResult(
            completed=completed, new_counts=counts, new_tokens=new
        )


class FanoutWorker:
    """Token v in [0, n) spawns children 2v+1 and 2v+2 while < n (binary
    tree): exercises multi-token publishes and wide parallelism."""

    def __init__(self, n):
        self.n = n

    def make_state(self, ctx):
        return None

    def work_cycle(self, ctx, wstate, st):
        active = st.has_token
        yield Compute(4)
        wf = st.wavefront_size
        counts = np.zeros(wf, dtype=np.int64)
        new = np.zeros((wf, 2), dtype=np.int64)
        for lane in np.flatnonzero(active):
            v = int(st.token[lane])
            kids = [c for c in (2 * v + 1, 2 * v + 2) if c < self.n]
            counts[lane] = len(kids)
            for j, c in enumerate(kids):
                new[lane, j] = c
        return WorkCycleResult(
            completed=active.copy(), new_counts=counts, new_tokens=new
        )


def run_workload(variant, worker, seeds, testgpu, capacity=8192, n_wf=6):
    eng = Engine(testgpu)
    q = make_queue(variant, capacity=capacity)
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))
    kern = persistent_kernel(q, worker, sched)
    res = eng.launch(kern, n_wf, params={"max_work_cycles": 200_000})
    return eng, sched, res


class TestTermination:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_countdown_completes_exact_task_count(self, variant, testgpu):
        seeds = [10, 7, 3, 25]
        eng, sched, res = run_workload(variant, CountdownWorker(), seeds, testgpu)
        expected = sum(v + 1 for v in seeds)
        assert res.stats.custom["scheduler.tasks_completed"] == expected
        assert sched.is_done(eng.memory)
        assert sched.pending(eng.memory) == 0

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_binary_tree_fanout(self, variant, testgpu):
        n = 255  # full binary tree: tokens 0..254
        eng, sched, res = run_workload(variant, FanoutWorker(n), [0], testgpu)
        assert res.stats.custom["scheduler.tasks_completed"] == n
        assert sched.is_done(eng.memory)

    def test_zero_seeds_terminates_immediately(self, testgpu):
        eng, sched, res = run_workload("RF/AN", CountdownWorker(), [], testgpu)
        assert res.stats.custom.get("scheduler.tasks_completed", 0) == 0
        assert sched.is_done(eng.memory)

    def test_single_task_no_children(self, testgpu):
        eng, sched, res = run_workload("RF/AN", CountdownWorker(), [0], testgpu)
        assert res.stats.custom["scheduler.tasks_completed"] == 1


class TestAccounting:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_enqueue_dequeue_balance(self, variant, testgpu):
        seeds = [12, 12, 12]
        eng, sched, res = run_workload(variant, CountdownWorker(), seeds, testgpu)
        c = res.stats.custom
        # all seeded + published tokens were dequeued
        published = c.get("queue.enqueued_tokens", 0)
        dequeued = c.get("queue.dequeued_tokens", 0)
        assert dequeued == published + len(seeds)
        assert dequeued == c["scheduler.tasks_completed"]

    def test_work_cycle_budget_enforced(self, testgpu):
        """max_work_cycles guards against a stuck termination protocol."""
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=64)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [1])
        # deliberately wrong: pending=5 but only 1 real task -> never done
        sched.seed(eng.memory, 5)
        kern = persistent_kernel(q, CountdownWorker(), sched)
        with pytest.raises(RuntimeError, match="max_work_cycles"):
            eng.launch(kern, 2, params={"max_work_cycles": 500})

    def test_subtasks_param_forwarded(self, testgpu):
        seen = {}

        class SpyWorker(CountdownWorker):
            def work_cycle(self, ctx, wstate, st):
                seen["sub"] = ctx.params["subtasks_per_cycle"]
                return (yield from super().work_cycle(ctx, wstate, st))

        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=64)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [2])
        sched.seed(eng.memory, 1)
        kern = persistent_kernel(q, SpyWorker(), sched, subtasks_per_cycle=7)
        eng.launch(kern, 1)
        assert seen["sub"] == 7


class TestShardedKernel:
    """One kernel: a multi-shard queue switches it to fused accounting."""

    def test_aggregate_termination_false_rejected_for_shards(self):
        from repro.core import ShardedQueue

        q = ShardedQueue(64, n_shards=2)
        with pytest.raises(ValueError, match="aggregate_termination"):
            persistent_kernel(
                q, CountdownWorker(), SchedulerControl(),
                aggregate_termination=False,
            )

    @pytest.mark.parametrize("aggregate", [None, True])
    def test_fused_accounting_for_shards(self, aggregate, testgpu):
        from repro.core import ShardedQueue

        eng = Engine(testgpu)
        q = ShardedQueue(256, n_shards=2)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [6, 4])
        sched.seed(eng.memory, 2)
        kern = persistent_kernel(
            q, CountdownWorker(), sched, aggregate_termination=aggregate
        )
        res = eng.launch(kern, 4, params={"max_work_cycles": 50_000})
        c = res.stats.custom
        assert c["scheduler.tasks_completed"] == 7 + 5
        assert (
            c["scheduler.shard0.tasks_completed"]
            + c["scheduler.shard1.tasks_completed"]
            == 7 + 5
        )
        assert sched.is_done(eng.memory)

    def test_single_shard_keeps_aggregate_override(self):
        from repro.core import ShardedQueue

        q = ShardedQueue(64, n_shards=1)
        persistent_kernel(
            q, CountdownWorker(), SchedulerControl(),
            aggregate_termination=False,
        )


class TestSchedulerControl:
    def test_seed_zero_sets_done(self, testgpu):
        eng = Engine(testgpu)
        sched = SchedulerControl()
        sched.allocate(eng.memory)
        sched.seed(eng.memory, 0)
        assert sched.is_done(eng.memory)

    def test_seed_negative_rejected(self, testgpu):
        eng = Engine(testgpu)
        sched = SchedulerControl()
        sched.allocate(eng.memory)
        with pytest.raises(ValueError):
            sched.seed(eng.memory, -1)
