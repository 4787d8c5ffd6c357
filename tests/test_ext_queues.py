"""Tests for the extension queues (naive CAS, distributed + stealing)."""

import numpy as np
import pytest

from repro import simt
from repro.core import SchedulerControl, persistent_kernel
from repro.ext import DistributedWorkQueues, NaiveCasQueue
from repro.simt import Engine

from test_core_scheduler import CountdownWorker, FanoutWorker


def run_with_queue(q, worker, seeds, testgpu, n_wf=6):
    eng = Engine(testgpu)
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))
    kern = persistent_kernel(q, worker, sched)
    res = eng.launch(kern, n_wf, params={"max_work_cycles": 500_000})
    return eng, sched, res


class TestNaiveCas:
    def test_countdown_correct(self, testgpu):
        q = NaiveCasQueue(capacity=4096)
        eng, sched, res = run_with_queue(
            q, CountdownWorker(), [8, 5, 2], testgpu
        )
        assert res.stats.custom["scheduler.tasks_completed"] == 8 + 5 + 2 + 3
        assert sched.is_done(eng.memory)

    def test_counts_dequeued_tokens(self, testgpu):
        """NAIVE hands off through BASE's valid-flag step, so every
        granted token is counted, exactly as for BASE."""
        q = NaiveCasQueue(capacity=4096)
        eng, sched, res = run_with_queue(
            q, CountdownWorker(), [40, 17], testgpu
        )
        c = res.stats.custom
        assert c["scheduler.tasks_completed"] == 41 + 18
        assert c["queue.dequeued_tokens"] == c["scheduler.tasks_completed"]

    def test_convoys_relative_to_base(self, testgpu):
        """The naive formulation burns far more CAS attempts than the
        ticket-speculated BASE on the same workload — the evidence for
        DESIGN.md §7."""
        from repro.core import make_queue

        results = {}
        for label, q in (
            ("NAIVE", NaiveCasQueue(capacity=8192)),
            ("BASE", make_queue("BASE", 8192)),
        ):
            eng, sched, res = run_with_queue(
                q, FanoutWorker(511), [0], testgpu, n_wf=8
            )
            results[label] = res
        assert (
            results["NAIVE"].stats.cas_attempts
            > results["BASE"].stats.cas_attempts
        )
        assert results["NAIVE"].cycles > results["BASE"].cycles


class TestDistributed:
    @pytest.mark.parametrize("n_queues", [1, 2, 4])
    def test_countdown_correct(self, n_queues, testgpu):
        q = DistributedWorkQueues(capacity=4096, n_queues=n_queues)
        eng, sched, res = run_with_queue(
            q, CountdownWorker(), [10, 6, 3, 1], testgpu
        )
        expected = 10 + 6 + 3 + 1 + 4
        assert res.stats.custom["scheduler.tasks_completed"] == expected
        assert sched.is_done(eng.memory)

    def test_fanout_with_stealing(self, testgpu):
        """Seeding one queue forces other wavefronts to steal."""
        q = DistributedWorkQueues(capacity=8192, n_queues=3)
        eng, sched, res = run_with_queue(
            q, FanoutWorker(1023), [0], testgpu, n_wf=6
        )
        assert res.stats.custom["scheduler.tasks_completed"] == 1023
        assert res.stats.custom.get("queue.steal_attempts", 0) > 0
        assert res.stats.custom.get("queue.steal_hits", 0) > 0

    def test_seed_round_robin(self, testgpu):
        eng = Engine(testgpu)
        q = DistributedWorkQueues(capacity=16, n_queues=2)
        q.allocate(eng.memory)
        q.seed(eng.memory, [1, 2, 3])
        assert eng.memory[q._ctrl(0)][1] == 2  # rear of queue 0
        assert eng.memory[q._ctrl(1)][1] == 1

    def test_invalid_n_queues(self):
        with pytest.raises(ValueError):
            DistributedWorkQueues(capacity=8, n_queues=0)

    def test_bfs_via_distributed_queue(self, testgpu):
        """The persistent BFS driver works with the distributed layout."""
        from repro.bfs.common import alloc_graph_buffers, read_costs
        from repro.bfs.persistent import BFSWorker
        from repro.graphs import bfs_levels, roadmap_graph

        g = roadmap_graph(10, 10, seed=11)
        eng = Engine(testgpu)
        alloc_graph_buffers(eng.memory, g, 0)
        q = DistributedWorkQueues(capacity=2048, n_queues=2)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [0])
        sched.seed(eng.memory, 1)
        kern = persistent_kernel(q, BFSWorker(), sched)
        eng.launch(kern, 6, params={"max_work_cycles": 500_000})
        got = read_costs(eng.memory, g.n_vertices)
        assert np.array_equal(got, bfs_levels(g, 0))
