"""Extension — single RF/AN queue vs distributed queues with stealing.

Measures the trade-off the related work (Tzeng et al. 2010) explored:
per-group queues reduce pressure on any single counter word but pay for
steal probing and load imbalance.  On the saturating synthetic workload
(32768 vertices, Fiji, 56 workgroups) the distributed layouts win: the
single RF/AN queue takes 90,544 cycles, DIST x2/x4/x8 take
71,752/72,776/73,896 (1.23-1.26x faster).  The single queue stays
within 2x of every layout.
"""

from conftest import save_report

from repro.bfs import bfs_queue_capacity
from repro.bfs.common import alloc_graph_buffers, read_costs
from repro.bfs.persistent import BFSWorker
from repro.core import SchedulerControl, make_queue, persistent_kernel
from repro.ext import DistributedWorkQueues
from repro.graphs import bfs_levels, synthetic_saturating
from repro.harness.report import render_table
from repro.harness.results import ExperimentResult
from repro.simt import FIJI, Engine

import numpy as np


def _run(queue, g):
    dev, wg = FIJI, 56
    engine = Engine(dev)
    alloc_graph_buffers(engine.memory, g, 0)
    sched = SchedulerControl()
    queue.allocate(engine.memory)
    sched.allocate(engine.memory)
    queue.seed(engine.memory, [0])
    sched.seed(engine.memory, 1)
    kern = persistent_kernel(queue, BFSWorker(), sched)
    res = engine.launch(kern, wg)
    costs = read_costs(engine.memory, g.n_vertices)
    assert np.array_equal(costs, bfs_levels(g, 0))
    return res


def test_ext_distributed_vs_single(benchmark, cfg, reports_dir):
    g = synthetic_saturating(32768, plateau_width=8192)
    g.name = "synthetic-small"
    cap = bfs_queue_capacity(g, FIJI, 56)

    def run_all():
        out = {"RF/AN x1": _run(make_queue("RF/AN", cap), g)}
        for nq in (2, 4, 8):
            out[f"DIST x{nq}"] = _run(
                DistributedWorkQueues(cap, n_queues=nq), g
            )
        return out

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [label, r.cycles,
         int(r.stats.custom.get("queue.steal_attempts", 0)),
         int(r.stats.custom.get("queue.steal_hits", 0))]
        for label, r in runs.items()
    ]
    result = ExperimentResult(
        "ext_distributed",
        "Extension — single RF/AN vs distributed queues with stealing",
        render_table(["layout", "cycles", "steal attempts", "steal hits"], rows),
        {k: {"cycles": r.cycles} for k, r in runs.items()},
    )
    print()
    print(result.text)
    save_report(result, reports_dir)

    single = runs["RF/AN x1"].cycles
    # the distributed layouts are 1.23-1.26x faster on this saturating
    # input; the single retry-free queue stays within 2x of each.
    for label, r in runs.items():
        assert single <= r.cycles * 2.0, (label, single, r.cycles)
