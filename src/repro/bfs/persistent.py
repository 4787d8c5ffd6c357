"""Persistent-thread top-down BFS — the paper's driver application (§5.1).

The kernel is Algorithm 1 instantiated with a :class:`BFSWorker`:

* a task token is a vertex index;
* a work cycle processes up to ``subtasks_per_cycle`` (default 4, paper
  footnote 3) out-edges of the lane's current vertex — the refactoring of
  variable-fanout vertices into uniform-complexity sub-tasks that §3.3
  prescribes for divergence control;
* each relaxed edge performs one ``atomic_min`` on the child's cost;
  a strict improvement means the child just became ready and its token is
  handed to the queue variant under test.

Because relaxation is label-correcting (a vertex is re-enqueued whenever
its cost strictly improves), the final costs equal true BFS depths for
*any* dequeue order — verified against the CPU reference in every test.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Generator, Optional

import numpy as np

from repro.core import (
    DeviceQueue,
    QueueFull,
    SchedulerControl,
    WavefrontQueueState,
    WorkCycleResult,
    make_queue,
    persistent_kernel,
)
from repro.graphs import CSRGraph
from repro.simt import (
    AtomicKind,
    AtomicRMW,
    DeviceSpec,
    Engine,
    KernelAbort,
    KernelContext,
    MemRead,
    Op,
)

from .common import (
    BUF_COSTS,
    BUF_OFFSETS,
    BUF_TARGETS,
    BFSRun,
    alloc_graph_buffers,
    bfs_queue_capacity,
    read_costs,
)


class BFSWorker:
    """Top-down BFS plugged into the persistent scheduler."""

    def make_state(self, ctx: KernelContext) -> SimpleNamespace:
        wf = ctx.device.wavefront_size
        return SimpleNamespace(
            # lane has run the enumeration prolog for its current token
            primed=np.zeros(wf, dtype=bool),
            cur_edge=np.zeros(wf, dtype=np.int64),
            edge_end=np.zeros(wf, dtype=np.int64),
            my_cost=np.zeros(wf, dtype=np.int64),
        )

    def work_cycle(
        self,
        ctx: KernelContext,
        ws: SimpleNamespace,
        st: WavefrontQueueState,
    ) -> Generator[Op, Op, WorkCycleResult]:
        wf = ctx.device.wavefront_size
        subtasks = int(ctx.params["subtasks_per_cycle"])

        # --- enumeration prolog for freshly granted lanes (Listing 2,
        # lines 6-22): fetch the node's edge range and current cost.
        fresh = st.has_token & ~ws.primed
        if fresh.any():
            v = st.token[fresh]
            rd = MemRead(BUF_OFFSETS, np.concatenate([v, v + 1]))
            yield rd
            k = int(fresh.sum())
            ws.cur_edge[fresh] = rd.result[:k]
            ws.edge_end[fresh] = rd.result[k:]
            cr = MemRead(BUF_COSTS, v)
            yield cr
            ws.my_cost[fresh] = cr.result
            ws.primed[fresh] = True

        # --- up to `subtasks` uniform sub-tasks: one child per iteration
        new_counts = np.zeros(wf, dtype=np.int64)
        new_tokens = np.zeros((wf, max(subtasks, 1)), dtype=np.int64)
        for _ in range(subtasks):
            active = st.has_token & ws.primed & (ws.cur_edge < ws.edge_end)
            if not active.any():
                break
            tgt_rd = MemRead(BUF_TARGETS, ws.cur_edge[active])
            yield tgt_rd
            children = tgt_rd.result
            relax = AtomicRMW(
                BUF_COSTS, children, AtomicKind.MIN, ws.my_cost[active] + 1
            )
            yield relax
            improved = relax.old > ws.my_cost[active] + 1
            if improved.any():
                lanes = np.flatnonzero(active)[improved]
                new_tokens[lanes, new_counts[lanes]] = children[improved]
                new_counts[lanes] += 1
            ws.cur_edge[active] += 1

        completed = st.has_token & ws.primed & (ws.cur_edge >= ws.edge_end)
        ws.primed[completed] = False
        return WorkCycleResult(
            completed=completed, new_counts=new_counts, new_tokens=new_tokens
        )


def run_persistent_bfs(
    graph: CSRGraph,
    source: int,
    variant: str,
    device: DeviceSpec,
    n_workgroups: int,
    *,
    capacity: Optional[int] = None,
    subtasks_per_cycle: int = 4,
    circular: bool = False,
    grow_on_full: bool = True,
    max_cycles: int = 20_000_000_000,
    verify: bool = False,
    observers=(),
    queue_factory: Optional[Callable[[int], DeviceQueue]] = None,
) -> BFSRun:
    """Simulate a persistent-thread BFS with the given queue variant.

    ``grow_on_full`` implements the paper's §4.4 recovery: a queue-full
    abort is reported to the host, which "can retry the kernel with a
    larger queue" — we double capacity (up to eight times) before giving
    up.

    ``queue_factory`` overrides queue construction: called with the
    capacity, it must return a :class:`~repro.core.DeviceQueue` (e.g. a
    :class:`~repro.core.ShardedQueue`; the sharded persistent kernel is
    selected automatically).  ``variant`` then only labels the run.

    ``observers`` are forwarded to every launch (``Engine.launch``).
    """
    attempts = 0
    cap = capacity or bfs_queue_capacity(graph, device, n_workgroups)
    while True:
        attempts += 1
        try:
            return _run_once(
                graph,
                source,
                variant,
                device,
                n_workgroups,
                cap,
                subtasks_per_cycle,
                circular,
                max_cycles,
                verify,
                observers,
                queue_factory,
            )
        except KernelAbort as exc:
            if not grow_on_full or attempts > 8:
                raise QueueFull(str(exc)) from exc
            cap *= 2


def _run_once(
    graph: CSRGraph,
    source: int,
    variant: str,
    device: DeviceSpec,
    n_workgroups: int,
    capacity: int,
    subtasks_per_cycle: int,
    circular: bool,
    max_cycles: int,
    verify: bool,
    observers=(),
    queue_factory: Optional[Callable[[int], DeviceQueue]] = None,
) -> BFSRun:
    engine = Engine(device)
    alloc_graph_buffers(engine.memory, graph, source)
    if queue_factory is not None:
        queue = queue_factory(capacity)
    else:
        queue = make_queue(variant, capacity, circular=circular)
    sched = SchedulerControl()
    queue.allocate(engine.memory)
    sched.allocate(engine.memory)
    queue.seed(engine.memory, [source])
    sched.seed(engine.memory, 1)

    kernel = persistent_kernel(
        queue, BFSWorker(), sched, subtasks_per_cycle=subtasks_per_cycle
    )
    result = engine.launch(
        kernel, n_workgroups, max_cycles=max_cycles, observers=observers
    )

    run = BFSRun(
        implementation=variant,
        dataset=graph.name or "unnamed",
        device=device.name,
        n_workgroups=n_workgroups,
        cycles=result.cycles,
        seconds=result.seconds,
        costs=read_costs(engine.memory, graph.n_vertices),
        stats=result.stats,
        extra={
            "queue_capacity": capacity,
            "subtasks_per_cycle": subtasks_per_cycle,
        },
    )
    if verify:
        run.verify(graph, source)
    return run
