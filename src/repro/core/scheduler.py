"""The persistent-thread task scheduler (Algorithm 1 + §4).

A persistent kernel launches "just enough" wavefronts to saturate the
device; every wavefront loops through *work cycles* until all tasks are
done:

1. read the global done flag — exit if set;
2. ``queue.acquire`` — hungry lanes ask the queue variant for tokens;
3. one :class:`Worker` work cycle — lanes holding tokens process up to
   ``subtasks_per_cycle`` uniform sub-tasks (paper footnote 3) and may
   discover new tasks and/or complete their current one;
4. account the new tasks in the in-flight counter, ``queue.publish``
   them, then account the completions — the wavefront whose decrement
   drives the counter to zero raises the done flag.

Termination protocol
--------------------
The paper does not spell out its termination test; we use a global
in-flight counter (see DESIGN.md §7).  Ordering matters: newly discovered
tasks are counted *before* their tokens become visible and completions
are counted *after*, so the counter can only reach zero when no task is
running, queued, or about to be queued.  Counter updates are fetch-adds
(they never fail); variants with the arbitrary-n property aggregate them
through the proxy lane, BASE pays one per lane — consistent with which
variant owns lane aggregation machinery.

Progress signals
----------------
The probe marks this loop fires — ``sched_tokens`` after every acquire,
``wf_phase("work")`` around each work cycle, ``sched_done`` at the
termination store — double as the liveness signals of
:class:`repro.obs.watchdog.LivenessWatchdog`: a launch whose flight
recorder sees no work marks, deliveries, stores, or exits for a whole
watch window is wedged, and the recorder's per-wavefront phase marks
name the dominant stall class in the resulting post-mortem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Protocol

import numpy as np

from repro.simt import (
    AtomicKind,
    AtomicRMW,
    GlobalMemory,
    KernelContext,
    MemRead,
    MemWrite,
    Op,
)
from repro.simt.probe import overridden

from .constants import DEFAULT_SUBTASKS_PER_CYCLE, DONE, PENDING
from .queue_api import DeviceQueue
from .state import WavefrontQueueState

K_WORK_CYCLES = "scheduler.work_cycles"
K_IDLE_CYCLES = "scheduler.idle_lane_cycles"
K_TASKS_DONE = "scheduler.tasks_completed"


def sched_shard_key(shard: int, name: str) -> str:
    """Per-home-shard scheduler counter key (``scheduler.shard<i>.*``)."""
    return f"scheduler.shard{shard}.{name}"


@dataclass
class WorkCycleResult:
    """What a worker did in one work cycle.

    Attributes
    ----------
    completed:
        Lane mask: the lane's current task finished this cycle.
    new_counts:
        Per-lane number of newly discovered ready tasks.
    new_tokens:
        ``(wavefront_size, max_new)`` array; lane ``i`` discovered
        ``new_tokens[i, :new_counts[i]]``.
    """

    completed: np.ndarray
    new_counts: np.ndarray
    new_tokens: np.ndarray


class Worker(Protocol):
    """An irregular workload plugged into the persistent scheduler.

    ``make_state`` creates per-wavefront private state (lane registers);
    ``work_cycle`` is a generator performing one work cycle for the lanes
    of ``st`` that hold tokens, returning a :class:`WorkCycleResult`.

    A task may span several work cycles (e.g. a BFS vertex with more
    children than ``subtasks_per_cycle``): the worker simply does not set
    ``completed`` for that lane, and the lane keeps its token.
    """

    def make_state(self, ctx: KernelContext) -> object: ...

    def work_cycle(
        self,
        ctx: KernelContext,
        wstate: object,
        st: WavefrontQueueState,
    ) -> Generator[Op, Op, WorkCycleResult]: ...


class SchedulerControl:
    """Host handle for the scheduler's global control buffer."""

    def __init__(self, prefix: str = "sched"):
        self.prefix = prefix
        self.buf_ctrl = f"{prefix}.ctrl"  # [PENDING, DONE]

    def allocate(self, memory: GlobalMemory) -> None:
        memory.alloc(self.buf_ctrl, 2, fill=0)

    def seed(self, memory: GlobalMemory, n_initial: int) -> None:
        """Record the initially ready tasks before launch."""
        if n_initial < 0:
            raise ValueError("n_initial must be non-negative")
        ctrl = memory[self.buf_ctrl]
        ctrl[PENDING] = n_initial
        ctrl[DONE] = 1 if n_initial == 0 else 0

    def is_done(self, memory: GlobalMemory) -> bool:
        return bool(memory[self.buf_ctrl][DONE])

    def pending(self, memory: GlobalMemory) -> int:
        return int(memory[self.buf_ctrl][PENDING])


def persistent_kernel(
    queue: DeviceQueue,
    worker: Worker,
    sched: SchedulerControl,
    subtasks_per_cycle: int = DEFAULT_SUBTASKS_PER_CYCLE,
    aggregate_termination: Optional[bool] = None,
):
    """Build the persistent-thread kernel for a queue variant + worker.

    The returned callable is a :data:`repro.simt.Kernel`; launch it with
    ``Engine.launch``.  ``subtasks_per_cycle`` is forwarded to workers via
    ``ctx.params`` under ``"subtasks_per_cycle"``.

    ``aggregate_termination`` overrides whether in-flight-counter updates
    go through the proxy lane (default: follow the queue's arbitrary-n
    property); the termination ablation bench uses this.

    A queue with ``n_shards > 1`` (:class:`~repro.core.queue_sharded
    .ShardedQueue`) changes two things:

    * **Fused termination accounting.**  Instead of two fetch-adds on
      the global in-flight counter per productive work cycle (``+n_new``
      before publish, ``-n_done`` after), one ``+(n_new - n_done)``
      fetch-add is issued *before* publish, halving traffic on the
      scheduler's hot word — the one word queue sharding cannot split.
      This is safe: the fused delta still counts discoveries no later
      than their tokens become visible, so the counter reaching zero
      proves ``n_new == 0`` for the observing wavefront (its own
      discoveries are included in ``remaining``) and no task anywhere is
      running, queued, or about to be queued.  Fused accounting is
      always aggregated, so ``aggregate_termination=False`` is rejected.
    * **Per-home-shard counters.**  ``scheduler.shard<i>.work_cycles`` /
      ``idle_lane_cycles`` / ``tasks_completed`` expose cross-shard load
      imbalance in every run's metrics without any probe attached.

    A single-shard queue runs the plain loop, so the shards=1
    configuration stays bit-identical to the bare inner variant.
    """
    n_shards = int(getattr(queue, "n_shards", 1))
    fused = n_shards > 1
    if fused and aggregate_termination is False:
        raise ValueError(
            "aggregate_termination=False is not supported for a queue with "
            f"n_shards={n_shards}: its fused termination accounting is "
            "always aggregated"
        )
    aggregated = (
        queue.arbitrary_n
        if aggregate_termination is None
        else aggregate_termination
    )

    def kernel(ctx: KernelContext) -> Generator[Op, Op, None]:
        ctx.params.setdefault("subtasks_per_cycle", subtasks_per_cycle)
        stats = ctx.stats
        wf_size = ctx.device.wavefront_size
        st = WavefrontQueueState(wf_size)
        wstate = worker.make_state(ctx)
        max_cycles: Optional[int] = ctx.params.get("max_work_cycles")  # type: ignore[assignment]
        cycles = 0
        if fused:
            home = ctx.wf_id % n_shards
            k_cycles = sched_shard_key(home, "work_cycles")
            k_idle = sched_shard_key(home, "idle_lane_cycles")
            k_done = sched_shard_key(home, "tasks_completed")

        done_idx = np.array([DONE], dtype=np.int64)
        # one reusable poll op: the engine fills `result` afresh at every
        # completion and never holds a read past its wavefront's resume,
        # so re-yielding the same object each work cycle is safe and spares
        # one allocation per poll in the simulator's hottest loop.
        dread = MemRead(sched.buf_ctrl, done_idx, trans=1, prechecked=True)
        custom = stats.custom
        probe = ctx.probe
        # skip the per-acquire call when no probe records token counts
        sched_tokens = overridden(probe, "sched_tokens")
        # per-cycle counters accumulate in locals and flush in the finally
        # block (the engine closes kernel generators at launch teardown,
        # so the flush also runs for aborted or timed-out launches).
        idle_lanes = 0
        try:
            while True:
                # 1. WorkRemains()? — poll the done flag.  An elided poll
                # (dread.fresh False) means the control word is untouched
                # since the previous cycle's check, which saw 0.
                if probe is not None:
                    probe.wf_phase(ctx.wf_id, "termination")
                yield dread
                if dread.fresh and int(dread.result[0]):
                    break
                cycles += 1
                if max_cycles is not None and cycles > max_cycles:
                    raise RuntimeError(
                        f"wavefront {ctx.wf_id} exceeded max_work_cycles="
                        f"{max_cycles}; termination protocol stuck?"
                    )

                # 2. GetWorkToken() for hungry lanes.
                yield from queue.acquire(ctx, st)
                idle_lanes += wf_size - st.n_token
                if sched_tokens is not None:
                    sched_tokens(probe.now, ctx.wf_id, st.n_token, wf_size)
                if st.n_token == 0:
                    continue

                # 3. DoWorkUnit() — one work cycle of uniform sub-tasks.
                if probe is not None:
                    probe.wf_phase(ctx.wf_id, "work")
                res = yield from worker.work_cycle(ctx, wstate, st)
                n_new = int(res.new_counts.sum())
                n_done = int(res.completed.sum())

                # 4. ScheduleNewlyDiscoveredWorkTokens() with termination
                #    accounting: count new tasks in-flight *before* their
                #    tokens appear, completions *after* (fused: one
                #    fetch-add covering both, before the publish).
                if fused:
                    if not (n_new or n_done):
                        continue
                    if probe is not None:
                        probe.wf_phase(ctx.wf_id, "termination")
                    delta = n_new - n_done
                    op = AtomicRMW(sched.buf_ctrl, PENDING, AtomicKind.ADD, delta)
                    yield op
                    remaining = int(op.old[0]) + delta
                    if n_new:
                        yield from queue.publish(
                            ctx, st, res.new_counts, res.new_tokens
                        )
                else:
                    if n_new:
                        if probe is not None:
                            probe.wf_phase(ctx.wf_id, "termination")
                        if aggregated:
                            op = AtomicRMW(
                                sched.buf_ctrl, PENDING, AtomicKind.ADD, n_new
                            )
                            yield op
                        else:
                            has_new = res.new_counts > 0
                            k = int(has_new.sum())
                            op = AtomicRMW(
                                sched.buf_ctrl,
                                np.full(k, PENDING, dtype=np.int64),
                                AtomicKind.ADD,
                                res.new_counts[has_new],
                            )
                            yield op
                        yield from queue.publish(
                            ctx, st, res.new_counts, res.new_tokens
                        )
                    if not n_done:
                        continue
                    if probe is not None:
                        probe.wf_phase(ctx.wf_id, "termination")

                if n_done:
                    st.complete(np.flatnonzero(res.completed))
                    custom[K_TASKS_DONE] += n_done
                    if fused:
                        custom[k_done] += n_done
                    elif aggregated:
                        op = AtomicRMW(
                            sched.buf_ctrl, PENDING, AtomicKind.ADD, -n_done
                        )
                        yield op
                        remaining = int(op.old[0]) - n_done
                    else:
                        op = AtomicRMW(
                            sched.buf_ctrl,
                            np.full(n_done, PENDING, dtype=np.int64),
                            AtomicKind.ADD,
                            -1,
                        )
                        yield op
                        remaining = int(op.old.min()) - 1
                if remaining == 0:
                    if probe is not None:
                        if fused:
                            # the publish above may have moved the phase
                            probe.wf_phase(ctx.wf_id, "termination")
                        probe.sched_done(probe.now, ctx.wf_id)
                    yield MemWrite(sched.buf_ctrl, DONE, 1)
                elif remaining < 0:
                    raise RuntimeError(
                        "in-flight counter went negative: a task was "
                        "completed twice or never accounted"
                    )
        finally:
            custom[K_WORK_CYCLES] = custom.get(K_WORK_CYCLES, 0) + cycles
            if fused:
                custom[k_cycles] = custom.get(k_cycles, 0) + cycles
            custom[K_IDLE_CYCLES] = custom.get(K_IDLE_CYCLES, 0) + idle_lanes
            if fused:
                custom[k_idle] = custom.get(k_idle, 0) + idle_lanes

    return kernel
