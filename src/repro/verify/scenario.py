"""Scenario = one verified launch: (variant, workload, schedule, sizing).

A :class:`Scenario` is the JSON-serializable unit of exploration: it
fully determines one engine launch — queue variant (or planted bug),
workload and scale, launch geometry, capacity regime (including circular
wrap-around and deliberate undersizing), and the schedule-controller
spec.  :func:`run_scenario` executes it on :data:`~repro.simt.TESTGPU`
with an :class:`~repro.verify.oracle.InvariantOracle` attached and folds
everything that can happen — clean completion, invariant violation,
expected or unexpected queue-full abort, scheduler wedge, engine
timeout — into an :class:`Outcome`.

Because a scenario round-trips through ``to_dict``/``from_dict``, any
failure can be shipped as a JSON counterexample and replayed bit-for-bit
with ``python -m repro.verify replay`` (the engine is deterministic
given the scenario, so replay *is* reproduction).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core import (
    SchedulerControl,
    ShardedQueue,
    make_queue,
    persistent_kernel,
)
from repro.core.scheduler import K_TASKS_DONE
from repro.simt import TESTGPU, Engine
from repro.simt.errors import KernelAbort, SimulationTimeout

from . import workloads
from .faults import make_planted_queue
from .oracle import InvariantOracle, MultiQueueOracle, VerificationError
from .schedule import build_controller

#: variants explored by default: the three shipping queues + the naive
#: ablation from repro.ext.
ALL_VARIANTS = ("RF/AN", "AN", "BASE", "NAIVE")

#: adaptive-capacity variants (repro.core.queue_adaptive), explored via
#: dedicated overflow scenarios on top of the default family.
ADAPTIVE_VARIANTS = ("GROW", "SPILL")

#: variants a scenario may name: the default family + the sharded
#: composition (explored via dedicated multi-shard scenarios rather
#: than the whole per-variant family — at ``shards=1`` it is RF/AN)
#: + the adaptive-capacity modes.
CLI_VARIANTS = ALL_VARIANTS + ("SHARDED",) + ADAPTIVE_VARIANTS


@dataclass
class Scenario:
    """One fully-determined verification launch (JSON-serializable)."""

    variant: str = "RF/AN"
    workload: str = "countdown"
    scale: int = 12
    n_wavefronts: int = 6
    capacity: Optional[int] = None      # None: auto-size (never full)
    circular: bool = False
    schedule: Optional[dict] = None     # see schedule.build_controller
    plant: Optional[str] = None         # planted bug (selftest only)
    expect_full: bool = False           # scenario *must* abort queue-full
    max_work_cycles: int = 20_000
    max_cycles: int = 10_000_000
    # sharded composition (variant "SHARDED"; ignored otherwise)
    shards: int = 1
    steal: bool = True
    steal_quantum: int = 4
    spin_threshold: int = 1
    # adaptive-capacity geometry (variants "GROW"/"SPILL" and their
    # plants; None means the queue's own defaults)
    seg_cap: Optional[int] = None
    pool_segments: Optional[int] = None
    max_segments: Optional[int] = None
    spill_capacity: Optional[int] = None
    high_water: Optional[int] = None
    low_water: Optional[int] = None
    pump_batch: Optional[int] = None

    def adaptive_kwargs(self) -> dict:
        """Constructor kwargs for the adaptive variants (set fields only)."""
        fields = (
            "seg_cap", "pool_segments", "max_segments",
            "spill_capacity", "high_water", "low_water", "pump_batch",
        )
        return {
            f: int(getattr(self, f))
            for f in fields
            if getattr(self, f) is not None
        }

    def resolved_capacity(self) -> int:
        if self.capacity is not None:
            return int(self.capacity)
        total = workloads.max_enqueues(self.workload, self.scale)
        if self.variant == "SPILL":
            # the ring only needs resident lanes + a publish/pump burst
            # margin (§4.2); fill excursions spill.  Auto-size like the
            # bare circular family so un-parameterized scenarios match.
            lanes = self.n_wavefronts * TESTGPU.wavefront_size
            return lanes + min(total, self.scale + 4) + 8
        if self.variant == "GROW":
            # physical pool; logical throughput is unbounded.  The pool
            # must cover the peak *live* working set, which undersized
            # scenarios set explicitly — the default never recycles.
            return total
        if not self.circular:
            # monotonic: one raw slot per token ever enqueued.  Sharded:
            # capacity is *per shard* — in the worst case one shard sees
            # every publish, and every cross-shard transfer additionally
            # consumes fresh raw slots at its destination.
            if self.shards > 1:
                return total + max(64, 16 * self.steal_quantum)
            return total
        # circular: must exceed in-flight + monitored entries (§4.2) —
        # every resident lane may park on a slot while the workload's
        # frontier is in the queue.
        lanes = self.n_wavefronts * TESTGPU.wavefront_size
        cap = lanes + min(total, self.scale + 4) + 8
        if self.shards > 1:
            cap += 16 * self.steal_quantum
        return cap

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})

    def label(self) -> str:
        bits = [self.variant, self.workload, f"s{self.scale}",
                f"w{self.n_wavefronts}"]
        if self.shards > 1:
            bits.append(
                f"sh{self.shards}" + ("+steal" if self.steal else "")
            )
        if self.circular:
            bits.append("circ")
        if self.plant:
            bits.append(f"plant={self.plant}")
        if self.expect_full:
            bits.append("full")
        sched = (self.schedule or {}).get("kind", "none")
        if sched != "none":
            seed = (self.schedule or {}).get("seed")
            bits.append(f"{sched}" + (f"#{seed}" if seed is not None else ""))
        return "/".join(bits)


@dataclass
class Outcome:
    """What one scenario run produced."""

    ok: bool
    invariant: Optional[str] = None
    detail: str = ""
    cycles: int = 0
    tasks_completed: int = 0
    events: int = 0
    scenario: dict = field(default_factory=dict)
    #: multiset of tokens delivered to lanes ({token: count}; clean runs
    #: only) — the differential queue-family suite compares this across
    #: variants.
    delivered_counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _build_queue(sc: Scenario, capacity: int):
    if sc.plant is not None:
        return make_planted_queue(
            sc.plant, capacity, circular=sc.circular,
            extra_kwargs=sc.adaptive_kwargs(),
        )
    if sc.variant == "GROW":
        from repro.core import GrowQueue

        return GrowQueue(capacity, **sc.adaptive_kwargs())
    if sc.variant == "SPILL":
        from repro.core import SpillQueue

        return SpillQueue(capacity, **sc.adaptive_kwargs())
    if sc.variant == "NAIVE":
        from repro.ext.queue_naive_cas import NaiveCasQueue

        return NaiveCasQueue(capacity, circular=sc.circular)
    if sc.variant == "SHARDED":
        return ShardedQueue(
            capacity,
            circular=sc.circular,
            n_shards=sc.shards,
            steal=sc.steal,
            steal_quantum=sc.steal_quantum,
            spin_threshold=sc.spin_threshold,
        )
    return make_queue(sc.variant, capacity=capacity, circular=sc.circular)


def run_scenario(sc: Scenario) -> Outcome:
    """Execute one scenario under the invariant oracle.

    Never raises for a *finding* — any violation, wedge, or unexpected
    abort comes back as a failed :class:`Outcome` so the runner can
    shrink and serialize it.  Programming errors still propagate.
    """
    capacity = sc.resolved_capacity()
    worker, seeds, expected = workloads.build(sc.workload, sc.scale)
    queue = _build_queue(sc, capacity)
    eng = Engine(TESTGPU)
    sched = SchedulerControl()
    queue.allocate(eng.memory)
    sched.allocate(eng.memory)
    queue.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))

    if getattr(queue, "n_shards", 1) > 1:
        oracle = MultiQueueOracle(queue)
    else:
        # a single-shard ShardedQueue is spec-identical to its inner
        # variant, so the plain sequential oracle applies verbatim.
        inner = queue.shards[0] if isinstance(queue, ShardedQueue) else queue
        oracle = InvariantOracle(inner)
    kern = persistent_kernel(queue, worker, sched)
    oracle.note_seed(seeds)
    controller = build_controller(sc.schedule)

    def failed(invariant: str, detail: str, res=None) -> Outcome:
        return Outcome(
            ok=False,
            invariant=invariant,
            detail=detail,
            cycles=getattr(res, "cycles", 0),
            tasks_completed=(
                int(res.stats.custom.get(K_TASKS_DONE, 0)) if res else 0
            ),
            events=oracle.events,
            scenario=sc.to_dict(),
        )

    try:
        res = eng.launch(
            kern,
            sc.n_wavefronts,
            params={"max_work_cycles": sc.max_work_cycles},
            max_cycles=sc.max_cycles,
            observers=[oracle] if controller is None else [oracle, controller],
        )
    except VerificationError as exc:
        return failed(exc.invariant, exc.detail)
    except KernelAbort as exc:
        if sc.expect_full and "queue full" in str(exc):
            return Outcome(
                ok=True, detail=f"aborted as expected: {exc}",
                events=oracle.events, scenario=sc.to_dict(),
            )
        return failed(
            "unexpected-abort", f"{exc} | {oracle.summary()}"
        )
    except (SimulationTimeout, RuntimeError) as exc:
        # scheduler wedge or engine watchdog: let the oracle's
        # quiescence audit localize the wedge if it can.
        try:
            oracle.finish(None)
        except VerificationError as verr:
            return failed(
                verr.invariant, f"{verr.detail} | after wedge: {exc}"
            )
        return failed("hang", f"{exc} | {oracle.summary()}")

    if sc.expect_full:
        return failed(
            "missed-queue-full",
            f"capacity {capacity} < total enqueues but the launch "
            f"completed without a queue-full abort | {oracle.summary()}",
        )

    try:
        oracle.finish(eng.memory)
    except VerificationError as exc:
        return failed(exc.invariant, exc.detail, res)

    tasks = int(res.stats.custom.get(K_TASKS_DONE, 0))
    if tasks != expected:
        return failed(
            "task-count-mismatch",
            f"completed {tasks} tasks, workload defines {expected}",
            res,
        )
    n_delivered = oracle.n_lane_delivered
    if n_delivered != expected:
        return failed(
            "delivery-count-mismatch",
            f"queue delivered {n_delivered} tokens to lanes, workload "
            f"moves {expected} | {oracle.summary()}",
            res,
        )
    return Outcome(
        ok=True,
        cycles=res.cycles,
        tasks_completed=tasks,
        events=oracle.events,
        scenario=sc.to_dict(),
        delivered_counts={
            int(t): int(c) for t, c in oracle.delivered_token_counts().items()
        },
    )
