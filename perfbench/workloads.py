"""Benchmark workloads: seeded inputs, job lists and the measurement loops.

Every workload is a closed loop with one client: this process runs jobs
back to back, each starting when the previous one has finished.  A job
is one verified BFS launch, or one harness experiment group.  A *round*
is one pass over the workload's fixed job list; a run measures a fixed
number of rounds, set by its ``--seconds`` (see ``rounds_for``).

Workloads (see README.md in this directory for the metric table):

* ``road_rfan`` — RF/AN persistent BFS on seeded road maps with the NY
  stand-in's shape: the paper's starved regime (deep, narrow frontier;
  most wavefronts poll).
* ``synthetic_cas`` — BASE, AN and RF/AN on the fanout-4 Synthetic with
  seed-permuted vertex labels: the saturated regime of Figs. 1 and 5.
* ``road_composed_flight`` — the ``road_rfan`` inputs through a SHARDED
  and a GROW queue, with the flight recorder and liveness watchdog
  attached.
* ``harness_jobs2`` — ``run_many`` over a fixed experiment subset with
  two worker processes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import multiprocessing
import resource
import statistics
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bfs import run_persistent_bfs
from repro.bfs.common import alloc_graph_buffers, bfs_queue_capacity
from repro.core import (
    GrowQueue,
    QueueFull,
    SchedulerControl,
    ShardedQueue,
    make_queue,
)
from repro.graphs import CSRGraph, dataset
from repro.graphs.datasets import ALL_DATASETS
from repro.graphs.generators import roadmap_graph
from repro.obs.runlog import RunObserver
from repro.simt import (
    FIJI,
    Engine,
    QueueFullError,
    SimulationTimeout,
    WedgeError,
)
from repro.simt.atomics import PATH_COUNTS
from repro.simt.engine import EXEC_COUNTS

from tracing import (
    LAYERS,
    OBS,
    QUEUE,
    SCHED,
    SIMT,
    WORKER,
    LayerClock,
    SpanLog,
    instrumented,
)

WORKGROUPS = 56
#: NY stand-in at 1/8 of its harness scale: a 45x45 grid, the graph of
#: the old ``bfs`` datapoint in BENCH_engine.json.
ROAD_SCALE = 1 / 8
#: road maps per round; averaging over several seeded maps keeps the
#: per-round simulated totals steady across seeds.
ROAD_GRAPHS = 6
#: Synthetic at 1/16 of its harness scale: 32,768 vertices, a 4,096-wide
#: plateau, the smallest size whose plateau still exceeds Fiji's 3,584
#: persistent threads at 56 workgroups.
SYNTH_SCALE = 1 / 16
SHARDS = 4
STEAL_QUANTUM = 32
#: small enough that the road frontier crosses several segment
#: boundaries, so segment linking runs.
GROW_SEG_CAP = 512
#: one shared-sweep group (fig1+fig5) plus five singleton groups.
HARNESS_IDS = ["fig1", "fig5", "tab5", "tab6", "fig3", "tab1", "tab2"]
HARNESS_JOBS = 2
#: quick mode at 1/64 of its dataset scale, so a run holds several rounds;
#: the quick-scale shared group alone takes about 40 s.
HARNESS_SCALE = 1 / 64
#: set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 9
#: ``calibration_s`` on the reference host: the 2-core x86-64 VM the
#: nominal round times below were measured on.
CAL_REF_S = 0.0035
#: a run stops after the round that takes it past this many times its
#: nominal length (see overran).
OVERRUN = 1.25
#: nominal seconds per round on a 2-core x86-64 VM (see rounds_for).
ROUND_S = {
    "road_rfan": 5.0,
    "synthetic_cas": 3.0,
    "road_composed_flight": 21.0,
    "harness_jobs2": 3.8,
}

#: what a failed job raises; anything else is a benchmark bug and aborts.
FAILURES = (
    QueueFull,
    QueueFullError,
    WedgeError,
    SimulationTimeout,
    AssertionError,
)

OUT_DIR = Path(__file__).resolve().parent / ".out"


# ----------------------------------------------------------------------
# metric collection
# ----------------------------------------------------------------------
@dataclass
class Report:
    """Metrics of one workload run, with the details printed beside them."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, dict] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value, unit: str, detail: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit, "detail": detail}

    def ratio(self, name: str, num, den, num_label: str, den_label: str) -> None:
        value = num / den if den else 0.0
        self.add(
            name, value, "fraction",
            f"{num_label} {num:.6g} / {den_label} {den:.6g}",
        )

    def fail(self, job: str, error: str) -> None:
        self.failed += 1
        print(
            f"FAILED workload={self.workload} job={job} seed={self.seed}: {error}",
            flush=True,
        )


def tail(samples: List[float]):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with ten samples or fewer no such
    percentile exists and the maximum stands in, reported as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    return xs[n - 11], math.floor(100 * (n - 10) / n), n


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def add_end_to_end(
    rep: Report,
    job_s: List[float],
    ops: int,
    ops_seconds: float,
    ops_base: str,
    rounds: List[float],
    setup: List[float],
    cycles: int,
) -> None:
    rep.add(
        "sim_ops_per_s", ops / ops_seconds, "ops/s",
        f"issued ops {ops} / {ops_base} {ops_seconds:.4f} s",
    )
    rep.add(
        "job_s_p50", statistics.median(job_s), "s", f"n={len(job_s)} jobs"
    )
    value, pct, n = tail(job_s)
    rep.add("job_s_tail", value, "s", f"p{pct} of n={n} jobs")
    rep.add(
        "wall_s", statistics.fmean(rounds), "s",
        f"mean seconds per round, n={len(rounds)} rounds",
    )
    rep.add(
        "setup_s", statistics.median(setup), "s",
        f"median of n={len(setup)} set-ups",
    )
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss, self or largest child")
    rep.add("sim_cycles", cycles, "cycles", "simulated cycles per round")


def digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def calibration_s() -> float:
    """Host seconds for a fixed kernel that runs no repository code.

    The kernel mixes what the simulator's host loop does: heap pushes and
    pops, generator resumes, dict stores and small NumPy ops.  Its time
    tracks the host's momentary speed.  It is the median of three short
    timings, so one interrupted timing does not skew it.
    """
    return statistics.median(_kernel_s() for _ in range(3))


def _kernel_s() -> float:
    """One timing of the calibration kernel."""

    def echo():
        value = None
        while True:
            value = yield value

    gen = echo()
    next(gen)
    heap: list = []
    table: dict = {}
    arr = np.arange(64, dtype=np.int64)
    t0 = perf_counter()
    for i in range(2000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 255] = gen.send(i)
        if i % 8 == 0:
            arr = np.minimum(arr, arr[::-1] + 1)
    return perf_counter() - t0


class HostSpeed:
    """Scales host seconds to the reference host's speed.

    A shared VM's speed swings by up to 25% within seconds, with other
    tenants' load.  The benchmark therefore times ``calibration_s``
    between jobs.  It scales each interval by ``CAL_REF_S`` over the mean
    of the two calibrations around it.  The kernel runs no repository
    code, so a change to the program moves the scaled time in the same
    proportion as the raw time.
    """

    def __init__(self) -> None:
        self.last = calibration_s()
        self.factors: List[float] = []

    def factor(self) -> float:
        """Scale for the interval since the previous calibration."""
        now = calibration_s()
        f = 2 * CAL_REF_S / (self.last + now)
        self.last = now
        self.factors.append(f)
        return f

    def note(self) -> str:
        return (
            f"host speed scale: median {statistics.median(self.factors):.4f} "
            f"over {len(self.factors)} intervals (calibration "
            f"{self.last * 1e3:.2f} ms now, {CAL_REF_S * 1e3:.2f} ms on "
            "the reference host)"
        )


# ----------------------------------------------------------------------
# BFS inputs and jobs
# ----------------------------------------------------------------------
@dataclass
class BfsInput:
    label: str
    graph: CSRGraph
    source: int


@dataclass
class BfsJob:
    name: str
    variant: str
    inp: BfsInput
    #: capacity -> queue; every job builds its queue through a factory so
    #: a traced run can wrap it.
    queue: Callable[[int], object]
    capacity: Optional[int] = None
    flight: bool = False


@dataclass
class BfsOutcome:
    seconds: float
    digest: str
    stats: object
    exec_counts: Dict[str, int]
    path_counts: Dict[str, int]
    flight_events: int = 0
    verify_s: float = 0.0
    layers: Optional[LayerClock] = None


def road_inputs(seed: int) -> List[BfsInput]:
    spec = dataset("USA-road-d.NY")
    side = math.isqrt(int(spec.paper_vertices * spec.default_scale * ROAD_SCALE))
    return [
        BfsInput(
            f"road{i}",
            roadmap_graph(side, side, seed=seed * ROAD_GRAPHS + i, name=spec.name),
            spec.source,
        )
        for i in range(ROAD_GRAPHS)
    ]


def synthetic_inputs(seed: int) -> List[BfsInput]:
    spec = dataset("Synthetic")
    base = spec.build(spec.default_scale * SYNTH_SCALE)
    perm = np.random.default_rng(seed).permutation(base.n_vertices)
    graph = CSRGraph.from_edges(
        base.n_vertices, perm[base.to_edges()], name=spec.name
    )
    return [BfsInput("synthetic", graph, int(perm[spec.source]))]


def road_rfan_jobs(inputs: List[BfsInput]) -> List[BfsJob]:
    return [
        BfsJob(f"RF/AN {i.label}", "RF/AN", i, partial(make_queue, "RF/AN"))
        for i in inputs
    ]


def synthetic_cas_jobs(inputs: List[BfsInput]) -> List[BfsJob]:
    return [
        BfsJob(f"{v} {i.label}", v, i, partial(make_queue, v))
        for i in inputs
        for v in ("BASE", "AN", "RF/AN")
    ]


def _sharded(per_shard: int, _capacity: int) -> ShardedQueue:
    return ShardedQueue(
        per_shard, n_shards=SHARDS, steal=True,
        steal_quantum=STEAL_QUANTUM, spin_threshold=1,
    )


def _grow(capacity: int) -> GrowQueue:
    return GrowQueue(capacity, seg_cap=GROW_SEG_CAP)


def composed_jobs(inputs: List[BfsInput]) -> List[BfsJob]:
    jobs = []
    for i in inputs:
        cap = bfs_queue_capacity(i.graph, FIJI, WORKGROUPS)
        per_shard = cap // SHARDS + max(64, 16 * STEAL_QUANTUM)
        jobs.append(
            BfsJob(f"SHARDED {i.label}", "SHARDED", i,
                   partial(_sharded, per_shard), cap, flight=True)
        )
        jobs.append(
            BfsJob(f"GROW {i.label}", "GROW", i, _grow, cap, flight=True)
        )
    return jobs


def stage(job: BfsJob) -> None:
    """Buffer allocation and queue seeding for one job (set-up timing)."""
    g, src = job.inp.graph, job.inp.source
    engine = Engine(FIJI)
    alloc_graph_buffers(engine.memory, g, src)
    queue = job.queue(job.capacity or bfs_queue_capacity(g, FIJI, WORKGROUPS))
    queue.allocate(engine.memory)
    queue.seed(engine.memory, [src])
    sched = SchedulerControl()
    sched.allocate(engine.memory)
    sched.seed(engine.memory, 1)


def run_bfs_job(
    job: BfsJob, spans: Optional[SpanLog] = None, job_id: int = 0
) -> BfsOutcome:
    """One verified launch; traced when ``spans`` is given."""
    from repro.obs.flight import FlightSession

    x0 = dict(EXEC_COUNTS)
    p0 = dict(PATH_COUNTS)
    clock = LayerClock() if spans is not None else None
    launches: List[tuple] = []
    factory = job.queue if clock is None else (
        lambda cap: clock.queue(job.queue(cap))
    )
    events = 0
    t0 = perf_counter()
    with ExitStack() as stack:
        flight = (
            stack.enter_context(FlightSession(watchdog=True))
            if job.flight else None
        )
        if clock is not None:
            stack.enter_context(instrumented(clock, launches))
        run = run_persistent_bfs(
            job.inp.graph, job.inp.source, job.variant, FIJI, WORKGROUPS,
            queue_factory=factory, capacity=job.capacity,
        )
        if flight is not None and flight.last is not None:
            events = flight.last.issues
    t1 = perf_counter()
    run.verify(job.inp.graph, job.inp.source)
    t2 = perf_counter()
    out = BfsOutcome(
        seconds=t2 - t0,
        digest=digest(int(run.cycles), run.stats.snapshot()),
        stats=run.stats,
        exec_counts={k: v - x0[k] for k, v in EXEC_COUNTS.items()},
        path_counts={k: v - p0[k] for k, v in PATH_COUNTS.items()},
        flight_events=events,
        verify_s=t2 - t1,
        layers=clock,
    )
    if spans is not None:
        root = spans.add("job", t0, t2, job_id, label=job.name)
        call = spans.add("run_persistent_bfs", t0, t1, job_id, root)
        for start, end in launches:
            launch = spans.add("Engine.launch", start, end, job_id, call)
        ids = {}
        for layer in (SIMT, SCHED, QUEUE, WORKER, OBS):
            ids[layer] = spans.add(
                LAYERS[layer], start, end, job_id,
                ids[SCHED] if layer in (QUEUE, WORKER) else launch,
                aggregate=True, self_s=clock.self_s[layer],
                calls=clock.calls[layer],
            )
        spans.add("BFSRun.verify", t1, t2, job_id, root)
    return out


BFS_WORKLOADS = {
    "road_rfan": (road_inputs, road_rfan_jobs),
    "synthetic_cas": (synthetic_inputs, synthetic_cas_jobs),
    "road_composed_flight": (road_inputs, composed_jobs),
}


def bfs_setup(name: str, seed: int, speed: HostSpeed):
    """Generate inputs and stage every job, ``SETUP_REPS`` times.

    Returns the jobs, the scaled set-up seconds of each repetition and
    the raw input-generation seconds of each.
    """
    make_inputs, make_jobs = BFS_WORKLOADS[name]
    setup_s, build_s = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        inputs = make_inputs(seed)
        t1 = perf_counter()
        jobs = make_jobs(inputs)
        for job in jobs:
            stage(job)
        t2 = perf_counter()
        build_s.append(t1 - t0)
        setup_s.append((t2 - t0) * speed.factor())
    return jobs, setup_s, build_s


@dataclass
class BfsTotals:
    """Sums over a set of job outcomes."""

    jobs: int = 0
    seconds: float = 0.0
    verify_s: float = 0.0
    cycles: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    layers: List[float] = field(default_factory=lambda: [0.0] * len(LAYERS))
    calls: List[int] = field(default_factory=lambda: [0] * len(LAYERS))

    def add(self, out: BfsOutcome) -> None:
        self.jobs += 1
        self.seconds += out.seconds
        self.verify_s += out.verify_s
        st = out.stats
        self.cycles += int(st.sim_cycles)
        c = self.counters
        for key, value in (
            ("issued_ops", st.issued_ops),
            ("cas_attempts", st.cas_attempts),
            ("cas_failures", st.cas_failures),
            ("atomic_service_cycles", st.atomic_service_cycles),
            ("cu_busy_cycles", st.cu_busy_cycles),
            ("mem_transactions", st.mem_transactions),
            ("flight_events", out.flight_events),
            *st.custom.items(),
            *out.exec_counts.items(),
            *out.path_counts.items(),
        ):
            c[key] = c.get(key, 0) + int(value)
        if out.layers is not None:
            for i in range(len(LAYERS)):
                self.layers[i] += out.layers.self_s[i]
                self.calls[i] += out.layers.calls[i]

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)


def check_bfs_guards(name: str, t: BfsTotals) -> None:
    """Fail loudly when a workload stops exercising its mechanism."""
    guards = {
        "road_rfan": [("reads_elided", "elided reads")],
        "synthetic_cas": [
            ("cas_failures", "CAS failures"),
            ("atomics_general", "general atomic batches"),
        ],
        "road_composed_flight": [
            ("queue.steal_attempts", "steal attempts"),
            ("queue.grow.segment_links", "segment links"),
            ("flight_events", "flight-recorded events"),
        ],
    }[name]
    for key, label in guards:
        if t.get(key) <= 0:
            raise SystemExit(
                f"{name}: no {label} ({key} = {t.get(key)}); the workload "
                "no longer exercises the mechanism it exists to measure"
            )


def rounds_for(name: str, seconds: float, trace: bool) -> int:
    """Rounds a run measures: ``seconds`` of nominal round time.

    The count depends only on the arguments, never on how fast this
    machine happens to be, so every run of a workload does the same work
    and its percentiles cover the same number of samples.  A traced run
    runs each job twice and so measures half as many rounds.
    """
    n = max(1, round(seconds / ROUND_S[name]))
    return max(1, n // 2) if trace else n


def overran(t_start: float, seconds: float) -> bool:
    """True once a run has taken ``OVERRUN`` times its nominal length.

    Checked between rounds: a machine much slower than the nominal one
    then measures fewer rounds instead of overrunning its time budget.
    """
    return perf_counter() - t_start > OVERRUN * seconds


def run_bfs(name: str, seed: int, seconds: float, trace: bool) -> Report:
    rep = Report(name, seed)
    speed = HostSpeed()
    jobs, setup_s, build_s = bfs_setup(name, seed, speed)
    reference: Dict[int, str] = {}
    job_s: List[float] = []
    rounds: List[float] = []
    first = BfsTotals()
    untraced = BfsTotals()
    traced = BfsTotals()
    traced_s = 0.0
    spans = SpanLog() if trace else None

    def attempt(i: int, job: BfsJob, traced_run: bool):
        rep.attempted += 1
        try:
            out = run_bfs_job(
                job, spans if traced_run else None, rep.attempted
            )
        except FAILURES as exc:
            rep.fail(job.name, f"{type(exc).__name__}: {exc}")
            return None
        if i not in reference:
            reference[i] = out.digest
            first.add(out)
        elif out.digest != reference[i]:
            kind = "traced" if traced_run else "repeat"
            rep.fail(
                job.name, f"{kind} digest {out.digest} != first {reference[i]}"
            )
            return None
        return out

    # warm-up: lazy set-up and caches settle before anything is timed;
    # the job still counts as attempted and fixes job 0's digest.
    attempt(0, jobs[0], False)
    speed.factor()
    n_rounds = 0
    t_start = perf_counter()
    while (n_rounds < rounds_for(name, seconds, trace)
           and not overran(t_start, seconds)):
        n_rounds += 1
        round_s = 0.0
        for i, job in enumerate(jobs):
            out = attempt(i, job, False)
            scale = speed.factor()
            if out is not None:
                untraced.add(out)
                job_s.append(out.seconds * scale)
                round_s += job_s[-1]
            if trace:
                out = attempt(i, job, True)
                scale = speed.factor()
                if out is not None:
                    traced.add(out)
                    traced_s += out.seconds * scale
        rounds.append(round_s)

    check_bfs_guards(name, untraced)
    if not first.jobs:
        raise SystemExit(f"{name}: every job failed")
    rep.notes.append(
        f"{len(jobs)} jobs per round: " + ", ".join(j.name for j in jobs)
    )
    if not trace:
        add_end_to_end(
            rep, job_s, untraced.get("issued_ops"), sum(job_s), "job time",
            rounds, setup_s, first.cycles,
        )
        rep.notes.append(speed.note())
    else:
        add_bfs_layers(rep, traced, n_rounds, build_s)
        rep.ratio("trace.overhead_frac", traced_s - sum(job_s), sum(job_s),
                  "traced minus untraced job s", "untraced job s (scaled)")
        attributed = sum(traced.layers) + traced.verify_s
        rep.notes.append(
            f"layer self times + verify = {attributed:.4f} s of "
            f"{traced.seconds:.4f} s traced job time; unattributed "
            f"{1 - attributed / traced.seconds:.4f}, trace.overhead_frac "
            f"{rep.metrics['trace.overhead_frac']['value']:.4f}"
        )
        spans.write(
            OUT_DIR / f"spans-{name}-seed{seed}.json",
            {"workload": name, "seed": seed, "rounds": n_rounds},
        )
        rep.notes.append(
            f"spans: {len(spans.spans)} written to "
            f"{OUT_DIR.name}/spans-{name}-seed{seed}.json"
        )
    return rep


def add_bfs_layers(
    rep: Report, t: BfsTotals, rounds: int, build_s: List[float]
) -> None:
    """Per-layer metrics, per round of traced jobs."""
    per = 1 / rounds
    ops = t.get("issued_ops")
    s = t.layers
    calls = t.calls
    rep.add("simt.self_s", s[SIMT] * per, "s",
            "Engine.launch minus kernel and observer time, per round")
    rep.add(
        "simt.self_us_per_op", s[SIMT] / ops * 1e6 if ops else 0.0, "us/op",
        f"simt self {s[SIMT]:.4f} s / issued ops {ops}",
    )
    reads = sum(
        t.get(k) for k in ("reads_vector", "reads_elided", "reads_scalar")
    )
    writes = t.get("writes_vector") + t.get("writes_scalar")
    rep.ratio("simt.reads_elided_frac", t.get("reads_elided"), reads,
              "reads_elided", "read completions")
    rep.ratio("simt.atomics_general_frac", t.get("atomics_general"),
              sum(t.get(k) for k in PATH_COUNTS),
              "atomics_general", "atomic batches")
    rep.ratio("simt.scalar_fallback_frac",
              t.get("reads_scalar") + t.get("writes_scalar"), reads + writes,
              "scalar reads+writes", "read+write completions")
    rep.add("core.queue.self_s", s[QUEUE] * per, "s",
            "acquire/publish self time, per round")
    rep.add("core.queue.calls", calls[QUEUE] * per, "count",
            "acquire+publish calls, per round")
    rep.add(
        "core.queue.self_us_per_call",
        s[QUEUE] / calls[QUEUE] * 1e6 if calls[QUEUE] else 0.0, "us/call",
        f"queue self {s[QUEUE]:.4f} s / calls {calls[QUEUE]}",
    )
    rep.ratio("core.queue.grant_ratio", t.get("queue.dequeued_tokens"),
              t.get("queue.dequeue_requests"),
              "queue.dequeued_tokens", "queue.dequeue_requests")
    rep.add("core.scheduler.self_s", s[SCHED] * per, "s",
            "kernel generator self time, per round")
    lane_cycles = t.get("scheduler.work_cycles") * FIJI.wavefront_size
    rep.ratio("core.scheduler.busy_lane_frac",
              lane_cycles - t.get("scheduler.idle_lane_cycles"), lane_cycles,
              "busy lane-cycles", "work_cycles x wavefront size")
    rep.add("bfs.worker.self_s", s[WORKER] * per, "s",
            "work_cycle self time, per round")
    rep.add("bfs.verify_s", t.verify_s * per, "s", "BFSRun.verify, per round")
    rep.add("graphs.build_s", statistics.median(build_s), "s",
            f"input generation, median of n={len(build_s)} set-ups")
    rep.add("obs.self_s", s[OBS] * per, "s", "observer callbacks, per round")
    rep.ratio("obs.share", s[OBS], t.seconds, "observer s", "traced job s")
    for name in ("harness.busy_s", "harness.wait_s", "harness.group_s_max"):
        rep.add(name, 0.0, "s", "no harness on this workload")
    rep.add("harness.worker_util", 0.0, "fraction",
            "no harness on this workload")
    add_sim_counters(rep, t.counters, per)


def add_sim_counters(rep: Report, c: Dict[str, int], per: float) -> None:
    """Simulated counters, per round; they repeat exactly across runs."""
    for name, unit in (("cas_failures", "count"),
                       ("atomic_service_cycles", "cycles"),
                       ("cu_busy_cycles", "cycles"),
                       ("mem_transactions", "count")):
        rep.add(f"sim.{name}", c.get(name, 0) * per, unit, "per round")
    attempts = c.get("cas_attempts", 0)
    rep.ratio("sim.cas_success_ratio", attempts - c.get("cas_failures", 0),
              attempts, "cas_successes", "cas_attempts")
    for name in ("queue.steal_hits", "queue.steal_attempts",
                 "queue.grow.segment_links"):
        rep.add(name, c.get(name, 0) * per, "count", "per round")


# ----------------------------------------------------------------------
# harness_jobs2
# ----------------------------------------------------------------------
class GroupTimes(RunObserver):
    """Parent-measured group times and the worker processes seen."""

    def __init__(self) -> None:
        self.started: Dict[int, float] = {}
        #: ``(index, group, parent seconds, error, end time)`` per group.
        self.finished: List[tuple] = []
        self.workers = 0

    def job_started(self, job, index, total) -> None:
        self.started[index] = perf_counter()

    def job_finished(self, job, index, total, elapsed, error=None) -> None:
        self.finished.append((index, job, elapsed, error, perf_counter()))
        self.workers = max(
            self.workers, len(multiprocessing.active_children())
        )


def run_harness(seed: int, seconds: float, trace: bool) -> Report:
    """``run_many`` rounds; the registry datasets ignore the seed."""
    from repro.harness import HarnessConfig
    from repro.harness.experiments import plan_groups, run_many
    from repro.obs.registry import MetricsRegistry

    rep = Report("harness_jobs2", seed)
    cfg = HarnessConfig(quick=True, scale_factor=HARNESS_SCALE)
    speed = HostSpeed()
    setup_s, build_s = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        for name in ALL_DATASETS:
            cfg.build(name)
        build_s.append(perf_counter() - t0)
        setup_s.append(build_s[-1] * speed.factor())
    n_groups = len(plan_groups(HARNESS_IDS))
    spans = SpanLog() if trace else None
    reference: Optional[str] = None
    group_s: List[float] = []
    rounds: List[float] = []
    traced_rounds: List[float] = []
    traced_scaled = 0.0
    busy = wait = group_max = 0.0
    workers = 0
    ops = 0
    cycles = 0
    counters: Dict[str, int] = {}

    def one_round(round_no: int, traced_run: bool, warm: bool = False) -> None:
        nonlocal reference, workers, ops, cycles
        nonlocal traced_scaled, busy, wait, group_max
        obs = GroupTimes()
        reg = MetricsRegistry()
        rep.attempted += n_groups
        t0 = perf_counter()
        try:
            results = run_many(
                cfg, HARNESS_IDS, jobs=HARNESS_JOBS, observer=obs, registry=reg
            )
        except FAILURES as exc:
            errors = [f for f in obs.finished if f[3]] or [(0, "?", 0, repr(exc))]
            for _, job, _, error, _ in errors:
                rep.fail(job, error)
            return
        wall = perf_counter() - t0
        scale = speed.factor()
        sims = {k: v for k, v in reg.scalars().items()
                if k.startswith(("sim.", "queue."))}
        got = digest([[r.exp_id, r.text, r.data] for r in results], sims)
        if reference is None:
            reference = got
            cycles = sims.get("sim.cycles", 0)
            ops = sims.get("sim.issued_ops", 0)
            for k, v in sims.items():
                counters[k.removeprefix("sim.")] = v
            counters["cas_attempts"] = sims.get("sim.atomic_requests.cas", 0)
        elif got != reference:
            kind = "traced" if traced_run else "repeat"
            for _, job, _, _, _ in obs.finished:
                rep.fail(job, f"{kind} digest {got} != first {reference}")
            return
        if warm:
            return
        parent = [f[2] for f in obs.finished]
        workers = max(workers, obs.workers)
        if traced_run:
            traced_rounds.append(wall)
            traced_scaled += wall * scale
            busy += sum(r.elapsed for r in results)
            wait += sum(parent) - sum(r.elapsed for r in results)
            group_max = max(group_max, *parent)
            root = spans.add("run_many", t0, t0 + wall, round_no,
                             jobs=HARNESS_JOBS)
            elapsed_of = {r.exp_id: r.elapsed for r in results}
            for index, job, elapsed, _, end in obs.finished:
                spans.add(
                    "group", obs.started[index], end, round_no, root,
                    group=job,
                    busy_s=sum(elapsed_of[e] for e in job.split("+")),
                )
        else:
            rounds.append(wall * scale)
            group_s.extend(x * scale for x in parent)

    # warm-up round: untimed, but checked and counted like the others
    one_round(-1, False, warm=True)
    t_start = perf_counter()
    for round_no in range(rounds_for("harness_jobs2", seconds, trace)):
        if overran(t_start, seconds):
            break
        one_round(round_no, False)
        if trace:
            one_round(round_no, True)

    if n_groups < 2 or workers < 2:
        raise SystemExit(
            f"harness_jobs2: {n_groups} groups ran on {workers} worker "
            "process(es); the workload must dispatch at least two groups "
            "to two workers"
        )
    if not rounds:
        raise SystemExit("harness_jobs2: every round failed")
    if not trace:
        add_end_to_end(
            rep, group_s, ops * len(rounds), sum(rounds), "round wall",
            rounds, setup_s, cycles,
        )
        rep.notes.append(speed.note())
    rep.notes.append(
        f"{n_groups} groups per round over {HARNESS_JOBS} workers "
        f"(at most {workers} seen alive): {plan_groups(HARNESS_IDS)}"
    )
    if trace:
        n = len(traced_rounds)
        per = 1 / n
        for name in ("simt.self_s", "core.queue.self_s", "core.scheduler.self_s",
                     "bfs.worker.self_s", "bfs.verify_s", "obs.self_s"):
            rep.add(name, 0.0, "s", "worker processes are not traced")
        for name, unit in (("simt.self_us_per_op", "us/op"),
                           ("core.queue.self_us_per_call", "us/call"),
                           ("core.queue.calls", "count")):
            rep.add(name, 0.0, unit, "worker processes are not traced")
        for name in ("simt.reads_elided_frac", "simt.atomics_general_frac",
                     "simt.scalar_fallback_frac", "core.queue.grant_ratio",
                     "core.scheduler.busy_lane_frac", "obs.share"):
            rep.add(name, 0.0, "fraction", "worker processes are not traced")
        rep.add("graphs.build_s", statistics.median(build_s), "s",
                f"registry dataset builds, median of n={len(build_s)} set-ups")
        rep.add("harness.busy_s", busy * per, "s",
                "sum of ExperimentResult.elapsed, per round")
        rep.add("harness.wait_s", wait * per, "s",
                "parent group s minus busy s, per round")
        rep.ratio("harness.worker_util", busy,
                  sum(traced_rounds) * HARNESS_JOBS, "busy s", "wall s x jobs")
        rep.add("harness.group_s_max", group_max, "s", "slowest group")
        add_sim_counters(rep, counters, 1)
        rep.ratio("trace.overhead_frac", traced_scaled - sum(rounds),
                  sum(rounds), "traced minus untraced round s",
                  "untraced round s (scaled)")
        spans.write(
            OUT_DIR / f"spans-harness_jobs2-seed{seed}.json",
            {"workload": "harness_jobs2", "seed": seed, "rounds": n},
        )
    return rep


WORKLOADS = ["road_rfan", "synthetic_cas", "road_composed_flight", "harness_jobs2"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Report:
    """End-to-end metrics untraced, per-layer metrics traced."""
    if name == "harness_jobs2":
        rep = run_harness(seed, seconds, trace)
    else:
        rep = run_bfs(name, seed, seconds, trace)
    rep.ratio(
        "failed_frac", rep.failed, rep.attempted, "failed jobs", "attempted jobs"
    )
    return rep
