#!/usr/bin/env python3
"""Engine hot-path wall-clock benchmark — emits BENCH_engine.json.

The simulator's *results* are deterministic, so the interesting number
here is host wall-clock throughput of the discrete-event engine itself.
Two fixed workloads:

* ``soup`` — a mixed-op kernel exercising every issue path of the engine
  (compute, LDS, fence, gather, scatter, hot atomic) with precomputed
  index vectors, so event-loop overhead dominates and kernel-side NumPy
  churn does not mask it.  Reported as issued ops per second.
* ``bfs`` — one fixed persistent-BFS launch (RF/AN, Fiji, 56 workgroups
  on the NY roadmap stand-in at 1/8 harness scale): the end-to-end cost
  a harness experiment actually pays per launch.

The sharded composition gets two datapoints: ``bfs_sharded`` (same
road graph — steals never trigger, because the frontier never outruns
one shard's watchers, so it isolates the composition's bookkeeping
overhead) and ``bfs_sharded_imbalanced`` (the Synthetic plateau burst:
one wavefront floods its home shard, thieves drain it; the run fails
outright if no steal lands, so the stealing path stays exercised).

``--harness`` additionally times the full ``--quick`` harness through
:func:`repro.harness.experiments.run_many` — sequentially
(``harness_quick``) and, when ``--jobs``/cpu count allows more than one
worker, process-parallel (``harness_quick_parallel``), so the speedup
of ``--jobs N`` is itself a tracked datapoint.

Unless ``--no-ledger`` is passed, every invocation also records its
report in the run ledger (``results/ledger`` or ``$REPRO_LEDGER``; see
``python -m repro.harness runs`` and ``tools/bench_diff.py``).

Run from the repo root::

    PYTHONPATH=src python tools/bench_engine.py --out BENCH_engine.json

Pass ``--baseline other.json`` (produced by this tool on another
revision) to record speedup factors; the tool refuses to compare runs
whose simulated cycle counts differ, because a perf change that alters
simulation results is a correctness bug, not a speedup.

``--guard`` (requires ``--baseline``) turns the comparison into an
overhead gate: the run fails if any benchmark is slower than
``baseline * (1 + --guard-tolerance)``.  CI uses this to pin the
zero-cost-when-disabled contract of the observability probes — the
probes-off hot path must stay within noise of the recorded baseline.
The same gate also budgets the always-on flight recorder: the
``flight`` datapoint re-runs the ``bfs`` launch with the recorder and
liveness watchdog attached, and ``--guard`` fails when its measured
``overhead_frac`` exceeds ``--flight-budget`` (and likewise the GROW
launch's simulated-cycle overhead against ``--grow-budget``).  Every
check runs and is recorded (``report["guard"]["failed"]`` names the
failed ones) before the report is written; the tool then exits
non-zero naming each check that failed.

``--vector-guard`` (no baseline needed) checks measured throughput
against the absolute floors recorded in the regression-sentinel rule
table (:data:`repro.obs.regress.DEFAULT_RULES`): the CI
``bench-vector-guard`` step uses it to fail any change that loses the
vectorized execution path, which relative comparisons can miss.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.simt import (
    FIJI,
    AtomicKind,
    AtomicRMW,
    Compute,
    Engine,
    Fence,
    GlobalMemory,
    LocalOp,
    MemRead,
    MemWrite,
)
from repro.simt.engine import transactions_for

SOUP_ROUNDS = 400
SOUP_WAVEFRONTS = 56
SOUP_DATA_WORDS = 4096
BFS_DATASET = "USA-road-d.NY"
BFS_SCALE = 0.125
BFS_WORKGROUPS = 56
BFS_SHARDS = 4
BFS_STEAL_QUANTUM = 32
GROW_SEG_CAP = 512
IMB_DATASET = "Synthetic"
IMB_SCALE = 0.125


def soup_kernel(ctx):
    """Mixed op soup: every issue path, engine-bound by construction.

    Uses the same hot-loop idioms as the queue kernels (frozen address
    vector, precomputed transaction count, reused prechecked read op,
    hoisted cost-only ops) so the bench measures the engine, not op
    allocation; the simulated op stream is identical either way.
    """
    idx = (ctx.global_thread_base + ctx.lane) % SOUP_DATA_WORDS
    idx.setflags(write=False)
    tr = transactions_for(idx)
    comp = Compute(2)
    loc = LocalOp(4)
    fence = Fence()
    for i in range(SOUP_ROUNDS):
        yield comp
        # a fresh read each round: the values change every round, so a
        # parked op would never elide and would only add bookkeeping.
        yield MemRead("data", idx, trans=tr, prechecked=True)
        yield loc
        # MemWrite allocated per round: its values must stay live until
        # the buffered store commits, which can be several ops later.
        yield MemWrite("data", idx, i, trans=tr, prechecked=True)
        if i % 8 == 0:
            yield AtomicRMW("ctrl", 0, AtomicKind.ADD, 1)
        if i % 16 == 0:
            yield fence


def bench_soup(repeats: int = 3) -> dict:
    """Best-of-N wall time for the soup kernel on a fresh engine."""
    best = None
    for _ in range(repeats):
        mem = GlobalMemory()
        mem.alloc("data", SOUP_DATA_WORDS, fill=0)
        mem.alloc("ctrl", 4, fill=0)
        eng = Engine(FIJI, mem)
        t0 = time.perf_counter()
        res = eng.launch(soup_kernel, SOUP_WAVEFRONTS)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, res)
    dt, res = best
    return {
        "seconds": round(dt, 4),
        "issued_ops": int(res.stats.issued_ops),
        "cycles": int(res.cycles),
        "ops_per_sec": int(res.stats.issued_ops / dt),
    }


def bench_bfs(repeats: int = 3) -> dict:
    """Best-of-N wall time for one fixed persistent-BFS launch."""
    from repro.bfs import run_persistent_bfs
    from repro.graphs import dataset

    spec = dataset(BFS_DATASET)
    g = spec.build(spec.default_scale * BFS_SCALE)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = run_persistent_bfs(
            g, spec.source, "RF/AN", FIJI, BFS_WORKGROUPS, verify=False
        )
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, run)
    dt, run = best
    return {
        "seconds": round(dt, 4),
        "issued_ops": int(run.stats.issued_ops),
        "cycles": int(run.cycles),
        "ops_per_sec": int(run.stats.issued_ops / dt),
    }


def bench_bfs_flight(repeats: int, bare_bfs: dict) -> dict:
    """The ``bfs`` launch with the flight recorder + watchdog attached.

    The flight recorder is the one probe meant to fly on *every* run
    (``--flight``), so its overhead is a first-class datapoint:
    ``overhead_frac`` is the fractional wall-clock cost over the bare
    ``bfs`` launch measured in the same process.  The run refuses to
    report if the recorded launch's simulated results differ from the
    bare launch — recording must be passive.
    """
    from repro.bfs import run_persistent_bfs
    from repro.graphs import dataset
    from repro.obs.flight import FlightSession

    spec = dataset(BFS_DATASET)
    g = spec.build(spec.default_scale * BFS_SCALE)
    best = None
    for _ in range(repeats):
        with FlightSession(watchdog=True):
            t0 = time.perf_counter()
            run = run_persistent_bfs(
                g, spec.source, "RF/AN", FIJI, BFS_WORKGROUPS, verify=False
            )
            dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, run)
    dt, run = best
    if (int(run.cycles) != bare_bfs["cycles"]
            or int(run.stats.issued_ops) != bare_bfs["issued_ops"]):
        raise SystemExit(
            "flight-recorded bfs changed simulated results "
            f"(cycles {bare_bfs['cycles']} -> {int(run.cycles)}, "
            f"issued_ops {bare_bfs['issued_ops']} -> "
            f"{int(run.stats.issued_ops)}); the flight recorder must be "
            "passive"
        )
    return {
        "seconds": round(dt, 4),
        "issued_ops": int(run.stats.issued_ops),
        "cycles": int(run.cycles),
        "ops_per_sec": int(run.stats.issued_ops / dt),
        "overhead_frac": round(dt / bare_bfs["seconds"] - 1.0, 4),
    }


def bench_bfs_grow(repeats: int, bare_bfs: dict) -> dict:
    """The ``bfs`` launch through ``GrowQueue`` at a non-overflowing size.

    Same graph and geometry as ``bfs``, but the queue is the
    segment-chained GROW variant with the buffer split into
    ``GROW_SEG_CAP``-slot pool segments — small enough that the BFS
    frontier crosses several segment boundaries, so the link CAS and
    drain accounting actually run (asserted: a config drift that
    silently stopped linking would otherwise report a number that no
    longer measures the grow path).  At a capacity the workload never
    exhausts, that protocol is GROW's only extra cost, so
    ``overhead_frac`` — measured in *simulated cycles* against the bare
    ``bfs`` launch, and therefore deterministic and noise-free — is the
    price of graceful capacity when you do not need it.  ``--guard``
    fails the run when it exceeds ``--grow-budget``.
    """
    from repro.bfs import run_persistent_bfs
    from repro.bfs.common import bfs_queue_capacity
    from repro.core import GrowQueue
    from repro.graphs import dataset

    spec = dataset(BFS_DATASET)
    g = spec.build(spec.default_scale * BFS_SCALE)
    cap = bfs_queue_capacity(g, FIJI, BFS_WORKGROUPS)

    def factory(_cap):
        return GrowQueue(_cap, seg_cap=GROW_SEG_CAP)

    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = run_persistent_bfs(
            g, spec.source, "GROW", FIJI, BFS_WORKGROUPS,
            verify=False, queue_factory=factory, capacity=cap,
        )
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, run)
    dt, run = best
    links = int(run.stats.custom.get("queue.grow.segment_links", 0))
    if links <= 0:
        raise SystemExit(
            "bfs_grow linked no segments — the config no longer "
            "exercises the segment-chaining path"
        )
    return {
        "seconds": round(dt, 4),
        "issued_ops": int(run.stats.issued_ops),
        "cycles": int(run.cycles),
        "ops_per_sec": int(run.stats.issued_ops / dt),
        "segment_links": links,
        "segment_releases": int(
            run.stats.custom.get("queue.grow.segment_releases", 0)
        ),
        "overhead_frac": round(
            run.cycles / bare_bfs["cycles"] - 1.0, 4
        ),
    }


def bench_bfs_sharded(repeats: int = 3) -> dict:
    """Best-of-N wall time for the same BFS launch on a sharded queue.

    Same graph and geometry as ``bfs``, but through ``ShardedQueue``
    (4 shards, stealing on) and the fused-accounting sharded persistent
    kernel — the engine cost of the multi-queue composition is its own
    tracked datapoint.
    """
    from repro.bfs import run_persistent_bfs
    from repro.bfs.common import bfs_queue_capacity
    from repro.core import ShardedQueue
    from repro.graphs import dataset

    spec = dataset(BFS_DATASET)
    g = spec.build(spec.default_scale * BFS_SCALE)
    cap = bfs_queue_capacity(g, FIJI, BFS_WORKGROUPS)
    per_shard = cap // BFS_SHARDS + max(64, 16 * BFS_STEAL_QUANTUM)

    def factory(_cap):
        return ShardedQueue(
            per_shard, n_shards=BFS_SHARDS, steal=True,
            steal_quantum=BFS_STEAL_QUANTUM, spin_threshold=1,
        )

    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = run_persistent_bfs(
            g, spec.source, "SHARDED", FIJI, BFS_WORKGROUPS,
            verify=False, queue_factory=factory, capacity=cap,
        )
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, run)
    dt, run = best
    return {
        "seconds": round(dt, 4),
        "issued_ops": int(run.stats.issued_ops),
        "cycles": int(run.cycles),
        "ops_per_sec": int(run.stats.issued_ops / dt),
        "steal_hits": int(run.stats.custom.get("queue.steal_hits", 0)),
    }


def bench_bfs_sharded_imbalanced(repeats: int = 3) -> dict:
    """Sharded BFS under an imbalanced frontier — steals must land.

    The road-graph ``bfs_sharded`` config never steals: its frontier
    grows slowly, so every published token is reserved by a watcher on
    the publishing wavefront's home shard before any surplus forms.
    Here the Synthetic plateau makes the source's expansion flood one
    shard with thousands of tokens at once — far more than that shard's
    resident lanes — so thieves on the other shards find surplus and
    the cross-shard transfer path is what this datapoint times.

    The run *asserts* ``steal_hits > 0``: a configuration drift that
    silently stopped stealing would otherwise keep reporting a number
    that no longer measures the steal path.
    """
    from repro.bfs import run_persistent_bfs
    from repro.bfs.common import bfs_queue_capacity
    from repro.core import ShardedQueue
    from repro.graphs import dataset

    spec = dataset(IMB_DATASET)
    g = spec.build(spec.default_scale * IMB_SCALE)
    cap = bfs_queue_capacity(g, FIJI, BFS_WORKGROUPS)
    per_shard = cap // BFS_SHARDS + max(64, 16 * BFS_STEAL_QUANTUM)

    def factory(_cap):
        return ShardedQueue(
            per_shard, n_shards=BFS_SHARDS, steal=True,
            steal_quantum=BFS_STEAL_QUANTUM, spin_threshold=1,
        )

    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = run_persistent_bfs(
            g, spec.source, "SHARDED", FIJI, BFS_WORKGROUPS,
            verify=False, queue_factory=factory, capacity=cap,
        )
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, run)
    dt, run = best
    steal_hits = int(run.stats.custom.get("queue.steal_hits", 0))
    if steal_hits <= 0:
        raise SystemExit(
            "bfs_sharded_imbalanced produced no steal hits — the "
            "imbalanced-frontier config no longer exercises the "
            "stealing path"
        )
    return {
        "seconds": round(dt, 4),
        "issued_ops": int(run.stats.issued_ops),
        "cycles": int(run.cycles),
        "ops_per_sec": int(run.stats.issued_ops / dt),
        "steal_hits": steal_hits,
        "steal_attempts": int(
            run.stats.custom.get("queue.steal_attempts", 0)
        ),
    }


def bench_harness(jobs: int) -> dict:
    """Wall time for the full --quick harness via run_many."""
    from repro.harness import HarnessConfig
    from repro.harness.experiments import EXPERIMENTS, run_many

    cfg = HarnessConfig(quick=True)
    t0 = time.perf_counter()
    run_many(cfg, list(EXPERIMENTS), jobs=jobs)
    return {"seconds": round(time.perf_counter() - t0, 1), "jobs": jobs}


def record_in_ledger(report: dict, wall: float, argv) -> None:
    """File this bench run in the run ledger (best-effort)."""
    from repro.obs.ledger import Ledger
    from repro.obs.regress import flatten_metrics

    entry = Ledger().record(
        kind="bench_engine",
        config={
            "soup_rounds": SOUP_ROUNDS,
            "soup_wavefronts": SOUP_WAVEFRONTS,
            "bfs_dataset": BFS_DATASET,
            "bfs_scale": BFS_SCALE,
            "bfs_workgroups": BFS_WORKGROUPS,
            "bfs_shards": BFS_SHARDS,
            "grow_seg_cap": GROW_SEG_CAP,
            "benchmarks": sorted(report["benchmarks"]),
        },
        metrics=flatten_metrics(report["benchmarks"]),
        wall_seconds=wall,
        argv=list(argv) if argv else None,
    )
    print(f"ledger: recorded run {entry['run_id']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json", metavar="FILE")
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="BENCH_engine.json from another revision; adds speedups",
    )
    parser.add_argument(
        "--harness", action="store_true",
        help="also time the full --quick harness (minutes)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for --harness (default: cpu count)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="single repetition per workload (CI mode)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="skip recording this bench run in the run ledger",
    )
    parser.add_argument(
        "--vector-guard", action="store_true",
        help=(
            "fail if any throughput falls below its absolute floor from "
            "the regression-sentinel rule table (repro.obs.regress); "
            "catches the vectorized hot path degenerating to the scalar "
            "reference loop, with or without a --baseline"
        ),
    )
    parser.add_argument(
        "--guard", action="store_true",
        help=(
            "fail (exit non-zero) if any benchmark runs slower than "
            "baseline * (1 + tolerance); requires --baseline"
        ),
    )
    parser.add_argument(
        "--guard-tolerance", type=float, default=0.35, metavar="FRAC",
        help=(
            "allowed slowdown fraction for --guard (default 0.35: "
            "generous, to absorb shared-CI wall-clock noise)"
        ),
    )
    parser.add_argument(
        "--grow-budget", type=float, default=0.10, metavar="FRAC",
        help=(
            "under --guard, fail if the GROW queue's simulated-cycle "
            "overhead_frac over the bare bfs launch exceeds FRAC "
            "(default 0.10: graceful capacity must cost <=10%% when "
            "the buffer never overflows; cycles-based, so noise-free)"
        ),
    )
    parser.add_argument(
        "--flight-budget", type=float, default=1.0, metavar="FRAC",
        help=(
            "under --guard, fail if the flight recorder's measured "
            "overhead_frac exceeds FRAC (default 1.0: the recorded "
            "launch may cost at most 2x the bare launch; generous for "
            "shared-CI noise — the local figure is far lower)"
        ),
    )
    args = parser.parse_args(argv)
    if args.guard and not args.baseline:
        parser.error("--guard requires --baseline")
    repeats = 1 if args.quick else 3
    t_start = time.perf_counter()

    report = {
        "generated_by": "tools/bench_engine.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": {},
    }
    print(f"soup kernel ({repeats} repeat(s))...")
    report["benchmarks"]["soup"] = bench_soup(repeats)
    print(f"  {report['benchmarks']['soup']}")
    print(f"fixed BFS launch ({repeats} repeat(s))...")
    report["benchmarks"]["bfs"] = bench_bfs(repeats)
    print(f"  {report['benchmarks']['bfs']}")
    print(f"flight-recorded BFS launch ({repeats} repeat(s))...")
    report["benchmarks"]["flight"] = bench_bfs_flight(
        repeats, report["benchmarks"]["bfs"]
    )
    print(f"  {report['benchmarks']['flight']}")
    print(f"grow-queue BFS launch ({repeats} repeat(s))...")
    report["benchmarks"]["bfs_grow"] = bench_bfs_grow(
        repeats, report["benchmarks"]["bfs"]
    )
    print(f"  {report['benchmarks']['bfs_grow']}")
    print(f"fixed sharded BFS launch ({repeats} repeat(s))...")
    report["benchmarks"]["bfs_sharded"] = bench_bfs_sharded(repeats)
    print(f"  {report['benchmarks']['bfs_sharded']}")
    print(f"imbalanced-frontier sharded BFS ({repeats} repeat(s))...")
    report["benchmarks"]["bfs_sharded_imbalanced"] = (
        bench_bfs_sharded_imbalanced(repeats)
    )
    print(f"  {report['benchmarks']['bfs_sharded_imbalanced']}")
    if args.harness:
        import os

        jobs = args.jobs or os.cpu_count() or 1
        # sequential first (the long-standing datapoint), then the
        # parallel speedup datapoint when more than one worker is usable.
        print("--quick harness with --jobs 1 (this takes minutes)...")
        report["benchmarks"]["harness_quick"] = bench_harness(1)
        print(f"  {report['benchmarks']['harness_quick']}")
        if jobs > 1:
            print(f"--quick harness with --jobs {jobs}...")
            report["benchmarks"]["harness_quick_parallel"] = bench_harness(jobs)
            print(f"  {report['benchmarks']['harness_quick_parallel']}")

    # every requested check is evaluated and recorded before the report
    # is written; the run then fails naming each check that failed.
    failed = []
    if args.vector_guard:
        from repro.obs.regress import DEFAULT_RULES, check_floors, flatten_metrics

        flat = flatten_metrics(report["benchmarks"])
        violations = check_floors(flat)
        floors = {
            r.pattern: r.floor
            for r in DEFAULT_RULES
            if r.floor is not None and r.pattern in flat
        }
        report["vector_guard"] = {
            "floors": floors,
            "passed": not violations,
            "violations": {
                name: {"value": v, "floor": f}
                for name, (v, f) in violations.items()
            },
        }
        if violations:
            detail = ", ".join(
                f"{name}={v} < floor {f}"
                for name, (v, f) in violations.items()
            )
            failed.append(f"vector-floor guard: {detail}")
        else:
            print(f"vector guard passed (floors: {floors})")

    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        report["baseline"] = base["benchmarks"]
        speedup = {}
        for name, cur in report["benchmarks"].items():
            ref = base["benchmarks"].get(name)
            if not ref:
                continue
            for key in ("cycles", "issued_ops"):
                if key in ref and ref[key] != cur[key]:
                    raise SystemExit(
                        f"{name}: simulated {key} changed "
                        f"({ref[key]} -> {cur[key]}); refusing to report a "
                        "speedup over a run with different results"
                    )
            speedup[name] = round(ref["seconds"] / cur["seconds"], 2)
        report["speedup_vs_baseline"] = speedup
        print(f"speedup vs {args.baseline}: {speedup}")

        if args.guard:
            tol = args.guard_tolerance
            slow = {
                name: f"{cur['seconds']}s vs {base['benchmarks'][name]['seconds']}s"
                for name, cur in report["benchmarks"].items()
                if name in base["benchmarks"]
                and cur["seconds"]
                > base["benchmarks"][name]["seconds"] * (1.0 + tol)
            }
            frac = report["benchmarks"]["flight"]["overhead_frac"]
            gfrac = report["benchmarks"]["bfs_grow"]["overhead_frac"]
            checks = {
                "wall-clock": (
                    not slow,
                    f"slower than baseline by more than {tol:.0%}: {slow}",
                ),
                "flight": (
                    frac <= args.flight_budget,
                    f"flight-recorder overhead_frac {frac} > budget "
                    f"{args.flight_budget}",
                ),
                "grow": (
                    gfrac <= args.grow_budget,
                    f"grow-queue simulated-cycle overhead_frac {gfrac} > "
                    f"budget {args.grow_budget}",
                ),
            }
            guard_failed = [name for name, (ok, _) in checks.items() if not ok]
            report["guard"] = {
                "tolerance": tol,
                "regressions": slow,
                "flight_budget": args.flight_budget,
                "flight_overhead_frac": frac,
                "grow_budget": args.grow_budget,
                "grow_overhead_frac": gfrac,
                "failed": guard_failed,
                "passed": not guard_failed,
            }
            for name, (ok, detail) in checks.items():
                if ok:
                    print(f"{name} guard passed")
                else:
                    failed.append(f"{name} guard: {detail}")

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failed:
        raise SystemExit("\n".join(["guard failed:"] + failed))
    if not args.no_ledger:
        record_in_ledger(report, time.perf_counter() - t_start, argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
