"""``python -m repro.harness profile <workload>`` — profiled single runs.

Runs one workload under a :class:`~repro.obs.session.ProfileSession` and
writes, under ``--out`` (default ``results/profile``):

* ``trace.json``   — Chrome/Perfetto ``trace_event`` timeline of the
  (last) launch; open at https://ui.perfetto.dev;
* ``metrics.json`` — time-binned series + histogram summaries from
  :func:`repro.obs.metrics.compute_metrics` (one entry per launch);

and prints a terminal summary: per-queue contention table, ASCII
utilization/parallelism charts (reusing :mod:`repro.harness.report`),
and an engine execution-path breakdown — vector / elided / scalar-
fallback completion counts plus host wall-clock attributed per op class
(:data:`repro.simt.engine.EXEC_TIMES`) — so hot-path regressions are
attributable to the op class that slowed down.

Probing is passive, so the profiled run's result (costs, SimStats,
simulated cycles) is bit-identical to an unprofiled one — pinned by
``tests/test_simt_determinism.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.graphs import load_dataset
from repro.simt import FIJI, SPECTRE, TESTGPU, paper_workgroups

from .report import ascii_chart, render_table

DEVICES = {"fiji": FIJI, "spectre": SPECTRE, "testgpu": TESTGPU}
WORKLOADS = ("bfs", "sssp", "nqueens")


def _default_workgroups(device) -> int:
    if device.name.lower() == "testgpu":
        return 4
    return 56 if device.n_cus > 8 else 16


def _run_workload(args, device):
    """Run the selected workload once (probes attach via the session)."""
    if args.workload == "bfs":
        from repro.bfs.persistent import run_persistent_bfs

        graph = load_dataset(args.dataset, scale=args.scale)
        run = run_persistent_bfs(
            graph,
            args.source,
            args.variant,
            device,
            args.workgroups,
            verify=not args.no_verify,
        )
        return run.cycles, run.stats, f"bfs/{graph.name}"
    if args.workload == "sssp":
        from repro.workloads.sssp import random_weights, run_sssp

        graph = load_dataset(args.dataset, scale=args.scale)
        weights = random_weights(graph)
        res = run_sssp(
            graph,
            weights,
            args.source,
            args.variant,
            device,
            args.workgroups,
            verify=not args.no_verify,
        )
        return res.cycles, res.stats, f"sssp/{graph.name}"
    from repro.workloads.nqueens import run_nqueens

    res = run_nqueens(
        args.nqueens_n,
        args.variant,
        device,
        args.workgroups,
        verify=not args.no_verify,
    )
    return res.cycles, res.stats, f"nqueens/n={args.nqueens_n}"


def _exec_breakdown_text(counts: dict, times: dict, elapsed: float) -> str:
    """Render the engine execution-path breakdown (vector vs scalar).

    ``counts``/``times`` are snapshots of
    :data:`repro.simt.engine.EXEC_COUNTS` / ``EXEC_TIMES`` taken around
    the profiled run; times are host wall-clock, so this is the one
    profile section about *our* speed rather than the simulated GPU's.
    """
    lines: List[str] = []
    reads = counts.get("reads_vector", 0) + counts.get("reads_elided", 0)
    scalar = counts.get("reads_scalar", 0) + counts.get("writes_scalar", 0)
    lines.append(
        "engine execution paths: "
        f"reads vector={counts.get('reads_vector', 0)} "
        f"elided={counts.get('reads_elided', 0)} "
        f"scalar={counts.get('reads_scalar', 0)}  "
        f"writes vector={counts.get('writes_vector', 0)} "
        f"scalar={counts.get('writes_scalar', 0)}"
    )
    total_mem = reads + counts.get("writes_vector", 0) + scalar
    if total_mem:
        lines.append(
            f"scalar-fallback share: {scalar / total_mem:.1%} of "
            f"{total_mem} memory-op completions"
        )
    atomics = {
        k.replace("atomics_", ""): v
        for k, v in counts.items()
        if k.startswith("atomics_")
    }
    if any(atomics.values()):
        total_at = sum(atomics.values())
        lines.append(
            "atomic service shapes: "
            + "  ".join(f"{k}={v}" for k, v in atomics.items())
            + f"  (general, mixed addresses: "
            f"{atomics.get('general', 0) / total_at:.1%})"
        )
    timed = sum(times.values())
    if times:
        rows = [
            [cls, f"{secs:.3f}", f"{100.0 * secs / timed:.1f}%"]
            for cls, secs in sorted(times.items(), key=lambda kv: -kv[1])
        ]
        rows.append(["(untimed)", f"{max(elapsed - timed, 0.0):.3f}", "-"])
        lines.append("")
        lines.append(
            render_table(
                ["op class", "host seconds", "share"],
                rows,
                title="host wall-clock per op class (event + resumed kernel)",
            )
        )
    return "\n".join(lines)


def _summary_text(metrics: dict, label: str, elapsed: float) -> str:
    """Terminal rendering of one launch's metrics."""
    lines: List[str] = []
    eng = metrics["engine"]
    lines.append(
        f"profiled {label}: device={metrics['device']} "
        f"cycles={metrics['cycles']} wavefronts={metrics['n_wavefronts']} "
        f"({elapsed:.1f}s wall)"
    )
    if metrics["truncated"]:
        lines.append("[warning: event cap hit; timeline truncated]")

    # op mix ------------------------------------------------------------
    mix = sorted(eng["op_mix"].items(), key=lambda kv: -kv[1])
    lines.append(
        "op mix: " + "  ".join(f"{k}={v}" for k, v in mix)
        if mix
        else "op mix: (no issues recorded)"
    )

    # utilization chart --------------------------------------------------
    bins = metrics["bins"]
    x = [i * metrics["bin_cycles"] for i in range(bins)]
    series = {"cu occupancy": eng["occupancy"]}
    if any(metrics["atomics"]["busy_frac"]):
        series["atomic busy"] = metrics["atomics"]["busy_frac"]
    lines.append("")
    lines.append(
        ascii_chart(
            series,
            x,
            title="utilization over simulated time (fraction, by bin)",
        )
    )

    par = metrics["scheduler"]["parallelism"]
    if any(par):
        lines.append("")
        lines.append(
            ascii_chart(
                {"task tokens": par},
                x,
                title=(
                    "wavefront parallelism (lanes holding task tokens, "
                    f"peak={metrics['scheduler']['peak_parallelism']})"
                ),
            )
        )

    # queue table --------------------------------------------------------
    if metrics["queues"]:
        rows = []
        for prefix, q in metrics["queues"].items():
            wait = q["dna_wait"] or {}
            prox = q["proxy"].get("acquire") or {}
            rows.append(
                [
                    prefix,
                    q["variant"],
                    q["capacity"],
                    q["max_raw_index"],
                    f"{q['fill_frac']:.3f}",
                    int(wait.get("count", 0)),
                    f"{wait.get('mean', 0.0):.0f}",
                    f"{wait.get('p95', 0.0):.0f}",
                    f"{prox.get('mean', 0.0):.2f}",
                    q["starved_watches"],
                ]
            )
        lines.append("")
        lines.append(
            render_table(
                [
                    "queue",
                    "variant",
                    "capacity",
                    "hiwater",
                    "fill",
                    "grants",
                    "wait.mean",
                    "wait.p95",
                    "lanes/afa",
                    "starved",
                ],
                rows,
                title="queue contention (waits in cycles from watch to grant)",
            )
        )
        for prefix, q in metrics["queues"].items():
            if q["instants"]:
                ev = "  ".join(f"{k}={v}" for k, v in q["instants"].items())
                lines.append(f"{prefix} events: {ev}")

    hot = metrics["atomics"]["hot_addrs"]
    if hot:
        lines.append(
            "hottest atomic addresses: "
            + "  ".join(f"#{a}x{n}" for a, n in hot[:5])
        )
    return "\n".join(lines)


def profile_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness profile",
        description=(
            "Profile one workload run: Perfetto trace + binned metrics + "
            "terminal utilization charts."
        ),
    )
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument(
        "--device", choices=sorted(DEVICES), default="fiji",
        help="simulated device (default fiji)",
    )
    parser.add_argument(
        "--variant", default="RF/AN",
        help="queue variant: BASE, AN, RF/AN, NAIVE (default RF/AN)",
    )
    parser.add_argument(
        "--dataset", default="USA-road-d.NY",
        help="graph dataset for bfs/sssp (default USA-road-d.NY)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.125,
        help="dataset scale relative to paper size (default 0.125)",
    )
    parser.add_argument("--source", type=int, default=0, help="source vertex")
    parser.add_argument(
        "--workgroups", type=int, default=None,
        help="launched workgroups (default: 56 fiji / 16 spectre / 4 testgpu)",
    )
    parser.add_argument(
        "--nqueens-n", type=int, default=6, help="board size for nqueens"
    )
    parser.add_argument(
        "--bins", type=int, default=60,
        help="time bins for the metric series (default 60)",
    )
    parser.add_argument(
        "--max-events", type=int, default=2_000_000,
        help="per-launch event cap before the timeline truncates",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny run (scale 0.02, few workgroups) for smoke tests",
    )
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument(
        "--out", default="results/profile", metavar="DIR",
        help="output directory (default results/profile)",
    )
    args = parser.parse_args(argv)

    from repro.obs import ProfileSession, write_trace

    device = DEVICES[args.device]
    if args.quick:
        args.scale = min(args.scale, 0.02)
        if args.workgroups is None:
            args.workgroups = 2 if device.name.lower() == "testgpu" else 4
        args.nqueens_n = min(args.nqueens_n, 5)
    if args.workgroups is None:
        args.workgroups = _default_workgroups(device)

    from repro.simt import atomics as simt_atomics
    from repro.simt import engine as simt_engine

    t0 = time.time()
    session = ProfileSession(bins=args.bins, max_events=args.max_events)
    # attribute host time per op class while profiled (the breakdown is
    # host-side bookkeeping only: simulated results stay bit-identical).
    simt_engine.reset_exec_counts()
    simt_atomics.reset_path_counts()
    simt_engine.EXEC_TIMING = True
    try:
        with session:
            cycles, stats, label = _run_workload(args, device)
    finally:
        simt_engine.EXEC_TIMING = False
    exec_counts = dict(simt_engine.EXEC_COUNTS)
    exec_counts.update(simt_atomics.PATH_COUNTS)
    exec_times = {k: round(v, 6) for k, v in simt_engine.EXEC_TIMES.items()}
    elapsed = time.time() - t0

    if not session.launches:
        print("no launches were recorded", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    all_metrics = [entry["metrics"] for entry in session.launches]
    metrics_path = os.path.join(args.out, "metrics.json")
    with open(metrics_path, "w") as fh:
        json.dump(
            {
                "workload": label,
                "launches": all_metrics,
                "exec_paths": {"counts": exec_counts, "seconds": exec_times},
            },
            fh,
            indent=1,
        )
    # trace of the last (usually only) launch — retries replace it.
    trace_path = os.path.join(args.out, "trace.json")
    write_trace(session.launches[-1]["timeline"], trace_path)

    print(_summary_text(all_metrics[-1], label, elapsed))
    print()
    print(_exec_breakdown_text(exec_counts, exec_times, elapsed))
    print()
    print(f"[wrote {trace_path} — open at https://ui.perfetto.dev]")
    print(f"[wrote {metrics_path}]")
    return 0
