#!/usr/bin/env python3
"""Repository benchmark: simulated GPU-queue workloads, end to end and per layer.

Run from the repository root (no install needed; ``src`` is put on the
path here)::

    python3 perfbench/run.py --workload road_rfan --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seconds 24        # every workload

``--trace 0`` measures the end-to-end metrics with nothing attached.
``--trace 1`` runs every job twice, untraced and traced.  It reports the
per-layer split of host time and writes the spans to
``perfbench/.out/spans-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines above it print every metric with
its unit, sample count and, for ratios, numerator and denominator.

See README.md in this directory for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1


def print_report(rep, trace: bool) -> None:
    print(f"== {rep.workload}  seed={rep.seed}  trace={int(trace)}")
    for note in rep.notes:
        print(f"   {note}")
    print(f"   attempted={rep.attempted} failed={rep.failed}")
    for name, m in rep.metrics.items():
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']:9s} {m['detail']}")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "simt").is_dir():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(
            f"unknown workload {unknown[0]!r}; choose from "
            f"{workloads.WORKLOADS + ['all']}"
        )
    trace = bool(args.trace)
    # the JSON line carries exactly the metrics BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    reports = []
    for name in names:
        rep = workloads.run_workload(name, args.seed, args.seconds, trace)
        print_report(rep, trace)
        reports.append(rep)

    metrics = {}
    for rep in reports:
        prefix = f"{rep.workload}/" if len(reports) > 1 else ""
        for k in keys:
            m = rep.metrics[k]
            metrics[prefix + k] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r.failed for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
