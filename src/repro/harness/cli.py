"""Command-line entry point: ``python -m repro.harness <experiment>``.

Examples
--------
List experiments::

    python -m repro.harness --list

Regenerate one artefact quickly::

    python -m repro.harness tab6 --quick

Regenerate everything at harness scale, saving text+JSON reports::

    python -m repro.harness all --out results/

Watch a long parallel run and keep a structured event log::

    python -m repro.harness all --jobs 4 --live --run-log results/run.jsonl

Query the run ledger (every invocation records a manifest under
``results/ledger/`` unless ``--no-ledger``)::

    python -m repro.harness runs list
    python -m repro.harness runs diff last~1 last
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .config import HarnessConfig
from .experiments import EXPERIMENTS, run_many


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "profile":
        # profiled single runs have their own flag set; see profile.py.
        from .profile import profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "blame":
        # stall attribution + what-if projection; see blame.py.
        from .blame import blame_main

        return blame_main(argv[1:])
    if argv and argv[0] == "capacity":
        # fill-histogram replay + buffer-size advisor; see capacity.py.
        from .capacity import capacity_main

        return capacity_main(argv[1:])
    if argv and argv[0] == "runs":
        # ledger queries never touch the simulator; see runs.py.
        from .runs import runs_main

        return runs_main(argv[1:])
    if argv and argv[0] == "watch":
        # live dashboard over a runlog JSONL; see watch.py.
        from .watch import watch_main

        return watch_main(argv[1:])
    if argv and argv[0] == "postmortem":
        # render post-mortem bundles from failed runs; see postmortem.py.
        from .postmortem import postmortem_main

        return postmortem_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Regenerate the tables and figures of 'A Specialized "
            "Concurrent Queue for Scheduling Irregular Workloads on GPUs' "
            "(ICPP 2019) on the SIMT simulator."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=(
            "experiment id (fig1, tab1..tab6, fig3..fig5, sharding) "
            "or 'all'; "
            "or a subcommand: 'profile' (single profiled runs) / "
            "'blame' (stall attribution + what-if) / "
            "'capacity' (queue buffer-size advisor) / "
            "'runs' (query the run ledger) / "
            "'watch' (live dashboard over a runlog) / "
            "'postmortem' (render failure bundles) — "
            "see '<subcommand> --help'"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--quick", action="store_true",
        help="small datasets and sweeps (minutes instead of an hour+)",
    )
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="multiply every dataset's harness scale (default 1.0)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip CPU-oracle verification of each BFS",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also save <exp>.txt and <exp>.json under DIR",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "fan scheduling groups (experiments with overlapping sweeps "
            "travel together to share a run cache; see docs/performance.md) "
            "out over N worker processes (default 1: run in-process); "
            "reports are byte-identical either way"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "attach observability probes to every launch; reports are "
            "unchanged — probes are passive — and aggregate profile "
            "metrics land in DIR/<exp>.profile.json when --out is given. "
            "Composes with --jobs N (sessions open inside each worker), "
            "but dissolves shared-sweep caching: experiments run one per "
            "job so launches stay attributable"
        ),
    )
    parser.add_argument(
        "--flight", action="store_true",
        help=(
            "attach the flight recorder + liveness watchdog to every "
            "launch (passive: reports stay byte-identical; composes "
            "with --profile); with "
            "--run-log, stream periodic snapshot telemetry for "
            "'repro-harness watch'; on failure, dump a postmortem.json "
            "bundle under --postmortem-dir"
        ),
    )
    parser.add_argument(
        "--postmortem-dir", default=os.path.join("results", "postmortem"),
        metavar="DIR",
        help=(
            "where --flight writes postmortem bundles on failure "
            "(default results/postmortem)"
        ),
    )
    parser.add_argument(
        "--live", action="store_true",
        help=(
            "stream per-job progress (done/failed counts, ETA, running "
            "groups) to stderr; stdout reports stay byte-identical"
        ),
    )
    parser.add_argument(
        "--run-log", default=None, metavar="FILE",
        help="append schema-versioned JSONL run events to FILE",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help=(
            "skip recording this run's manifest in the run ledger "
            "(default ledger: $REPRO_LEDGER or results/ledger)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        for exp_id, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{exp_id:6s} {doc}")
        return 0

    cfg = HarnessConfig(
        quick=args.quick,
        scale_factor=args.scale_factor,
        verify=not args.no_verify,
    )

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; use --list", file=sys.stderr)
        return 2

    # -- observability plumbing (all passive: reports stay byte-identical)
    from repro.obs.registry import MetricsRegistry
    from repro.obs.runlog import LiveReporter, MultiObserver, RunLog

    observers = []
    runlog = None
    if args.run_log:
        runlog = RunLog(args.run_log)
        observers.append(runlog)
    if args.live:
        observers.append(LiveReporter())
    observer = MultiObserver(*observers) if observers else None
    registry = None if args.no_ledger else MetricsRegistry()

    telemetry = None
    if args.flight:
        telemetry = {
            "path": args.run_log,
            "postmortem_dir": args.postmortem_dir,
            "watchdog": True,
            "config": {
                "experiments": ids,
                "quick": cfg.quick,
                "scale_factor": cfg.scale_factor,
                "verify": cfg.verify,
            },
        }

    jobs = args.jobs
    if args.profile and jobs > 1 and len(ids) > 1:
        # profiled parallel runs open a session inside each worker and
        # lose the shared-sweep cache; say so rather than silently
        # re-simulating shared cells (results stay byte-identical).
        print(
            f"[--profile with --jobs {jobs}: sessions open per worker; "
            f"shared-sweep caching is disabled so overlapping "
            f"experiments re-simulate shared cells]",
            file=sys.stderr,
        )

    t0 = time.time()
    try:
        profiles = {} if args.profile else None
        results = run_many(
            cfg, ids, jobs=jobs, observer=observer, registry=registry,
            telemetry=telemetry, profiles=profiles,
        )
    except Exception as exc:
        if telemetry is not None and telemetry.get("postmortem_dir"):
            # worker-side FlightSessions wrote the bundle(s); point at
            # them so a failed run is diagnosable without re-running.
            print(
                f"[postmortem: bundles (if any) under "
                f"{telemetry['postmortem_dir']} — "
                f"'python -m repro.harness postmortem show']",
                file=sys.stderr,
            )
        if runlog is not None:
            runlog.abort(repr(exc))
            runlog.close()
        raise
    wall = time.time() - t0

    if runlog is not None and registry is not None:
        runlog.metrics(registry.snapshot())
    for result in results:
        print(result.text)
        print(f"\n[{result.exp_id} regenerated in {result.elapsed:.1f}s]\n")
        if args.out:
            path = result.save(args.out)
            print(f"[saved {path}]")
            launches = (profiles or {}).get(result.exp_id)
            if launches is not None:
                ppath = os.path.join(args.out, f"{result.exp_id}.profile.json")
                with open(ppath, "w") as fh:
                    json.dump({"launches": launches}, fh, indent=1)
                print(f"[saved {ppath} ({len(launches)} profiled launches)]")
    if len(results) > 1:
        print(f"[{len(results)} experiments in {wall:.1f}s "
              f"with --jobs {jobs}]")

    if registry is not None:
        from repro.obs.ledger import Ledger

        metrics = registry.scalars()
        metrics["experiments"] = len(results)
        for result in results:
            metrics[f"{result.exp_id}.seconds"] = round(result.elapsed, 3)
        # jobs/profile stay out of the hashed config: they must not change
        # simulated results, so sequential and parallel runs of the same
        # experiments share a config_hash and `runs diff` compares exactly.
        entry = Ledger().record(
            kind="harness",
            config={
                "experiments": ids,
                "quick": cfg.quick,
                "scale_factor": cfg.scale_factor,
                "verify": cfg.verify,
            },
            metrics=metrics,
            wall_seconds=wall,
            argv=list(argv),
            notes=f"jobs={jobs} profile={bool(args.profile)}",
        )
        # stderr, so stdout reports stay byte-identical across runs
        print(f"[ledger: recorded run {entry['run_id']}]", file=sys.stderr)
    if runlog is not None:
        runlog.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
