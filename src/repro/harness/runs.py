"""The ``runs`` subcommand: query the run ledger.

::

    python -m repro.harness runs list [-n N]
    python -m repro.harness runs show <ref>
    python -m repro.harness runs diff <A> <B> [--all] [--tolerance T]
    python -m repro.harness runs report [-n N]

``<ref>`` is a run id, a unique prefix, ``last``, or ``last~N``
(see :meth:`repro.obs.ledger.Ledger.load`).  ``diff`` feeds both
entries' metrics through the regression rules in
:mod:`repro.obs.regress` and exits non-zero when the newer run
regressed, so it composes with shell ``&&`` and CI steps.  ``report``
renders the last N runs with a verdict column comparing each run to
its predecessor of the same config hash — the ``make runs-report``
target.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.ledger import Ledger, LedgerError
from repro.obs.regress import (
    DEFAULT_RULES,
    Rule,
    compare,
    extract_metrics,
)
from .report import render_table


def _require_entries(ledger: Ledger) -> List[dict]:
    """Entries of a usable ledger, or raise LedgerError (one-line, exit 1).

    ``list``/``diff``/``report`` are queries over recorded history; a
    missing or empty ledger directory means there is no history to
    query — a clear one-line error and exit 1, never a traceback or a
    silent empty table.
    """
    entries = ledger.entries()
    if not entries:
        raise LedgerError(
            f"no runs recorded under {ledger.root} (record one by "
            "running the harness without --no-ledger)"
        )
    return entries


def _cmd_list(ledger: Ledger, args) -> int:
    entries = _require_entries(ledger)
    if args.n:
        entries = entries[-args.n:]
    rows = [
        [
            e.get("run_id", "?"),
            e.get("kind", "?"),
            e.get("created", "?"),
            (e.get("git_sha") or "")[:9] or "-",
            e.get("config_hash", "")[:8],
            f"{e.get('wall_seconds', 0):.1f}",
        ]
        for e in entries
    ]
    print(render_table(
        ["run_id", "kind", "created", "git", "config", "wall_s"],
        rows,
        title=f"{len(rows)} run(s) in {ledger.root}",
    ))
    return 0


def _cmd_show(ledger: Ledger, args) -> int:
    entry = ledger.load(args.ref)
    if args.json:
        print(json.dumps(entry, indent=1, default=str))
        return 0
    for key in ("run_id", "kind", "created", "git_sha", "python",
                "platform", "seed", "config_hash", "wall_seconds",
                "notes"):
        if entry.get(key) is not None:
            print(f"{key:13s} {entry[key]}")
    if entry.get("argv"):
        print(f"{'argv':13s} {' '.join(entry['argv'])}")
    metrics = entry.get("metrics") or {}
    if metrics:
        print(render_table(
            ["metric", "value"],
            [[k, v] for k, v in sorted(metrics.items())],
            title=f"\n{len(metrics)} headline metric(s)",
        ))
    return 0


def _diff_rules(args) -> List[Rule]:
    if args.tolerance is None:
        return list(DEFAULT_RULES)
    return [
        Rule(r.pattern, better=r.better, exact=r.exact, gate=r.gate,
             tolerance=r.tolerance if r.exact else args.tolerance)
        for r in DEFAULT_RULES
    ]


def _cmd_diff(ledger: Ledger, args) -> int:
    _require_entries(ledger)
    entry_a = ledger.load(args.a)
    entry_b = ledger.load(args.b)
    if entry_a.get("config_hash") != entry_b.get("config_hash"):
        print(
            "[warning: configs differ "
            f"({entry_a.get('config_hash', '?')[:8]} vs "
            f"{entry_b.get('config_hash', '?')[:8]}); simulated metrics "
            "are only expected to match for equal configs]",
            file=sys.stderr,
        )
    cmp = compare(
        extract_metrics(entry_a),
        extract_metrics(entry_b),
        rules=_diff_rules(args),
        label_a=entry_a.get("run_id", args.a),
        label_b=entry_b.get("run_id", args.b),
    )
    print(cmp.render(only_changed=not args.all))
    return 0 if cmp.passed else 1


def _cmd_report(ledger: Ledger, args) -> int:
    entries = _require_entries(ledger)
    window = entries[-args.n:] if args.n else entries
    # latest prior run per config hash, seeded with history before the window
    prev_by_hash = {}
    for e in entries[: len(entries) - len(window)]:
        prev_by_hash[e.get("config_hash")] = e
    rows = []
    for e in window:
        chash = e.get("config_hash")
        prev = prev_by_hash.get(chash)
        if prev is None:
            verdict = "first"
        else:
            try:
                cmp = compare(
                    extract_metrics(ledger.load(prev["run_id"])),
                    extract_metrics(ledger.load(e["run_id"])),
                )
                verdict = "ok" if cmp.passed else (
                    f"REGRESSED ({len(cmp.regressions)})"
                )
            except LedgerError:
                verdict = "?"
        prev_by_hash[chash] = e
        entry_metrics = {}
        try:
            entry_metrics = ledger.load(e["run_id"]).get("metrics") or {}
        except LedgerError:
            pass
        cycles = next(
            (entry_metrics[k] for k in sorted(entry_metrics)
             if k.endswith("cycles")), "-",
        )
        ops_sec = next(
            (entry_metrics[k] for k in sorted(entry_metrics)
             if k.endswith("ops_per_sec")), "-",
        )
        rows.append([
            e.get("run_id", "?"),
            e.get("created", "?"),
            (chash or "")[:8],
            cycles,
            ops_sec if isinstance(ops_sec, str) else f"{ops_sec:.0f}",
            f"{e.get('wall_seconds', 0):.1f}",
            verdict,
        ])
    print(render_table(
        ["run_id", "created", "config", "cycles", "ops/sec", "wall_s",
         "vs prev"],
        rows,
        title=f"last {len(rows)} run(s) in {ledger.root}",
    ))
    return 0


def runs_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness runs",
        description="Query the run ledger (results/ledger or $REPRO_LEDGER).",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="ledger directory (default: $REPRO_LEDGER or results/ledger)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_list = sub.add_parser("list", help="list recorded runs")
    p_list.add_argument("-n", type=int, default=0, help="only the last N")

    p_show = sub.add_parser("show", help="show one run's manifest")
    p_show.add_argument("ref", help="run id, unique prefix, last, or last~N")
    p_show.add_argument("--json", action="store_true",
                        help="dump the raw entry JSON")

    p_diff = sub.add_parser(
        "diff", help="compare two runs' metrics (exit 1 on regression)")
    p_diff.add_argument("a", help="baseline run ref")
    p_diff.add_argument("b", help="candidate run ref")
    p_diff.add_argument("--all", action="store_true",
                        help="show identical metrics too")
    p_diff.add_argument(
        "--tolerance", type=float, default=None, metavar="T",
        help="override wall-clock tolerance (default 0.35)",
    )

    p_report = sub.add_parser(
        "report", help="last N runs with a verdict vs their predecessor")
    p_report.add_argument("-n", type=int, default=10,
                          help="window size (default 10)")

    args = parser.parse_args(argv)
    ledger = Ledger(args.ledger)
    try:
        if args.cmd == "list":
            return _cmd_list(ledger, args)
        if args.cmd == "show":
            return _cmd_show(ledger, args)
        if args.cmd == "diff":
            return _cmd_diff(ledger, args)
        if args.cmd == "report":
            return _cmd_report(ledger, args)
    except LedgerError as exc:
        print(f"runs: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled runs command {args.cmd!r}")
