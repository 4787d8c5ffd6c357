"""The run ledger: an append-only index of every harness/bench run.

``BENCH_engine.json`` is one hand-committed snapshot; the ledger is the
*history*.  Every harness or bench invocation records a **manifest** —
what was run (argv, config, config hash), where (git SHA, python,
platform), how long it took, and its headline metrics (simulated
cycles, launch counts, per-experiment wall times, registry totals) —
as one JSON file under ``results/ledger/`` plus one line in
``index.jsonl``.  Entries are queryable with::

    python -m repro.harness runs list
    python -m repro.harness runs show last
    python -m repro.harness runs diff <A> <B>
    python -m repro.harness runs report -n 10

``runs diff`` feeds two entries' metrics through
:mod:`repro.obs.regress`, which is also what the CI regression gate
(``tools/bench_diff.py``) uses — so a perf or simulated-cycle-count
regression between two recorded runs is one command to find.

Simulated metrics are deterministic for a given config, so two entries
with equal ``config_hash`` should agree exactly on every ``sim.*`` and
``queue.*`` metric; wall-clock metrics are machine-dependent and only
gated within tolerance.  The ledger root defaults to
``results/ledger`` and can be moved with the ``REPRO_LEDGER``
environment variable (tests point it at a tmp dir).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

#: ledger entry schema version.
SCHEMA = 1

#: default ledger root, overridable via the environment.
DEFAULT_DIR = "results/ledger"
ENV_VAR = "REPRO_LEDGER"


def default_root() -> Path:
    return Path(os.environ.get(ENV_VAR) or DEFAULT_DIR)


def config_hash(config: Dict) -> str:
    """Stable hex digest of a canonicalized config dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"),
                       default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class LedgerError(Exception):
    """Lookup/record failures surfaced to the CLI."""


class Ledger:
    """One ledger directory: ``<root>/<run_id>.json`` + ``index.jsonl``."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_root()

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        config: Dict,
        metrics: Dict[str, Union[int, float]],
        wall_seconds: float,
        argv: Optional[List[str]] = None,
        registry_snapshot: Optional[Dict] = None,
        seed: Optional[int] = None,
        notes: Optional[str] = None,
        created: Optional[float] = None,
    ) -> Dict:
        """Write one manifest; returns the recorded entry dict.

        ``kind`` tags the producer (``"harness"``, ``"bench_engine"``);
        ``config`` is the full knob set (hashed into ``config_hash`` so
        runs are comparable only when their configs match); ``metrics``
        is a flat ``name -> number`` dict — the diffable surface.
        """
        created = time.time() if created is None else created
        chash = config_hash(config)
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime(created))
        run_id = f"{stamp}-{chash[:8]}"
        self.root.mkdir(parents=True, exist_ok=True)
        suffix = 1
        while (self.root / f"{run_id}.json").exists():
            suffix += 1
            run_id = f"{stamp}-{chash[:8]}-{suffix}"
        entry = {
            "schema": SCHEMA,
            "run_id": run_id,
            "kind": kind,
            "created": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(created)
            ),
            "argv": list(argv) if argv is not None else None,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": seed,
            "config": config,
            "config_hash": chash,
            "wall_seconds": round(float(wall_seconds), 3),
            "metrics": {k: metrics[k] for k in sorted(metrics)},
            "notes": notes,
        }
        if registry_snapshot is not None:
            entry["registry"] = registry_snapshot
        (self.root / f"{run_id}.json").write_text(
            json.dumps(entry, indent=1, default=str) + "\n"
        )
        # the index line is the entry minus its bulky payloads
        index_line = {
            k: entry[k]
            for k in ("schema", "run_id", "kind", "created", "git_sha",
                      "config_hash", "wall_seconds")
        }
        with open(self.index_path, "a") as fh:
            fh.write(json.dumps(index_line, sort_keys=True) + "\n")
        return entry

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict]:
        """Index lines, oldest first (missing ledger dir: empty list)."""
        if not self.index_path.exists():
            return []
        out = []
        for line in self.index_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return out

    def load(self, ref: str) -> Dict:
        """Resolve ``ref`` to a full entry.

        Accepts an exact run id, a unique id prefix, ``last`` (most
        recent), or ``last~N`` (N runs before the most recent).
        """
        entries = self.entries()
        if ref == "last" or ref.startswith("last~"):
            if not entries:
                raise LedgerError(f"ledger {self.root} is empty")
            back = 0
            if ref.startswith("last~"):
                try:
                    back = int(ref.split("~", 1)[1])
                except ValueError:
                    raise LedgerError(f"bad ledger ref {ref!r}") from None
            if back < 0:
                raise LedgerError(f"bad ledger ref {ref!r}: N must be >= 0")
            if back >= len(entries):
                raise LedgerError(
                    f"{ref!r} reaches past the {len(entries)} recorded run(s)"
                )
            run_id = entries[-1 - back]["run_id"]
        else:
            ids = [e["run_id"] for e in entries]
            exact = [i for i in ids if i == ref]
            prefixed = [i for i in ids if i.startswith(ref)]
            if exact:
                run_id = exact[0]
            elif len(prefixed) == 1:
                run_id = prefixed[0]
            elif len(prefixed) > 1:
                raise LedgerError(
                    f"ambiguous run ref {ref!r}: {', '.join(prefixed[:5])}"
                )
            else:
                # allow reading an entry file that fell out of the index
                path = self.root / f"{ref}.json"
                if path.exists():
                    return json.loads(path.read_text())
                raise LedgerError(f"no run matching {ref!r} in {self.root}")
        path = self.root / f"{run_id}.json"
        if not path.exists():
            raise LedgerError(f"index lists {run_id} but {path} is missing")
        return json.loads(path.read_text())
