"""Observability for simulated launches and whole runs.

Two layers, both passive — a probed or metered run's simulation is
bit-identical to a bare one (pinned by ``tests/test_simt_determinism.py``):

**Launch-level** (PR 2) — consumes the opt-in
:class:`~repro.simt.probe.Probe` hooks that the engine, atomic system,
queue variants, and persistent scheduler emit:

* :class:`~repro.obs.timeline.TimelineProbe` — the raw cycle-stamped
  event timeline of one launch (issue spans, wake-ups, atomic
  serialization windows, queue control-word samples, dna-wait pairs);
* :func:`~repro.obs.metrics.compute_metrics` — time-binned series
  (issue-pipe occupancy, queue depth, atomics per kcycle, wavefront
  parallelism) plus histogram summaries (dna-wait, proxy amortization,
  CAS failure bursts);
* :func:`~repro.obs.perfetto.write_trace` — a Chrome ``trace_event``
  JSON export, loadable at https://ui.perfetto.dev;
* :class:`~repro.obs.session.ProfileSession` — a
  :class:`~repro.simt.engine.Session`: every ``Engine.launch`` while it
  is attached gets a probe, metrics are aggregated per launch, and
  reports stay byte-identical.

**Run-level** (this PR) — aggregates across launches, jobs, and whole
invocations:

* :class:`~repro.obs.registry.MetricsRegistry` /
  :class:`~repro.obs.registry.MetricsSession` — labelled counters,
  gauges, and histograms; every finished launch's ``SimStats`` lands
  here through the session's ``launch_end`` hook, and snapshots merge
  exactly across ``--jobs N`` worker processes;
* :class:`~repro.obs.runlog.RunLog` /
  :class:`~repro.obs.runlog.LiveReporter` — schema-versioned JSONL run
  events, and ``--live`` terminal progress (stderr only);
* :class:`~repro.obs.ledger.Ledger` — the append-only run ledger under
  ``results/ledger/`` that ``python -m repro.harness runs`` queries;
* :mod:`~repro.obs.regress` — the rule-based regression sentinel behind
  ``runs diff`` and ``tools/bench_diff.py``.

**Attribution** — :mod:`~repro.obs.blame` turns recordings into causal
answers: :class:`~repro.obs.blame.BlameProbe` captures wait-for
evidence, :func:`~repro.obs.blame.build_graph` tiles each wavefront's
lifetime into classified segments, and the module extracts the
critical path, per-class blame fractions, and causal "what-if"
projections (``python -m repro.harness blame``, ``docs/blame.md``).

**Failure-time** (this PR) — observability that survives aborts and
wedges instead of requiring a completed run:

* :class:`~repro.obs.flight.FlightRecorder` /
  :class:`~repro.obs.flight.FlightSession` — bounded last-K event ring
  plus live per-queue/per-CU state; on failure the session freezes it
  into a schema-versioned ``postmortem.json``
  (``python -m repro.harness postmortem show|report``);
* :class:`~repro.obs.watchdog.LivenessWatchdog` — simulated-cycle
  no-progress detection in the engine loop, classified with the blame
  stall taxonomy, escalating warn → snapshot → abort with
  :class:`~repro.simt.errors.WedgeError`;
* :class:`~repro.obs.live.TelemetryEmitter` /
  :func:`~repro.obs.live.render_dashboard` — throttled ``snapshot``
  events in the runlog JSONL and the ``python -m repro.harness watch``
  terminal dashboard that tails them.
"""

from repro.simt.probe import Probe

from .blame import (
    BlameGraph,
    BlameProbe,
    BlameSession,
    BlameSummary,
    build_graph,
    compute_blame,
    critical_path,
    publish_blame,
    replay,
    scale_graph,
    summarize_graph,
)
from .flight import (
    FlightRecorder,
    FlightSession,
    build_postmortem,
    load_postmortem,
    render_postmortem,
    write_postmortem,
)
from .ledger import Ledger, LedgerError
from .live import TelemetryEmitter, render_dashboard, snapshot_fields
from .metrics import compute_metrics, summarize
from .perfetto import to_perfetto, write_trace
from .registry import MetricsRegistry, MetricsSession
from .regress import compare as compare_metrics
from .runlog import LiveReporter, MultiObserver, RunLog, RunObserver, read_runlog
from .session import ProfileSession
from .timeline import TimelineProbe
from .watchdog import LivenessWatchdog

__all__ = [
    "BlameGraph",
    "BlameProbe",
    "BlameSession",
    "BlameSummary",
    "FlightRecorder",
    "FlightSession",
    "Ledger",
    "LedgerError",
    "LiveReporter",
    "LivenessWatchdog",
    "MetricsRegistry",
    "MetricsSession",
    "MultiObserver",
    "Probe",
    "ProfileSession",
    "RunLog",
    "RunObserver",
    "TelemetryEmitter",
    "TimelineProbe",
    "build_graph",
    "build_postmortem",
    "compare_metrics",
    "compute_blame",
    "compute_metrics",
    "critical_path",
    "load_postmortem",
    "publish_blame",
    "read_runlog",
    "render_dashboard",
    "render_postmortem",
    "replay",
    "scale_graph",
    "snapshot_fields",
    "summarize",
    "summarize_graph",
    "to_perfetto",
    "write_postmortem",
    "write_trace",
]
