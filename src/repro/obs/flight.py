"""Flight recorder: bounded last-K event ring + post-mortem bundles.

Every observability artifact before this module — timeline, blame,
ledger — is written *after* a run completes; a launch that aborts on
:class:`~repro.simt.errors.QueueFullError` or wedges leaves nothing
behind but a message.  The flight recorder is the black box: a
:class:`~repro.simt.probe.Probe` that keeps only a **bounded** window
of recent history (a ``collections.deque(maxlen=K)`` ring of queue /
atomic / phase / exit events) plus O(queues + CUs + wavefronts) live
state — per-queue fill and fill histogram, per-wavefront current
phase, and monotonic progress counters.  Per-CU and per-wavefront last
issue and the issue count are not recorded per op: they are read from
the engine's :class:`~repro.simt.engine.IssueView` when a snapshot is
taken.  Memory is constant no matter how long the launch runs, so it
can stay attached to every launch of a multi-hour harness run (its
measured overhead is gated by ``tools/bench_engine.py --guard``; see
docs/observability.md).

Three consumers read the recorder:

* :class:`repro.obs.watchdog.LivenessWatchdog` polls
  :meth:`FlightRecorder.progress_signature` /
  :meth:`FlightRecorder.stall_classes` to detect and classify wedges;
* :class:`repro.obs.live.TelemetryEmitter` turns launch-end snapshots
  into runlog ``snapshot`` events for ``repro.harness watch``;
* :func:`build_postmortem` freezes :meth:`FlightRecorder.snapshot`
  into a schema-versioned ``postmortem.json`` bundle that
  ``python -m repro.harness postmortem show|report`` renders.

Like every probe, the recorder is passive: a recorded launch simulates
bit-identically to a bare one (pinned for all five queue variants in
``tests/test_simt_determinism.py``).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.simt.engine import IssueView, Session
from repro.simt.probe import Probe

from .blame import COMPUTE, OTHER, _PHASE_CLASS

#: schema version of :meth:`FlightRecorder.snapshot` and the
#: ``postmortem.json`` bundle built from it (bump on layout changes).
#: Schema 2 dropped the ring's ``issue``/``wake`` events and
#: ``progress.wakes``.
FLIGHT_SCHEMA = 2
POSTMORTEM_SCHEMA = 2
#: bundle schemas :func:`load_postmortem` still reads.
POSTMORTEM_SCHEMAS_READ = (1, 2)

#: number of fill-histogram buckets per queue (bucket i counts samples
#: with ``fill/capacity`` in ``[i/8, (i+1)/8)``; the last is open).
FILL_BUCKETS = 8

#: default ring size: enough to reconstruct the last few scheduler
#: rounds of every wavefront without ring memory showing up in the
#: bench_engine overhead budget.
DEFAULT_RING = 256


class FlightRecorder(Probe):
    """Always-on bounded recorder of recent engine/queue/atomic events.

    ``ring`` bounds the unified event ring; everything else the
    recorder keeps is a running aggregate, so a recorder attached to a
    billion-cycle launch is no bigger than one attached to a short one.
    """

    def __init__(self, ring: int = DEFAULT_RING):
        self.ring_size = int(ring)
        #: unified last-K ring: tuples ``(cycle, kind, ...)`` where
        #: kind is one of exit/atomic/instant/reserve/steal/phase/
        #: done_flag.
        self.events: deque = deque(maxlen=self.ring_size)
        #: per-queue live state, keyed by buffer prefix.
        self.queues: Dict[str, Dict] = {}
        #: per-wavefront latest phase mark: wf -> its ring event
        #: ``(cycle, "phase", wf, phase, detail)``.
        self.wf_phases: Dict[int, tuple] = {}
        self.exited: set = set()
        #: the running launch's issue state (None outside a launch).
        self._view: Optional[IssueView] = None
        # issue state frozen at the end of the previous launch
        self._issues = 0
        self._cus: Dict[int, tuple] = {}
        self._wf_last_issue: Dict[int, int] = {}
        # monotonic progress counters (the watchdog's liveness signal)
        self.exits = 0
        self.atomics = 0
        self.cas_failures = 0
        self.deliveries = 0
        self.stores = 0
        self.steals = 0
        self.work_marks = 0
        self.done_marks = 0
        self.last_delivery = -1
        self.last_store = -1
        self.last_exit = -1
        self.last_work = -1
        self.device_name = ""
        self.n_wavefronts = 0
        self.launches = 0
        self.cycles = 0  # final cycle count once the launch ends
        self.finished = False
        #: optional ``callback(self)`` fired at launch_end (telemetry).
        self.on_end: Optional[Callable[["FlightRecorder"], None]] = None

    # ------------------------------------------------------------------
    # engine callbacks
    # ------------------------------------------------------------------
    def launch_begin(self, device, n_wavefronts: int) -> None:
        self._freeze()  # a previous launch that aborted
        self.device_name = device.name
        self.n_wavefronts = n_wavefronts
        self.launches += 1
        self.finished = False
        self._cus = {}
        self._wf_last_issue = {}
        self.wf_phases.clear()
        self.exited.clear()

    def track_issues(self, view: IssueView) -> None:
        self._view = view

    def launch_end(self, cycles: int, stats) -> None:
        self._freeze()
        self.cycles = cycles
        self.finished = True
        if self.on_end is not None:
            self.on_end(self)

    def _freeze(self) -> None:
        """Copy the launch's issue state out of the engine's view."""
        view = self._view
        if view is not None:
            self._view = None
            self._issues += view.issues()
            self._cus = view.cu_last_issue()
            self._wf_last_issue = view.wf_last_issue()

    @property
    def issues(self) -> int:
        """Ops issued under this recorder, over all its launches."""
        view = self._view
        return self._issues + (view.issues() if view is not None else 0)

    @property
    def cus(self) -> Dict[int, tuple]:
        """Per-CU last issue: cid -> (cycle, wf, op-kind name)."""
        view = self._view
        return view.cu_last_issue() if view is not None else self._cus

    @property
    def wf_last_issue(self) -> Dict[int, int]:
        """Per-wavefront last issue cycle (wavefronts that issued)."""
        view = self._view
        return view.wf_last_issue() if view is not None else self._wf_last_issue

    def on_exit(self, cycle, wf) -> None:
        self.exits += 1
        self.last_exit = cycle
        self.exited.add(wf)
        self.events.append((cycle, "exit", wf))

    # ------------------------------------------------------------------
    # atomic-system callbacks
    # ------------------------------------------------------------------
    def on_atomic(self, cycle, buf, kind, n, end, failures, addr) -> None:
        self.atomics += 1
        self.cas_failures += failures
        self.events.append((cycle, "atomic", buf, kind, n, failures))

    # ------------------------------------------------------------------
    # queue-layer callbacks
    # ------------------------------------------------------------------
    def _queue(self, prefix: str) -> Dict:
        q = self.queues.get(prefix)
        if q is None:
            q = self.queues[prefix] = {
                "capacity": 0,
                "variant": "?",
                "front": 0,
                "rear": 0,
                "deliveries": 0,
                "stores": 0,
                "steals_in": 0,
                "steals_out": 0,
                "fill_hist": [0] * FILL_BUCKETS,
            }
        return q

    def queue_register(self, prefix, capacity, variant) -> None:
        q = self._queue(prefix)
        q["capacity"] = capacity
        q["variant"] = variant

    def queue_counter(self, prefix, name, cycle, value) -> None:
        q = self._queue(prefix)
        if name == "front" or name == "rear":
            q[name] = value
            cap = q["capacity"]
            if cap > 0:
                # reservation-first variants (RF/AN) let Front pass
                # Rear while lanes park on DNA slots — clamp at 0.
                fill = q["rear"] - q["front"]
                if fill < 0:
                    fill = 0
                b = (fill * FILL_BUCKETS) // cap
                if b >= FILL_BUCKETS:
                    b = FILL_BUCKETS - 1
                q["fill_hist"][b] += 1

    def queue_instant(self, prefix, name, cycle, count) -> None:
        self.events.append((cycle, "instant", prefix, name, count))

    def queue_reserve(self, prefix, direction, base, count) -> None:
        q = self._queue(prefix)
        # reservations advance the logical counters even on variants
        # that sample front/rear rarely — keep fill current from them.
        if direction == "acquire":
            if base + count > q["front"]:
                q["front"] = base + count
        else:
            if base + count > q["rear"]:
                q["rear"] = base + count
        self.events.append(
            (self.now, "reserve", prefix, direction, base, count)
        )

    def queue_store(self, prefix, slots, values) -> None:
        q = self._queue(prefix)
        n = len(slots) if hasattr(slots, "__len__") else 1
        q["stores"] += n
        self.stores += n
        self.last_store = self.now

    def queue_deliver(self, prefix, slots, tokens) -> None:
        q = self._queue(prefix)
        n = len(tokens) if hasattr(tokens, "__len__") else 1
        q["deliveries"] += n
        self.deliveries += n
        self.last_delivery = self.now

    def queue_steal(self, src_prefix, dst_prefix, src_slots, dst_base,
                    tokens) -> None:
        n = len(tokens) if hasattr(tokens, "__len__") else 1
        self.steals += n
        self._queue(src_prefix)["steals_out"] += n
        self._queue(dst_prefix)["steals_in"] += n
        self.events.append((self.now, "steal", src_prefix, dst_prefix, n))

    # ------------------------------------------------------------------
    # scheduler / blame callbacks
    # ------------------------------------------------------------------
    def sched_done(self, cycle, wf) -> None:
        self.done_marks += 1
        self.events.append((cycle, "done_flag", wf))

    def wf_phase(self, wf, phase, detail="") -> None:
        # one tuple serves as the ring event and the wavefront's mark
        ev = self.wf_phases[wf] = (self.now, "phase", wf, phase, detail)
        self.events.append(ev)
        if phase == "work":
            self.work_marks += 1
            self.last_work = ev[0]

    # ------------------------------------------------------------------
    # watchdog / telemetry queries
    # ------------------------------------------------------------------
    def progress_signature(self) -> tuple:
        """Monotone counters that advance iff the launch makes progress.

        Deliveries, stores, exits, work-phase entries, and done-flag
        raises all advance only when a wavefront obtains work, hands
        work over, computes on it, or retires — *not* while spinning on
        DNA slots, full queues, reservations, or the termination flag.
        A liveness window in which this tuple does not change means
        every live wavefront spent the whole window stalled.
        """
        return (
            self.deliveries,
            self.stores,
            self.exits,
            self.work_marks,
            self.done_marks,
        )

    def stall_classes(self) -> Dict[str, int]:
        """Histogram of live wavefronts by current stall class.

        Each live (non-exited) wavefront's latest ``wf_phase`` mark is
        mapped through the PR 7 blame taxonomy
        (:data:`repro.obs.blame._PHASE_CLASS`).  A wavefront that has
        never issued at all is ready-but-unissued: ``cu_occupancy``
        (e.g. a starved CU); one issuing without phase marks is
        :data:`~repro.obs.blame.OTHER`.
        """
        hist: Dict[str, int] = {}
        issued = self.wf_last_issue
        for wf in range(self.n_wavefronts):
            if wf in self.exited:
                continue
            marked = self.wf_phases.get(wf)
            if marked is not None:
                cls = _PHASE_CLASS.get(marked[3], OTHER)
            elif wf not in issued:
                cls = "cu_occupancy"
            else:
                cls = OTHER
            hist[cls] = hist.get(cls, 0) + 1
        return hist

    def top_stalls(self, k: int = 3) -> List[tuple]:
        """Top-``k`` ``(class, live-wavefront count)`` pairs, compute
        excluded, deterministic order (count desc, then name)."""
        hist = self.stall_classes()
        hist.pop(COMPUTE, None)
        return sorted(hist.items(), key=lambda it: (-it[1], it[0]))[:k]

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Schema-versioned JSON-able view of the recorder's state."""
        queues = {}
        for prefix, q in sorted(self.queues.items()):
            queues[prefix] = {
                "capacity": q["capacity"],
                "variant": q["variant"],
                "front": q["front"],
                "rear": q["rear"],
                "fill": max(0, q["rear"] - q["front"]),
                "deliveries": q["deliveries"],
                "stores": q["stores"],
                "steals_in": q["steals_in"],
                "steals_out": q["steals_out"],
                "fill_hist": list(q["fill_hist"]),
            }
        return {
            "schema": FLIGHT_SCHEMA,
            "device": self.device_name,
            "n_wavefronts": self.n_wavefronts,
            "launches": self.launches,
            "cycle": self.cycles if self.finished else self.now,
            "finished": self.finished,
            "live_wavefronts": self.n_wavefronts - len(self.exited),
            "ring_capacity": self.ring_size,
            "ring": [list(ev) for ev in self.events],
            "queues": queues,
            "cus": {
                str(cid): {"cycle": c, "wf": wf, "op": op}
                for cid, (c, wf, op) in sorted(self.cus.items())
            },
            "wf_phases": {
                str(wf): [ev[3], ev[4]]
                for wf, ev in sorted(self.wf_phases.items())
            },
            "stall_classes": self.stall_classes(),
            "progress": {
                "issues": self.issues,
                "exits": self.exits,
                "atomics": self.atomics,
                "cas_failures": self.cas_failures,
                "deliveries": self.deliveries,
                "stores": self.stores,
                "steals": self.steals,
                "work_marks": self.work_marks,
                "done_marks": self.done_marks,
                "last_delivery": self.last_delivery,
                "last_store": self.last_store,
                "last_exit": self.last_exit,
                "last_work": self.last_work,
            },
        }


# ----------------------------------------------------------------------
# session
# ----------------------------------------------------------------------
class FlightSession(Session):
    """Attach a flight recorder (and optionally a watchdog) to every
    ``Engine.launch`` in this process.

    Each launch gets a fresh :class:`FlightRecorder` and, with
    ``watchdog=True``, a :class:`~repro.obs.watchdog.LivenessWatchdog`
    reading that same recorder.  ``self.last`` always points at the
    most recent launch's recorder — on exit with a pending exception
    and a ``postmortem_dir``, that recorder is frozen into a
    ``postmortem.json`` bundle (the exception itself propagates).

    Not re-entrant, like the other sessions.
    """

    def __init__(
        self,
        ring: int = DEFAULT_RING,
        watchdog: bool = False,
        watchdog_opts: Optional[Dict] = None,
        postmortem_dir: Optional[str] = None,
        config: Optional[Dict] = None,
        metrics=None,
        on_launch_end: Optional[Callable[[FlightRecorder], None]] = None,
        on_watchdog: Optional[Callable[[int, str, str], None]] = None,
    ):
        self.ring = ring
        self.watchdog = watchdog
        self.watchdog_opts = dict(watchdog_opts or {})
        self.postmortem_dir = postmortem_dir
        self.config = config
        self.metrics = metrics
        self.on_launch_end = on_launch_end
        self.on_watchdog = on_watchdog
        self.last: Optional[FlightRecorder] = None
        self.postmortem_path: Optional[str] = None
        #: ``(cycle, action, classification)`` watchdog escalations seen
        #: across the session (mirrors each watchdog's own log).
        self.watchdog_events: List[tuple] = []

    def observers(self) -> list:
        rec = FlightRecorder(self.ring)
        rec.on_end = self._launch_end
        self.last = rec
        if not self.watchdog:
            return [rec]
        from .watchdog import LivenessWatchdog

        return [
            rec,
            LivenessWatchdog(rec, on_event=self._wd_event, **self.watchdog_opts),
        ]

    # -- event sinks ---------------------------------------------------
    def _launch_end(self, rec: FlightRecorder) -> None:
        if self.metrics is not None:
            self.metrics.counter("flight.launches").inc()
        if self.on_launch_end is not None:
            self.on_launch_end(rec)

    def _wd_event(self, cycle: int, action: str, classification: str) -> None:
        self.watchdog_events.append((cycle, action, classification))
        if self.metrics is not None:
            # every escalation step corresponds to exactly one
            # no-progress window (a trip); warns are also counted apart.
            self.metrics.counter("watchdog.trips").inc()
            if action == "warn":
                self.metrics.counter("watchdog.warns").inc()
        if self.on_watchdog is not None:
            self.on_watchdog(cycle, action, classification)

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "FlightSession":
        super().__enter__()
        if self.metrics is not None and self.watchdog:
            # materialize the gated series at zero so healthy runs
            # record an explicit watchdog.trips = 0 in the ledger.
            self.metrics.counter("watchdog.trips").inc(0)
            self.metrics.counter("watchdog.warns").inc(0)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        super().__exit__(exc_type, exc, tb)
        if exc is not None and self.postmortem_dir and self.last is not None:
            bundle = build_postmortem(
                recorder=self.last, error=exc, config=self.config
            )
            self.postmortem_path = write_postmortem(
                bundle, self.postmortem_dir
            )
        # never suppress the exception: the bundle is a side artifact.


# ----------------------------------------------------------------------
# post-mortem bundles
# ----------------------------------------------------------------------
def build_postmortem(
    recorder: Optional[FlightRecorder] = None,
    error: Optional[BaseException] = None,
    config: Optional[Dict] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """Freeze failure context into a schema-versioned JSON-able bundle.

    ``recorder`` contributes the ring contents, queue fill histograms
    and blame (stall-class) snapshot; ``error`` the exception identity
    plus any structured fields (:class:`QueueFullError` capacity/fill,
    :class:`WedgeError` classification and watchdog snapshot);
    ``config`` is hashed with the run ledger's
    :func:`~repro.obs.ledger.config_hash` so a bundle can be matched to
    the ledger entry of the run that produced it.
    """
    from repro.simt.errors import QueueFullError, WedgeError

    from .ledger import config_hash

    bundle: Dict = {
        "schema": POSTMORTEM_SCHEMA,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config,
        "config_hash": config_hash(config) if config is not None else None,
    }
    if error is not None:
        err: Dict = {
            "type": type(error).__name__,
            "message": str(error),
        }
        if isinstance(error, QueueFullError):
            err["queue_full"] = error.info()
        if isinstance(error, WedgeError):
            err["classification"] = error.classification
            if error.snapshot is not None:
                bundle["wedge_snapshot"] = error.snapshot
        bundle["error"] = err
    else:
        bundle["error"] = None
    bundle["flight"] = recorder.snapshot() if recorder is not None else None
    if extra:
        bundle.update(extra)
    return bundle


def write_postmortem(bundle: Dict, out_dir: str) -> str:
    """Write ``bundle`` under ``out_dir`` and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(out_dir, f"postmortem-{stamp}.json")
    i = 1
    while os.path.exists(path):
        path = os.path.join(out_dir, f"postmortem-{stamp}-{i}.json")
        i += 1
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_postmortem(path: str) -> Dict:
    """Read a bundle back, validating its schema version."""
    with open(path) as fh:
        bundle = json.load(fh)
    schema = bundle.get("schema")
    if schema not in POSTMORTEM_SCHEMAS_READ:
        raise ValueError(
            f"unsupported postmortem schema {schema!r} "
            f"(this build reads schemas "
            f"{', '.join(map(str, POSTMORTEM_SCHEMAS_READ))})"
        )
    return bundle


def _bar(frac: float, width: int = 20) -> str:
    n = int(round(max(0.0, min(1.0, frac)) * width))
    return "#" * n + "." * (width - n)


def render_postmortem(bundle: Dict) -> str:
    """Human-readable rendering (``harness postmortem show``)."""
    lines: List[str] = []
    lines.append(f"postmortem (schema {bundle.get('schema')}) "
                 f"written {bundle.get('written_at')}")
    err = bundle.get("error")
    if err:
        lines.append(f"error: {err.get('type')}: {err.get('message')}")
        qf = err.get("queue_full")
        if qf:
            shard = qf.get("shard")
            lines.append(
                f"  queue {qf.get('queue')!r} fill {qf.get('fill')}/"
                f"{qf.get('capacity')}"
                + (f" shard {shard}" if shard is not None else "")
            )
        if err.get("classification"):
            lines.append(f"  watchdog classification: "
                         f"{err['classification']}")
    else:
        lines.append("error: none recorded")
    if bundle.get("config_hash"):
        lines.append(f"config hash: {bundle['config_hash']}")
    flight = bundle.get("flight")
    if flight:
        lines.append(
            f"launch: device={flight.get('device')} "
            f"wavefronts={flight.get('n_wavefronts')} "
            f"live={flight.get('live_wavefronts')} "
            f"cycle={flight.get('cycle')}"
        )
        queues = flight.get("queues") or {}
        if queues:
            lines.append("queues:")
            for prefix, q in sorted(queues.items()):
                cap = q.get("capacity") or 0
                fill = q.get("fill", 0)
                frac = fill / cap if cap else 0.0
                lines.append(
                    f"  {prefix:12s} [{_bar(frac)}] {fill}/{cap} "
                    f"({q.get('variant')}) deliveries={q.get('deliveries')}"
                    f" stores={q.get('stores')}"
                )
                hist = q.get("fill_hist")
                if hist and sum(hist) > 0:
                    total = sum(hist)
                    cells = " ".join(
                        f"{100 * h // total:3d}" for h in hist
                    )
                    lines.append(f"  {'':12s} fill% histogram: {cells}")
        stalls = flight.get("stall_classes") or {}
        if stalls:
            top = sorted(stalls.items(), key=lambda it: (-it[1], it[0]))
            lines.append(
                "stall classes (live wavefronts): "
                + ", ".join(f"{c}={n}" for c, n in top)
            )
        ring = flight.get("ring") or []
        if ring:
            lines.append(f"last {min(len(ring), 15)} of {len(ring)} "
                         f"ring events:")
            for ev in ring[-15:]:
                lines.append("  " + " ".join(str(x) for x in ev))
    else:
        lines.append("no flight recording attached")
    return "\n".join(lines)
